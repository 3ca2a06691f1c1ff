"""Dense-tensor reverse-mode autodiff on numpy storage.

A ``Tape`` records primitive applications in execution order (which is a
valid topological order, since every input tensor exists before the op that
consumes it runs).  ``backward`` walks the tape once in reverse, accumulating
adjoints per tensor id, and spends it as it goes: each node drops its
tensors and its closure once its closure has run, so a tape serves one
backward, and what only spent nodes held is freed before the backward
ends.  The tape and its tensors then no longer point at each other, so
reference counting frees a step.  Values are stored in the process
default dtype (float64 for gradient checking, float32 optionally for
training) selected through ``set_default_dtype``.

The registry (``primitive_names``) holds the primitives that production
records, and ``exp``, which only the benchmark's own tests record.  Each is
defined once, as a kernel on arrays under the ``_primitive`` decorator,
which registers it under its op name and makes it the public function that
takes Tensors (``add``, ``matmul``, ``slice_axis``, ...) and records the op.
A fused op whose kernel lives outside the registry records itself through
``record``, as ``ssm``'s bidirectional block does.

A module's weights are the ``Tensor`` fields of a dataclass that subclasses
``Module``, whose ``parameters()`` walks the fields, nested modules and
lists of them included, so that a weight is listed once, as a field.

Kernels lean on numpy for shape checking: a primitive's function turns the
``ValueError`` its kernel raises on incompatible operands into a
``ShapeError`` that names the primitive.  A kernel checks shapes itself only
where numpy would accept the input with other semantics (1-D matmul,
clipped slices, negative or boolean row indices).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from typing import Callable, Sequence

import numpy as np


class AutodiffError(Exception):
    """Engine misuse: detached losses, spent tapes, bad dtypes."""


class ShapeError(AutodiffError):
    """Operand shapes incompatible with the requested primitive."""


_default_dtype = np.float64


def set_default_dtype(dtype) -> None:
    """Select the storage dtype for newly constructed tensors.

    float64 is the gradient-check / reproducibility mode, float32 the cheap
    training mode.  Affects construction only; existing tensors keep theirs.
    """
    global _default_dtype
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise AutodiffError(f"unsupported default dtype {dt}, use float32 or float64")
    _default_dtype = dt.type


def get_default_dtype():
    return _default_dtype


_tensor_ids = itertools.count()


class Tensor:
    """Immutable value node.  Only ``grad`` (and, for the optimizer between
    steps, ``data`` in place) may be written after construction."""

    __slots__ = ("data", "requires_grad", "grad", "tid", "tape")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype if dtype is not None else _default_dtype, order="C")
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(_default_dtype)
        # ascontiguousarray would promote 0-d arrays to shape (1,)
        self.data = arr if arr.flags["C_CONTIGUOUS"] else np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.tid = next(_tensor_ids)
        self.tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Module:
    """Base of the dataclasses that hold weights: their fields list them once."""

    def parameters(self) -> dict[str, Tensor]:
        """Name -> weight, walking the fields in order: a ``Tensor`` is
        named by its field, a ``Module``'s weights by ``field/name`` and a
        list's items by ``field{i}``; any other field is a setting."""
        out: dict[str, Tensor] = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            items = ([(f"{f.name}{i}", v) for i, v in enumerate(value)]
                     if isinstance(value, list) else [(f.name, value)])
            for name, item in items:
                if isinstance(item, Tensor):
                    out[name] = item
                elif isinstance(item, Module):
                    out.update((f"{name}/{k}", t) for k, t in item.parameters().items())
        return out


class _Spent(int):
    """What a released tape node keeps of a tensor: its id, an int that
    also answers to ``tid`` (cheaper to make than an object with a slot)."""

    __slots__ = ()
    tid = property(int.__index__)


class _TapeNode:
    __slots__ = ("op", "inputs", "output", "backward")

    def __init__(self, op: str, inputs: tuple[Tensor, ...], output: Tensor,
                 backward: Callable[[np.ndarray], Sequence[np.ndarray | None]]):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward = backward

    def release(self) -> None:
        """Drop the node's tensors and closure, keeping its op and the ids
        of its tensors, so that what only the node held is freed."""
        self.inputs = tuple([_Spent(t.tid) for t in self.inputs])
        self.output = _Spent(self.output.tid)
        self.backward = _spent_backward(self.op)


@functools.cache  # one per op name, shared by its released nodes
def _spent_backward(op: str) -> Callable[[np.ndarray], Sequence[np.ndarray | None]]:
    def spent(g):
        raise AutodiffError(f"{op}: backward ran already; the backward released its tape node")

    return spent


_tapes: list["Tape"] = []  # entered tapes, innermost last


def active_tape() -> "Tape | None":
    return _tapes[-1] if _tapes else None


class Tape:
    """Ordered record of primitive applications for one forward pass.

    Entering a tape makes it the active one until it exits; tapes nest, and
    the innermost records.  The program is single-threaded, so there is one
    stack of active tapes for the process.
    """

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[_TapeNode] = []

    def __enter__(self) -> "Tape":
        _tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        if not _tapes or _tapes[-1] is not self:
            raise AutodiffError("tape stack corrupted: exiting a tape that is not active")
        _tapes.pop()
        return False


def is_recording(inputs: Sequence[Tensor]) -> bool:
    """Whether ``record`` would put an op over ``inputs`` on the active tape,
    so that a fused op can skip saving what only its backward reads."""
    return active_tape() is not None and any(t.requires_grad for t in inputs)


def record(op: str, inputs: Sequence[Tensor], out_data: np.ndarray,
           backward: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
    """Wrap raw output data into a Tensor and push a node onto the active
    tape when any input participates in differentiation.

    This is the extension point for fused operations that keep a primitive
    interface but are not registered primitives (``primitive_names``).
    """
    inputs = tuple(inputs)
    out_arr = np.asarray(out_data)
    out = Tensor.__new__(Tensor)
    out.data = out_arr if out_arr.flags["C_CONTIGUOUS"] else np.ascontiguousarray(out_arr)
    out.grad = None
    out.tid = next(_tensor_ids)
    out.requires_grad = False
    for t in inputs:
        if t.requires_grad:
            out.requires_grad = True
            break
    tape = _tapes[-1] if _tapes else None
    if out.requires_grad and tape is not None:
        out.tape = tape
        tape.nodes.append(_TapeNode(op, inputs, out, backward))
    else:
        out.tape = None
    return out


def backward(loss: Tensor) -> dict[Tensor, Tensor]:
    """Reverse pass from a scalar loss.

    Returns a map of requires-grad leaf tensors to their gradients and
    accumulates the same values into each leaf's ``grad`` buffer.  Every
    tape node is visited at most once; fan-out adjoints add.

    The backward spends its tape: it releases each node once the node's
    closure has run, or once it is passed over because no adjoint reaches
    it, so an array that only spent nodes held is freed while the rest of
    the backward runs.  A released node keeps its op and its tensors' ids;
    calling it again, as a second backward over the tape does, raises
    ``AutodiffError``.
    """
    if loss.data.ndim != 0:
        raise AutodiffError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    tape = loss.tape
    if tape is None:
        raise AutodiffError("loss is detached: it was not produced under an active tape")

    adjoint: dict[int, np.ndarray] = {loss.tid: np.ones((), dtype=loss.data.dtype)}
    leaves: dict[int, Tensor] = {}
    leaf_grads: dict[int, np.ndarray] = {}

    for node in reversed(tape.nodes):
        g_out = adjoint.pop(node.output.tid, None)
        if g_out is None:
            node.release()
            continue
        grads_in = node.backward(g_out)
        # checked before the zip, which would otherwise drop the surplus
        if len(grads_in) != len(node.inputs):
            raise AutodiffError(f"{node.op}: backward returned {len(grads_in)} gradients "
                                f"for {len(node.inputs)} inputs")
        for tensor, g in zip(node.inputs, grads_in):
            if g is None or not tensor.requires_grad:
                continue
            if g.shape != tensor.data.shape:
                raise AutodiffError(
                    f"{node.op}: backward produced shape {g.shape} for input of shape {tensor.data.shape}")
            if tensor.tape is tape:
                acc = adjoint.get(tensor.tid)
                adjoint[tensor.tid] = g if acc is None else acc + g
            else:
                leaves[tensor.tid] = tensor
                acc = leaf_grads.get(tensor.tid)
                leaf_grads[tensor.tid] = np.array(g) if acc is None else acc + g
        node.release()

    result: dict[Tensor, Tensor] = {}
    for tid, tensor in leaves.items():
        g = leaf_grads[tid]
        tensor.grad = g if tensor.grad is None else tensor.grad + g
        result[tensor] = Tensor(g, requires_grad=False, dtype=g.dtype)
    return result


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _matmul_grads(g: np.ndarray, a: np.ndarray, b: np.ndarray):
    ga = np.matmul(g, b.swapaxes(-1, -2))
    gb = np.matmul(a.swapaxes(-1, -2), g)
    return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)


# --- primitives ------------------------------------------------------------
# Each kernel takes its operands' arrays, then its attributes, and returns
# (output array, backward closure).  Closures capture input arrays, never
# Tensors, so tapes hold no cycles through grad buffers.

_registry: list[str] = []


def _primitive(name: str, operands: int | None):
    """Register the decorated kernel as primitive ``name`` and return its
    Tensor-level function, which takes ``operands`` positional operands (one
    sequence of them when None), then the kernel's attributes, and records
    the op."""
    def register(kernel):
        _registry.append(name)

        @functools.wraps(kernel)
        def op(*args, **attrs):
            given = args[0] if operands is None else args[:operands]
            tensors = tuple([t if isinstance(t, Tensor) else Tensor(t) for t in given])
            arrays = [t.data for t in tensors]
            try:
                out_data, bwd = (kernel(arrays, *args[1:], **attrs) if operands is None
                                 else kernel(*arrays, *args[operands:], **attrs))
            except ValueError as exc:  # numpy's shape checks, AxisError included
                shapes = ", ".join(str(t.shape) for t in tensors)
                raise ShapeError(f"{name}: {exc} (operand shapes {shapes})") from None
            return record(name, tensors, out_data, bwd)

        return op

    return register


def primitive_names() -> tuple[str, ...]:
    return tuple(_registry)


@_primitive("add", 2)
def add(a, b, /):
    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return a + b, bwd


@_primitive("sub", 2)
def sub(a, b, /):
    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return a - b, bwd


@_primitive("mul", 2)
def mul(a, b, /):
    def bwd(g):
        return _unbroadcast(g * b, a.shape), _unbroadcast(g * a, b.shape)

    return a * b, bwd


@_primitive("matmul", 2)
def matmul(a, b, /):
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must have ndim >= 2, got {a.shape} @ {b.shape}")
    return np.matmul(a, b), lambda g: _matmul_grads(g, a, b)


@_primitive("exp", 1)
def exp(x, /):
    out = np.exp(x)
    return out, lambda g: (g * out,)


@_primitive("tanh", 1)
def tanh(x, /):
    out = np.tanh(x)
    return out, lambda g: (g * (1.0 - out * out),)


@_primitive("reshape", 1)
def reshape(x, /, shape: Sequence[int]):
    # numpy semantics, so one -1 is allowed
    return x.reshape(tuple(shape)), lambda g: (g.reshape(x.shape),)


def _normalize_axes(axes, ndim, name):
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    norm = tuple(sorted(a % ndim if -ndim <= a < ndim else _axis_err(name, a, ndim) for a in axes))
    if len(set(norm)) != len(norm):
        raise ShapeError(f"{name}: duplicate axes {axes}")
    return norm


def _axis_err(name, axis, ndim):
    raise ShapeError(f"{name}: axis {axis} out of range for ndim {ndim}")


def _reduce(x, axes, use_mean):
    name = "reduce_mean" if use_mean else "reduce_sum"
    axes = _normalize_axes(axes, x.ndim, name)
    count = 1
    for a in axes:
        count *= x.shape[a]
    # sum / count is np.mean's arithmetic without its Python wrapper
    out = x.sum(axis=axes) / count if use_mean else x.sum(axis=axes)

    def bwd(g):
        expand = list(x.shape)
        for a in axes:
            expand[a] = 1
        g_full = np.broadcast_to(g.reshape(expand), x.shape)
        if use_mean:
            g_full = g_full / count
        return (np.ascontiguousarray(g_full),)

    return out, bwd


@_primitive("reduce_mean", 1)
def reduce_mean(x, /, axes=None):
    return _reduce(x, axes, use_mean=True)


@_primitive("reduce_sum", 1)
def reduce_sum(x, /, axes=None):
    return _reduce(x, axes, use_mean=False)


@_primitive("softmax_lastaxis", 1)
def softmax_lastaxis(x, /):
    if x.ndim < 1:
        raise ShapeError("softmax_lastaxis: needs at least one axis")
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return out, bwd


@_primitive("slice", 1)
def slice_axis(x, /, axis: int, start: int, stop: int):
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"slice: axis {axis} out of range for shape {x.shape}")
    axis = axis % x.ndim
    n = x.shape[axis]
    if not (0 <= start <= stop <= n):
        raise ShapeError(f"slice: window [{start}, {stop}) invalid for axis of length {n}")
    idx = (slice(None),) * axis + (slice(start, stop),)

    def bwd(g):
        gx = np.zeros(x.shape, dtype=x.dtype)
        gx[idx] = g
        return (gx,)

    return np.ascontiguousarray(x[idx]), bwd


@_primitive("concat", None)
def concat(arrays, /, axis: int):
    out = np.concatenate(arrays, axis=axis)
    bounds = list(itertools.accumulate((arr.shape[axis] for arr in arrays), initial=0))
    lead = (slice(None),) * (axis % out.ndim)

    def bwd(g):
        return tuple([np.ascontiguousarray(g[lead + (slice(lo, hi),)])
                      for lo, hi in zip(bounds, bounds[1:])])

    return out, bwd


@_primitive("take_rows", 1)
def take_rows(x, /, rows):
    """``x[rows]`` along axis 0 for a 1-D integer index array."""
    rows = np.asarray(rows)
    if (x.ndim == 0 or rows.ndim != 1 or not np.issubdtype(rows.dtype, np.integer)
            or (rows.size and not 0 <= rows.min() <= rows.max() < x.shape[0])):
        raise ShapeError(f"take_rows: rows must be 1-D integers inside axis 0 of {x.shape}, "
                         f"got {rows.dtype} rows of shape {rows.shape}")

    def bwd(g):
        gx = np.zeros_like(x)
        np.add.at(gx, rows, g)  # a row taken twice gathers both adjoints
        return (gx,)

    return x[rows], bwd


@_primitive("topk_mask", 1)
def topk_mask(x, /, k: int):
    n = x.shape[-1]
    if not 1 <= k <= n:
        raise ShapeError(f"topk_mask: k={k} outside [1, {n}]")
    # stable sort of negated values keeps the lowest index first among ties
    order = np.argsort(-x, axis=-1, kind="stable")
    mask = np.zeros(x.shape, dtype=bool)
    np.put_along_axis(mask, order[..., :k], True, axis=-1)
    return np.where(mask, x, -np.inf), lambda g: (g * mask,)


# --- gradient verification -------------------------------------------------

def finite_difference_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5) -> float:
    """Max relative disagreement between analytic and central-difference
    gradients of a scalar-valued ``f`` with respect to ``x``.

    Relative error per element is |analytic - fd| / max(|analytic|, |fd|,
    1e-8).  Requires float64 input and a deterministic ``f``; raises on any
    non-finite value met along the way.
    """
    if x.data.dtype != np.float64:
        raise AutodiffError(f"finite_difference_check requires float64 input, got {x.data.dtype}")

    probe = Tensor(x.data.copy(), requires_grad=True, dtype=np.float64)
    with Tape():
        out = f(probe)
        if out.data.ndim != 0:
            raise AutodiffError(f"finite_difference_check: f must be scalar-valued, got shape {out.data.shape}")
        backward(out)
    analytic = probe.grad
    if analytic is None:
        analytic = np.zeros_like(probe.data)
    if not np.all(np.isfinite(analytic)):
        raise AutodiffError("finite_difference_check: non-finite analytic gradient")

    base = probe.data
    fd = np.zeros_like(base)
    flat_base = base.reshape(-1)
    flat_fd = fd.reshape(-1)
    for i in range(flat_base.size):
        saved = flat_base[i]
        flat_base[i] = saved + eps
        hi = float(f(Tensor(base, dtype=np.float64)).data)
        flat_base[i] = saved - eps
        lo = float(f(Tensor(base, dtype=np.float64)).data)
        flat_base[i] = saved
        flat_fd[i] = (hi - lo) / (2.0 * eps)
    if not np.all(np.isfinite(fd)):
        raise AutodiffError("finite_difference_check: non-finite finite-difference gradient")

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-8)
    return float(np.max(np.abs(analytic - fd) / denom))
