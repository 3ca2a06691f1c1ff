"""Oracles that the tests compare production against.

- The oracle primitives ``softplus``, ``silu``, ``relu``, ``transpose``,
  ``reverse_axis``, ``layernorm_lastaxis``, ``depthwise_causal_conv1d`` and
  ``broadcast_to`` (op ``"broadcast"``): tape ops that production no longer
  records, each the production kernel from ``ssm`` (``_unbroadcast`` from
  ``autodiff``; numpy's own for ``transpose`` and ``reverse_axis``)
  recorded through ``ad.record``, so the oracle chains run production's
  arithmetic.  ``ORACLE_OPS`` maps each op name to its function.
- ``primitive_cases``: the finite-difference cases of every registered and
  oracle op, criterion 01's table, built from random shapes, values and an
  objective (``rand_shape``, ``well_scaled``, ``spaced_values``,
  ``weighted_sum``); and ``directional_derivative_check``, a gradient check
  along one random direction over many parameters at once.
- ``selective_scan_reference``: the naive per-step recurrence, plain numpy.
- ``scan_op`` and ``mamba_op``: thin tape ops around the production scan
  kernels and the production Mamba kernel, so that tests can record and
  differentiate them on their own.
- ``primitive_block`` and ``primitive_bi_block``: the Mamba block and the
  bidirectional block as chains of tape primitives around ``scan_op``, the
  bit-for-bit oracles of ``ssm.bidirectional_forward``'s outputs and
  gradients on either scan axis.
"""

import dataclasses
import functools

import numpy as np

from motionmoe import autodiff as ad
from motionmoe import ssm


def softplus(x):
    xd = x.data
    return ad.record("softplus", (x,), ssm._softplus(xd), lambda g: (g * ssm._sigmoid(xd),))


def silu(x):
    xd = x.data
    s = ssm._sigmoid(xd)
    return ad.record("silu", (x,), xd * s, lambda g: (ssm._silu_grad(g, xd, s),))


def relu(x):
    xd = x.data
    return ad.record("relu", (x,), np.maximum(xd, 0.0), lambda g: (ssm._relu_grad(g, xd),))


def transpose(x, axis_a, axis_b):
    return ad.record("transpose", (x,), x.data.swapaxes(axis_a, axis_b),
                     lambda g: (g.swapaxes(axis_a, axis_b),))


def reverse_axis(x, axis):
    return ad.record("reverse_axis", (x,), np.flip(x.data, axis),
                     lambda g: (np.ascontiguousarray(np.flip(g, axis)),))


def layernorm_lastaxis(x, gamma, beta, eps=1e-5):
    out, xhat, inv = ssm._layernorm(x.data, gamma.data, beta.data, eps)
    gd = gamma.data
    return ad.record("layernorm_lastaxis", (x, gamma, beta), out,
                     lambda g: ssm._layernorm_grads(g, xhat, inv, gd))


def depthwise_causal_conv1d(x, kernel):
    xd, kd = x.data, kernel.data
    return ad.record("depthwise_causal_conv1d", (x, kernel), ssm._causal_conv(xd, kd),
                     lambda g: ssm._causal_conv_grads(g, xd, kd))


def broadcast_to(x, shape):
    shape_in = x.shape
    return ad.record("broadcast", (x,), np.broadcast_to(x.data, shape),
                     lambda g: (ad._unbroadcast(g, shape_in),))


ORACLE_OPS = {"softplus": softplus, "silu": silu, "relu": relu, "transpose": transpose,
              "reverse_axis": reverse_axis,
              "layernorm_lastaxis": layernorm_lastaxis,
              "depthwise_causal_conv1d": depthwise_causal_conv1d, "broadcast": broadcast_to}


def rand_shape(rng, min_axes=1, max_axes=4, max_len=8):
    ndim = int(rng.integers(min_axes, max_axes + 1))
    return tuple(int(rng.integers(1, max_len + 1)) for _ in range(ndim))


def well_scaled(rng, shape):
    """Random values with |v| in [0.5, 1.5] so per-element gradients stay
    well above central-difference rounding noise."""
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return sign * rng.uniform(0.5, 1.5, shape)


def spaced_values(rng, shape):
    """Values whose pairwise gaps along the last axis are at least 0.1, so an
    eps-perturbation cannot flip a top-k decision."""
    flat = (int(np.prod(shape[:-1], dtype=int)), shape[-1])
    base = np.argsort(rng.standard_normal(flat), axis=-1).astype(np.float64)
    return ((base + rng.uniform(-0.4, 0.4, flat)) * 0.5).reshape(shape)


def weighted_sum(y, weights):
    """Scalar objective with a non-trivial gradient for any y."""
    return ad.reduce_sum(ad.mul(y, ad.Tensor(weights)))


def primitive_cases(name, rng):
    """(f, leaf) pairs covering the given primitive, registered or oracle,
    for one seed: criterion 01's finite-difference table."""
    if name in ("add", "sub", "mul"):
        shape = rand_shape(rng)
        other = ad.Tensor(well_scaled(rng, shape))
        x = ad.Tensor(well_scaled(rng, shape), requires_grad=True)
        w = well_scaled(rng, shape)
        # and an operand broadcast against a full-shape one, on either side
        full = rand_shape(rng, min_axes=2)
        reduced = tuple(1 if rng.random() < 0.5 else s for s in full)
        big = ad.Tensor(well_scaled(rng, full))
        small = ad.Tensor(well_scaled(rng, reduced), requires_grad=True)
        wb = well_scaled(rng, full)
        op = getattr(ad, name)
        return [(lambda t: weighted_sum(op(t, other), w), x),
                (lambda t: weighted_sum(op(other, t), w), x),
                (lambda t: weighted_sum(op(big, t), wb), small),
                (lambda t: weighted_sum(op(t, big), wb), small)]
    if name == "matmul":
        n, m, p = (int(rng.integers(1, 9)) for _ in range(3))
        a = ad.Tensor(rng.standard_normal((n, m)), requires_grad=True)
        b = ad.Tensor(rng.standard_normal((m, p)), requires_grad=True)
        w = well_scaled(rng, (n, p))
        # and a batched right operand: (D, D) @ (B, D, C)
        batch = int(rng.integers(1, 5))
        a2 = ad.Tensor(rng.standard_normal((n, n)), requires_grad=True)
        b2 = ad.Tensor(rng.standard_normal((batch, n, p)), requires_grad=True)
        w2 = well_scaled(rng, (batch, n, p))
        return [(lambda t: weighted_sum(ad.matmul(t, b), w), a),
                (lambda t: weighted_sum(ad.matmul(a, t), w), b),
                (lambda t: weighted_sum(ad.matmul(t, b2), w2), a2),
                (lambda t: weighted_sum(ad.matmul(a2, t), w2), b2)]
    if name in ("exp", "softplus", "silu", "tanh", "relu"):
        shape = rand_shape(rng)
        x = ad.Tensor(rng.uniform(-2.0, 2.0, shape), requires_grad=True)
        w = well_scaled(rng, shape)
        op = ORACLE_OPS.get(name) or getattr(ad, name)
        return [(lambda t: weighted_sum(op(t), w), x)]
    if name == "transpose":
        shape = rand_shape(rng, min_axes=2)
        x = ad.Tensor(rng.standard_normal(shape), requires_grad=True)
        axes = rng.choice(len(shape), size=2, replace=False)
        a, b = int(axes[0]), int(axes[1])
        w = np.swapaxes(well_scaled(rng, shape), a, b)
        return [(lambda t: weighted_sum(transpose(t, a, b), w), x)]
    if name == "reverse_axis":
        shape = rand_shape(rng)
        x = ad.Tensor(rng.standard_normal(shape), requires_grad=True)
        axis = int(rng.integers(0, len(shape)))
        w = well_scaled(rng, shape)
        return [(lambda t: weighted_sum(reverse_axis(t, axis), w), x)]
    if name == "reshape":
        shape = rand_shape(rng)
        x = ad.Tensor(rng.standard_normal(shape), requires_grad=True)
        flat = (int(np.prod(shape)),)
        w = well_scaled(rng, flat)
        return [(lambda t: weighted_sum(ad.reshape(t, flat), w), x)]
    if name in ("reduce_mean", "reduce_sum"):
        shape = rand_shape(rng)
        x = ad.Tensor(rng.standard_normal(shape), requires_grad=True)
        fn = ad.reduce_mean if name == "reduce_mean" else ad.reduce_sum
        # and over a non-empty proper subset of another tensor's axes
        sub_shape = rand_shape(rng, min_axes=2)
        ndim = len(sub_shape)
        size = int(rng.integers(1, ndim))
        axes = tuple(sorted(rng.choice(ndim, size=size, replace=False).tolist()))
        xs = ad.Tensor(rng.standard_normal(sub_shape), requires_grad=True)
        ws = well_scaled(rng, tuple(s for i, s in enumerate(sub_shape) if i not in axes))
        return [(lambda t: fn(t), x),
                (lambda t: weighted_sum(fn(t, axes=axes), ws), xs)]
    if name == "softmax_lastaxis":
        shape = rand_shape(rng)
        x = ad.Tensor(rng.standard_normal(shape), requires_grad=True)
        w = well_scaled(rng, shape)
        return [(lambda t: weighted_sum(ad.softmax_lastaxis(t), w), x)]
    if name == "layernorm_lastaxis":
        shape = rand_shape(rng)
        shape = shape[:-1] + (max(3, shape[-1]),)
        c = shape[-1]
        x = ad.Tensor(rng.standard_normal(shape), requires_grad=True)
        gamma = ad.Tensor(well_scaled(rng, (c,)), requires_grad=True)
        beta = ad.Tensor(well_scaled(rng, (c,)), requires_grad=True)
        w = well_scaled(rng, shape)
        return [(lambda t: weighted_sum(layernorm_lastaxis(t, gamma, beta), w), x),
                (lambda t: weighted_sum(layernorm_lastaxis(x, t, beta), w), gamma),
                (lambda t: weighted_sum(layernorm_lastaxis(x, gamma, t), w), beta)]
    if name == "depthwise_causal_conv1d":
        b, l, c = (int(rng.integers(1, 7)) for _ in range(3))
        width = int(rng.integers(1, 5))
        x = ad.Tensor(well_scaled(rng, (b, l, c)), requires_grad=True)
        k = ad.Tensor(well_scaled(rng, (c, width)), requires_grad=True)
        w = well_scaled(rng, (b, l, c))
        return [(lambda t: weighted_sum(depthwise_causal_conv1d(t, k), w), x),
                (lambda t: weighted_sum(depthwise_causal_conv1d(x, t), w), k)]
    if name == "broadcast":
        target = rand_shape(rng, min_axes=2)
        source = tuple(1 if rng.random() < 0.5 else s for s in target)
        x = ad.Tensor(rng.standard_normal(source), requires_grad=True)
        w = well_scaled(rng, target)
        return [(lambda t: weighted_sum(broadcast_to(t, target), w), x)]
    if name == "slice":
        shape = rand_shape(rng)
        axis = int(rng.integers(0, len(shape)))
        start = int(rng.integers(0, shape[axis]))
        stop = int(rng.integers(start + 1, shape[axis] + 1))
        x = ad.Tensor(rng.standard_normal(shape), requires_grad=True)
        out_shape = list(shape)
        out_shape[axis] = stop - start
        w = well_scaled(rng, tuple(out_shape))
        return [(lambda t: weighted_sum(ad.slice_axis(t, axis, start, stop), w), x)]
    if name == "concat":
        shape = rand_shape(rng)
        axis = int(rng.integers(0, len(shape)))
        other = ad.Tensor(rng.standard_normal(shape))
        x = ad.Tensor(rng.standard_normal(shape), requires_grad=True)
        cat_shape = list(shape)
        cat_shape[axis] *= 2
        w = well_scaled(rng, tuple(cat_shape))
        return [(lambda t: weighted_sum(ad.concat([t, other], axis), w), x),
                (lambda t: weighted_sum(ad.concat([other, t], axis), w), x)]
    if name == "take_rows":
        shape = rand_shape(rng)
        # repeated and unordered rows, so adjoints of one row accumulate
        rows = rng.integers(0, shape[0], size=int(rng.integers(1, 2 * shape[0] + 2)))
        x = ad.Tensor(rng.standard_normal(shape), requires_grad=True)
        w = well_scaled(rng, (len(rows),) + shape[1:])
        return [(lambda t: weighted_sum(ad.take_rows(t, rows), w), x)]
    if name == "topk_mask":
        shape = rand_shape(rng)
        x = ad.Tensor(spaced_values(rng, shape), requires_grad=True)
        k = int(rng.integers(1, shape[-1] + 1))
        w = well_scaled(rng, shape)
        return [(lambda t: weighted_sum(ad.exp(ad.topk_mask(t, k)), w), x)]
    raise AssertionError(f"no finite-difference case for primitive {name!r}")


def directional_derivative_check(f, params, eps=1e-5, seed=0):
    """Relative error of grad . v against a central difference along one
    random unit direction v over all ``params`` (float64) jointly: two extra
    evaluations of the scalar ``f()`` whatever the number of parameters."""
    rng = np.random.default_rng(seed)
    assert all(p.data.dtype == np.float64 for p in params)
    direction = [rng.standard_normal(p.shape) for p in params]
    norm = np.sqrt(sum(float((d * d).sum()) for d in direction))
    direction = [d / norm for d in direction]
    for p in params:
        p.zero_grad()
    with ad.Tape():
        ad.backward(f())
    analytic = sum(float((p.grad * d).sum()) for p, d in zip(params, direction)
                   if p.grad is not None)
    saved = [p.data.copy() for p in params]
    values = []
    for step in (eps, -eps):
        for p, d, s in zip(params, direction, saved):
            p.data[...] = s + step * d
        values.append(float(f().data))
    for p, s in zip(params, saved):
        p.data[...] = s
    fd = (values[0] - values[1]) / (2.0 * eps)
    return abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-8)


def selective_scan_reference(a_bar: np.ndarray, b_bar: np.ndarray,
                             c: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Naive per-step recurrence, plain numpy, no tape.  Oracle for the
    fused scan; keep it dumb."""
    bsz, length, inner, n = a_bar.shape
    out = np.zeros((bsz, length, inner), dtype=np.float64)
    for b in range(bsz):
        h = np.zeros((inner, n), dtype=np.float64)
        for i in range(length):
            h = a_bar[b, i] * h + b_bar[b, i] * u[b, i][:, None]
            out[b, i] = h @ c[b, i]
    return out


def scan_op(delta, a, b, c, u):
    """The production scan kernels, ``ssm._scan_forward`` and
    ``ssm._scan_grads``, as one tape op: delta (B, L, EC), a (EC, N),
    b and c (B, L, N), u (B, L, EC) -> (B, L, EC)."""
    inputs = (delta, a, b, c, u)
    dd, a_, bd, cd, ud = (t.data for t in inputs)
    a_t = np.ascontiguousarray(a_.T)
    ys, starts, q = ssm._scan_forward(dd, a_t, bd, cd, ud, keep=ad.is_recording(inputs))
    # the gradient kernel overwrites the g and delta it is handed
    return ad.record("selective_scan", inputs, ys,
                     lambda g: ssm._scan_grads(g.astype(ud.dtype), dd.copy(), a_t, bd, cd, ud,
                                               starts, q))


def mamba_op(params, x):
    """The production Mamba kernel, ``ssm._mamba_block``, as one tape op over
    x and the block's 8 weights."""
    inputs = (x, *params.parameters().values())
    out, bwd = ssm._mamba_block(params, x.data, ad.is_recording(inputs))
    return ad.record("mamba_block", inputs, out, functools.partial(bwd, xd=x.data))


def primitive_block(params, x):
    """The block as a chain of tape primitives: the bit-for-bit oracle of the
    Mamba kernel's output and gradients."""
    (inner, n), rank = params.A_log.shape, params.dt_proj.shape[0]
    w_x = ad.slice_axis(params.in_proj, axis=1, start=0, stop=inner)
    w_z = ad.slice_axis(params.in_proj, axis=1, start=inner, stop=2 * inner)
    xs = silu(ad.add(depthwise_causal_conv1d(ad.matmul(x, w_x), params.conv_kernel),
                     params.conv_bias))
    proj = ad.matmul(xs, params.x_proj)
    dt_low = ad.slice_axis(proj, axis=2, start=0, stop=rank)
    b_in = ad.slice_axis(proj, axis=2, start=rank, stop=rank + n)
    c_in = ad.slice_axis(proj, axis=2, start=rank + n, stop=rank + 2 * n)
    delta = softplus(ad.add(ad.matmul(dt_low, params.dt_proj), params.dt_bias))
    a = ad.mul(ad.exp(params.A_log), ad.Tensor(-1.0, dtype=params.A_log.data.dtype))
    y = scan_op(delta, a, b_in, c_in, xs)
    return ad.matmul(ad.mul(y, silu(ad.matmul(x, w_z))), params.out_proj)


def primitive_head(params, core):
    """The bidirectional block's LN(inner + FFN(inner)), inner = LN(core), as
    tape primitives."""
    inner = layernorm_lastaxis(core, params.ln_inner_gamma, params.ln_inner_beta)
    hidden = relu(ad.add(ad.matmul(inner, params.ffn_w1), params.ffn_b1))
    ffn_out = ad.add(ad.matmul(hidden, params.ffn_w2), params.ffn_b2)
    return layernorm_lastaxis(ad.add(inner, ffn_out),
                              params.ln_outer_gamma, params.ln_outer_beta)


def primitive_bi_block(params, x):
    """The bidirectional block as a chain of tape primitives around
    ``primitive_block``: the bit-for-bit oracle of the fused block.  A
    block that scans axis 2 runs on x transposed to (batch, L, C), and its
    output is transposed back."""
    if params.axis == 2:
        return transpose(primitive_bi_block(dataclasses.replace(params, axis=1),
                                            transpose(x, 1, 2)), 1, 2)
    # both directions run as one call on a (2B, L, C) stack of x and its
    # time reversal; their sum keeps the order (forward + reversed) + x
    reversed_rows = ssm._REVERSED_ROWS[params.scan_mode]
    stacked = ad.concat([reverse_axis(x, 1) if rev else x for rev in reversed_rows], axis=0)
    y = primitive_block(params.mamba, stacked)
    bsz = x.shape[0]
    out = None
    for i, rev in enumerate(reversed_rows):
        part = ad.slice_axis(y, axis=0, start=i * bsz, stop=(i + 1) * bsz)
        if rev:
            part = reverse_axis(part, 1)
        out = part if out is None else ad.add(out, part)
    return primitive_head(params, ad.add(out, x))
