"""Selective state-space block and its bidirectional wrapper.

One block runs, over (batch, L, C):

    x, z   = X @ in_proj[:, :E*C], X @ in_proj[:, E*C:]   # each (B, L, E*C)
    x'     = SiLU(causal depthwise conv(x))
    dt,B,C = split(x_proj(x'))
    delta  = softplus(dt_proj(dt) + dt_bias)        # (B, L, E*C), > 0
    A      = -exp(A_log)                            # (E*C, N), < 0
    h_i    = exp(delta_i A) . h_{i-1} + (delta_i x'_i) B_i   # h_0 = 0
    y_i    = sum_n C_i . h_i
    out    = out_proj(y . SiLU(z))

The discretization is exact (zero-order hold) on the state path and Euler
on the input path.  The scan kernels, ``_scan_forward`` and ``_scan_grads``,
fuse it into the scan: they form exp(delta_i A) and delta_i B_i one step at
a time.  For a recorded call the forward keeps the hidden state only at the
start of each chunk of q = ceil(sqrt(3L)) steps but the first, which starts
from h_0 = 0: ceil(L/q) - 1 states instead of L, and none when L <= q (Chen
et al. 2016, "Training Deep Nets with Sublinear Memory Cost"; Gu & Dao
2023, section 3.3).  q is the training step's optimum, not one call's: at
the step's peak a full-pool mixture layer holds the chunk starts of all six
of its recorded block calls, about L/q states each, beside the 2q chunk
states of the one call whose gradient runs, and 6L/q + 2q is least at
q = sqrt(3L): 12 and 15 steps at L = 45 and 75, against 7 and 9 at Chen
et al.'s sqrt(L), which weighs one call's kept states against one chunk.
The hand-written gradient recomputes one chunk at a time, the
discretization and the states, into two (q, B, N, E*C) buffers, and runs
the reverse recurrence over them, reducing each step's gradient
with respect to delta_i A into the gradients of delta and A as it forms it.
It reads its (B, L, .) inputs a chunk at a time and writes each chunk's
gradients of u and delta over the output gradient and delta it is handed,
so beside those it holds the 2q chunk states and chunk-long arrays, never a
whole sequence more.  The recomputation repeats the forward's operations,
so outputs and gradients are those of a scan that keeps every state, bit
for bit, whatever q.  The state is held as (B, N, E*C), channels innermost,
in both directions, so that each per-step product runs over E*C contiguous
values rather than N = 16.

The Mamba kernel, ``_mamba_block``, runs the whole block around the scan's
kernels; its sizes are those of its weights.  For a recorded call it keeps
y, the conv's pre-activation and the chunk-start states, and takes x again
in its backward: less than the ``checkpoint_lvl=1`` recipe of the reference
``MambaInnerFn``, which rebuilds only the conv's output and delta.  Its
backward rebuilds the rest by the forward's own operations, so outputs and
gradients are bit for bit those of the block's primitive composition: the
contiguous x and z halves of in_proj and A^T, rather than a copy per call; z,
silu(z)'s sigmoid and the gated product; x W_x; the conv's sigmoid and x'
from the pre-activation; x_proj(x'); delta's pre-activation and delta.  It
forms delta's pre-activation twice, for delta and for its sigmoid, and the
conv's sigmoid twice, for x' and for the conv's gradient, so that neither
is held across the scan gradient.  A tape-free call runs the same
operations and frees each array once nothing reads it; z is formed after
the scan.  The backward lets go of y once the gate's gradient is formed and
of the rest once read, so it runs once, and a second raises
``AutodiffError``.  Its peak is in the scan gradient, which holds, beside
the pre-activation and the chunk starts, the output gradient, x' and
delta, three (B, L, E*C) arrays the scan's gradients overwrite or the x
path reads, and the 2q chunk states.

The block's other kernels live here too, since nothing else runs them: the
sigmoid, softplus, the SiLU and ReLU gradients, the layer norm and the
causal depthwise conv, with their gradients.  ``_matmul_grads`` and
``_unbroadcast`` come from ``autodiff``, so that the block's gradients match
the ``matmul`` and ``add`` primitives of its oracle chain bit for bit.

The bidirectional wrapper shares ONE set of block weights between the
forward and the reversed scan, and runs both as one block call on the
(2B, L, C) stack of x and its time reversal.  It adds the raw input back,
and finishes with LN(LN(core) + FFN(LN(core))).  A block owns the axis it
scans, ``BiBlockParams.axis``: on axis 1 its input is (B, L, C); on axis 2
it is (B, C, L), which the block reads, and writes its output to, through
views with the two axes swapped, so that the mixture layer's temporal stage
needs no transposed copy of the (batch, D, T) features on either side.  The
stack is built in C order from either layout; the Mamba kernel's GEMMs
round by layout, and a concatenation keeps a transposed view's.  The
mixture layer stacks further, the inputs of two experts into one call, only
while the call's scan-gradient chunk buffer, ``_scan_chunk_bytes``, fits
``_TILE_BYTES`` (see ``moe``).

``bidirectional_forward`` records the whole wrapper as one ``bi_block`` op
over x and the block's 16 weights, and calls the Mamba kernel inside that
op rather than as a node of its own.  A recorded call keeps what the kernel
keeps, plus the residual sum core, one (B, L, C) array.  Its backward
rebuilds the stack from x, and runs the LN-FFN-LN head again from core,
statistics included, by the primitives' own operations.  On axis 1 it
hands x's gradient to the tape as three shares, one per use of x (the
residual, the forward rows, the reversed rows), so that the tape adds them
in the primitive composition's order.  On axis 2 that composition,
transpose -> block -> transpose, adds them on its transposed copy of x
before the transpose hands the sum on, so the backward hands over one
share, (residual + forward) + reversed, as a swapped view.  Outputs and
gradients are therefore bit for bit those of the composition, the chain of
tape primitives in ``tests/oracles.py``.  The backward lets go of core once
the head's gradient is formed, and of the Mamba arrays as the kernel's
backward reads them, so it too runs once.

A tape-free call runs the kernel and the head over tiles of x's rows and
writes each tile into one preallocated output of x's shape.  A tile holds
max(1, _TILE_BYTES // (directions * L * E*C * itemsize)) rows, so each of
its stacked (rows, L, E*C) arrays holds about ``_TILE_BYTES``, and its peak,
about five of them, stops growing with the batch.  Rows of L = 0 hold
nothing, so they all run as one tile.  Every op of the block works per
row: the scan, the conv, the layer norms and the elementwise ops by
construction, and numpy's 3-D matmul by one GEMM per batch item.  So a
row's output has the same bits in any tile.  The scan pays its per-step
Python cost once per tile, which sets the budget's floor (1 MiB: time rose
below it).  A recorded call keeps its arrays for the backward whatever the
tiling, so it runs as one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (AutodiffError, Module, ShapeError, Tensor, _matmul_grads,
                       _unbroadcast, is_recording, record)

SCAN_MODES = ("bidirectional", "forward", "backward")
# a tape-free block call's budget per stacked (rows, L, E*C) array of a row tile
_TILE_BYTES = 1 << 20
# which rows of a block's stacked call hold x's time reversal, per scan mode
_REVERSED_ROWS = {"bidirectional": (False, True), "forward": (False,), "backward": (True,)}
# the range of a new block's per-channel step sizes
DT_MIN, DT_MAX = 0.001, 0.1


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument only, so no overflow on either branch:
    # 1 / (1 + z) for x >= 0 and z / (1 + z) below, with z = exp(-|x|) <= 1,
    # so the numerator is max([x >= 0], z): 1 where x >= 0, and z below,
    # where z > 0 or it underflowed to 0.  The comparison is cheaper than
    # np.sign and gives the same bits.  Formed in place, two arrays of x's
    # size live; out= keeps a 0-d input an array.
    z = np.abs(x, out=np.empty_like(x))
    np.negative(z, out=z)
    np.exp(z, out=z)
    out = np.greater_equal(x, 0.0, out=np.empty_like(x))
    np.maximum(out, z, out=out)
    z += 1.0
    out /= z
    return out


def _softplus(x: np.ndarray) -> np.ndarray:
    # log1p(exp(-|x|)) + max(x, 0)
    out = np.abs(x, out=np.empty_like(x))
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(x, 0.0, dtype=x.dtype)
    return out


def _silu_grad(g: np.ndarray, x: np.ndarray, s: np.ndarray,
               overwrite: bool = False) -> np.ndarray:
    """dL/dx of silu(x) = x * s, given dL/d(silu(x)) and s = sigmoid(x):
    g * s * (1 + x * (1 - s)).  ``overwrite`` forms it in g's buffer and
    spends s's on the factor; the products commute, so the bits agree."""
    if overwrite:
        g *= s
        t = np.subtract(1.0, s, out=s)
    else:
        g, t = g * s, 1.0 - s
    t *= x
    t += 1.0
    g *= t
    return g


def _relu_grad(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """dL/dx of relu(x) = max(x, 0), given dL/d(relu(x))."""
    return g * (x > 0.0)


def _layernorm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5):
    """(output, normalized x, 1 / std) of a layernorm over the last axis."""
    c = x.shape[-1]
    # means as sum / c: np.mean's arithmetic without its Python wrapper
    centered = x - x.sum(axis=-1, keepdims=True) / c
    var = (centered ** 2).sum(axis=-1, keepdims=True) / c
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    return xhat * gamma + beta, xhat, inv


def _layernorm_grads(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gamma: np.ndarray):
    """(dL/dx, dL/dgamma, dL/dbeta) of ``_layernorm``, from its saved xhat and inv."""
    lead = tuple(range(g.ndim - 1))
    c = g.shape[-1]
    gbeta = g.sum(axis=lead)
    ggamma = (g * xhat).sum(axis=lead)
    gx_hat = g * gamma
    gx = inv * (gx_hat
                - gx_hat.sum(axis=-1, keepdims=True) / c
                - xhat * ((gx_hat * xhat).sum(axis=-1, keepdims=True) / c))
    return gx, ggamma, gbeta


def _causal_conv(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Depthwise causal conv of (batch, length, channels) by (channels, w)."""
    w, length = kernel.shape[1], x.shape[1]
    # tap w - 1 - shift reads x shifted right by shift.  Taps add up from
    # zero in ascending order, the order of a window sum over the padded
    # input, so results match that sum bit for bit
    out = np.zeros_like(x, dtype=np.result_type(x, kernel))
    for shift in reversed(range(min(w, length))):
        out[:, shift:] += x[:, :length - shift] * kernel[:, w - 1 - shift]
    return out


def _causal_conv_grads(g: np.ndarray, x: np.ndarray, kernel: np.ndarray):
    """(dL/dx, dL/dkernel) of ``_causal_conv(x, kernel)``."""
    w, length = kernel.shape[1], x.shape[1]
    # one reduction per tap over the left-padded input.  The padding zeros
    # stay in each sum: with one channel, einsum's reduction runs along the
    # length and groups its terms by position, so only the padded sums
    # match a window sum bit for bit
    padded = np.zeros((x.shape[0], length + w - 1, x.shape[2]), dtype=x.dtype)
    padded[:, w - 1:] = x
    gk = np.empty(kernel.shape, dtype=np.result_type(g, x))
    for tap in range(w):
        gk[:, tap] = np.einsum("blc,blc->c", g, padded[:, tap:tap + length])
    gx = np.zeros_like(g)
    for shift in range(min(w, length)):
        gx[:, :length - shift] += g[:, shift:] * kernel[:, w - 1 - shift]
    return gx, gk


def default_dt_rank(channels: int) -> int:
    return max(1, math.ceil(channels / 16))


@dataclass
class MambaBlockParams(Module):
    in_proj: Tensor      # (C, 2*E*C)
    conv_kernel: Tensor  # (E*C, W)
    conv_bias: Tensor    # (E*C,)
    x_proj: Tensor       # (E*C, dt_rank + 2*N)
    dt_proj: Tensor      # (dt_rank, E*C)
    dt_bias: Tensor      # (E*C,)
    A_log: Tensor        # (E*C, N)
    out_proj: Tensor     # (E*C, C)


def _uniform(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_mamba_block(rng: np.random.Generator, channels: int, expand: int = 2,
                     state_dim: int = 16, conv_width: int = 4,
                     dt_rank: int | None = None) -> MambaBlockParams:
    """Initialization follows the reference selective-SSM recipe: per-channel
    step sizes start log-uniform in [DT_MIN, DT_MAX] (the bias stores the
    softplus preimage) and A starts at -(1..N) for every channel."""
    if channels < 1 or expand < 1 or state_dim < 1 or conv_width < 1:
        raise ValueError("channels, expand, state_dim and conv_width must be positive")
    if dt_rank is None:
        dt_rank = default_dt_rank(channels)
    inner = expand * channels

    dt = np.exp(rng.uniform(np.log(DT_MIN), np.log(DT_MAX), size=inner))
    dt_bias = dt + np.log(-np.expm1(-dt))  # softplus(dt_bias) == dt

    a = np.tile(np.arange(1, state_dim + 1, dtype=np.float64), (inner, 1))

    return MambaBlockParams(
        in_proj=Tensor(_uniform(rng, channels, (channels, 2 * inner)), requires_grad=True),
        conv_kernel=Tensor(_uniform(rng, conv_width, (inner, conv_width)), requires_grad=True),
        conv_bias=Tensor(np.zeros(inner), requires_grad=True),
        x_proj=Tensor(_uniform(rng, inner, (inner, dt_rank + 2 * state_dim)), requires_grad=True),
        dt_proj=Tensor(_uniform(rng, dt_rank, (dt_rank, inner)), requires_grad=True),
        dt_bias=Tensor(dt_bias, requires_grad=True),
        A_log=Tensor(np.log(a), requires_grad=True),
        out_proj=Tensor(_uniform(rng, inner, (inner, channels)), requires_grad=True),
    )


def _chunk_steps(length: int) -> int:
    """q = ceil(sqrt(3L)), the steps in one chunk of a recorded scan (the
    module docstring says why)."""
    return math.isqrt(3 * max(length, 1) - 1) + 1


def _scan_forward(dd, a_t, bd, cd, ud, keep):
    """(y, chunk-start states, q) of the scan; the states, those of chunks
    1 to ceil(L/q) - 1, are None unless ``keep``.  a_t is a^T, (N, EC)."""
    bsz, length, inner = dd.shape
    n = a_t.shape[0]
    q = _chunk_steps(length)
    # chunk 0 starts from h_0 = 0, so only the later chunks' starts are kept
    chunks = -(-length // q)
    starts = np.empty((max(chunks - 1, 0), bsz, n, inner), dtype=dd.dtype) if keep else None
    ys = np.empty((bsz, length, inner), dtype=dd.dtype)
    h = np.zeros((bsz, n, inner), dtype=dd.dtype)
    # one scratch array for exp(delta_i x a), then for the input term, so
    # that no step allocates a state-sized array
    step = np.empty_like(h)
    for i in range(length):
        if keep and i and i % q == 0:
            starts[i // q - 1] = h
        h *= np.exp(np.einsum("bc,nc->bnc", dd[:, i], a_t, out=step), out=step)
        h += np.einsum("bc,bn->bnc", dd[:, i] * ud[:, i], bd[:, i], out=step)
        np.matmul(cd[:, i, None, :], h, out=ys[:, i, None, :])
    return ys, starts, q


def _scan_grads(g, dd, a_t, bd, cd, ud, starts, q):
    """dL/d(delta, a, b, c, u) of the scan, in its inputs' layouts, by the
    reverse recurrence, chunk by chunk, last first.

    The caller hands over g and dd: each chunk's dL/du and dL/d(delta) are
    written over them, once the chunk is done with them, and returned.  The
    two (q, B, N, EC) chunk buffers are freed when it returns."""
    bsz, length, inner = dd.shape
    n = a_t.shape[0]
    gb, gc = np.empty_like(bd), np.empty_like(cd)
    ga_t = np.zeros_like(a_t)
    carry = gh = np.zeros((bsz, n, inner), dtype=dd.dtype)  # dL/dh_i carried back
    step = np.empty_like(gh)
    # exp(delta_i x a) and h_i of one chunk; the reverse recurrence then
    # overwrites each slot once it is spent, h_i with dL/dh_i and
    # exp(delta_i x a) with the gradient carried to step i - 1
    decays = np.empty((min(q, length), bsz, n, inner), dtype=dd.dtype)
    states = np.empty_like(decays)
    # a chunk's delta_i, delta_i u_i, dL/d(delta_i u_i) and the part of
    # dL/d(delta_i) that flows through exp(delta_i x a), step-major; the
    # 4-D einsums run at half speed on a strided delta or b
    d_buf, du, gdu, gd = (np.empty((len(decays), bsz, inner), dtype=dd.dtype) for _ in range(4))
    b_t = np.ascontiguousarray(bd.swapaxes(0, 1))
    # step-major views of the (B, L, .) arrays, gb and gc as matmul outputs
    g_t, u_t, dd_t, gb_t, gc_t = (x.swapaxes(0, 1) for x in (g, ud, dd, gb[..., None],
                                                           gc[..., None]))
    for k in reversed(range(-(-length // q))):
        lo, hi = k * q, min(k * q + q, length)
        m = hi - lo
        decay, hs, b_k, g_k, dd_k = decays[:m], states[:m], b_t[lo:hi], g_t[lo:hi], dd_t[lo:hi]
        d_k = d_buf[:m]
        np.copyto(d_k, dd_k)
        du_k = np.multiply(d_k, u_t[lo:hi], out=du[:m])
        np.exp(np.einsum("lbc,nc->lbnc", d_k, a_t, out=decay), out=decay)
        np.einsum("lbc,lbn->lbnc", du_k, b_k, out=hs)
        if k:
            prev = starts[k - 1]
        else:  # h_0 = 0, added as a zero state so that -0.0 sums to +0.0
            prev = step
            step.fill(0.0)
        for j in range(m):
            hs[j] += np.multiply(decay[j], prev, out=step)
            prev = hs[j]
        np.matmul(hs, g_k[..., None], out=gc_t[lo:hi])
        for j in range(m - 1, -1, -1):
            i = lo + j
            np.add(carry, np.einsum("bn,bc->bnc", cd[:, i], g_k[j], out=step), out=hs[j])
            if i:
                carry = np.multiply(hs[j], decay[j], out=decay[j] if j else gh)
                # s_i = dL/d(delta_i x a), (B, N, EC), reduced as it is formed
                s = np.multiply(carry, hs[j - 1] if j else starts[k - 1], out=step)
                np.einsum("bnc,nc->bc", s, a_t, out=gd[j])
                ga_t += np.einsum("bnc,bc->nc", s, d_k[j])
            else:
                gd[0] = 0.0  # s_0 = 0 because h_0 = 0
        np.matmul(b_k[:, :, None, :], hs, out=gdu[:m, :, None, :])
        np.matmul(hs, du_k[..., None], out=gb_t[lo:hi])
        # nothing reads the chunk's g and delta again
        np.multiply(gdu[:m], d_k, out=g_k)
        np.multiply(gdu[:m], u_t[lo:hi], out=dd_k)
        dd_k += gd[:m]
    return dd, ga_t.T, gb, gc, g


def _mamba_block(params: MambaBlockParams, xd: np.ndarray, keep: bool):
    """(output, backward) of the block on (batch, L, C) data.  ``keep`` saves
    what the backward reads, except ``xd``: the backward takes the output's
    gradient and the input again, and returns the gradients of the input and
    of the weights in ``params.parameters()`` order.  It lets go of what
    was saved as it goes, so it runs once."""
    w_in, kernel, conv_bias = params.in_proj.data, params.conv_kernel.data, params.conv_bias.data
    w_proj, dt_proj, dt_bias = params.x_proj.data, params.dt_proj.data, params.dt_bias.data
    a_log, w_out = params.A_log.data, params.out_proj.data
    (inner, n), rank = a_log.shape, dt_proj.shape[0]

    def derived():
        # (W_x, W_z, A^T): slicing the weight, not the (B, L, 2*E*C)
        # activation, keeps x and z from being materialized together, and z
        # is formed only after the scan.  The backward forms them again
        # rather than keeping copies of them per call
        w_x, w_z = (np.ascontiguousarray(w) for w in np.split(w_in, [inner], axis=1))
        return w_x, w_z, np.ascontiguousarray(-np.exp(a_log).T)

    w_x, w_z, a_t = derived()

    def scan_inputs(xs):  # (dt_low, B, C) = split(x_proj(x'))
        return (np.ascontiguousarray(part)
                for part in np.split(np.matmul(xs, w_proj), [rank, rank + n], axis=2))

    def dt_pre(dt_low):  # delta's pre-activation, dt_proj(dt) + dt_bias
        return np.matmul(dt_low, dt_proj) + dt_bias

    pre = _causal_conv(np.matmul(xd, w_x), kernel) + conv_bias
    xs = pre * _sigmoid(pre)
    if not keep:  # the backward rebuilds x' from it: freed before the scan
        del pre
    dt_low, b_in, c_in = scan_inputs(xs)
    delta = _softplus(dt_pre(dt_low))
    del dt_low
    ys, starts, q = _scan_forward(delta, a_t, b_in, c_in, xs, keep)
    del xs, delta, b_in, c_in  # the backward recomputes them
    gate = np.matmul(xd, w_z)
    gate *= _sigmoid(gate)  # silu(z)
    out = np.matmul(ys * gate, w_out)

    def bwd(g, xd):
        nonlocal ys, pre, starts
        if ys is None:
            raise AutodiffError("mamba_block: backward ran already and let go of its arrays")
        w_x, w_z, a_t = derived()
        z = np.matmul(xd, w_z)
        s_z = _sigmoid(z)
        gate = z * s_z
        g_gated, g_out = _matmul_grads(g, ys * gate, w_out)
        del g
        gy = g_gated * gate
        del gate
        g_gated *= ys
        ys = None
        gx, g_wz = _matmul_grads(_silu_grad(g_gated, z, s_z, overwrite=True), xd, w_z)
        del z, g_gated, s_z
        xs = pre * _sigmoid(pre)
        dt_low, b_in, c_in = scan_inputs(xs)
        g_delta, g_a, g_b, g_c, g_u = _scan_grads(gy, _softplus(dt_pre(dt_low)), a_t, b_in,
                                                   c_in, xs, starts, q)
        del gy, b_in, c_in
        starts = None
        # dL/d(delta's pre-activation), formed again rather than held
        # across the scan gradient
        g_delta *= _sigmoid(dt_pre(dt_low))
        g_low, g_dt_proj = _matmul_grads(g_delta, dt_low, dt_proj)
        g_dt_bias = _unbroadcast(g_delta, dt_bias.shape)
        del g_delta, dt_low
        g_xs, g_proj = _matmul_grads(np.concatenate([g_low, g_b, g_c], axis=2), xs, w_proj)
        del xs
        g_u += g_xs
        del g_xs
        g_pre = _silu_grad(g_u, pre, _sigmoid(pre), overwrite=True)
        pre = None
        g_xr, g_kernel = _causal_conv_grads(g_pre, np.matmul(xd, w_x), kernel)
        g_conv_bias = _unbroadcast(g_pre, conv_bias.shape)
        del g_pre, g_u
        gx_x, g_wx = _matmul_grads(g_xr, xd, w_x)
        gx += gx_x
        return (gx, np.concatenate([g_wx, g_wz], axis=1), g_kernel, g_conv_bias, g_proj,
                g_dt_proj, g_dt_bias, -g_a * np.exp(a_log), g_out)

    return out, bwd


@dataclass
class BiBlockParams(Module):
    """Shared-weight bidirectional block plus its LN/FFN head.

    Both scan directions reuse the single ``mamba`` instance; the wrapper
    owns only normalization and feed-forward parameters.  ``scan_mode`` (one
    of ``SCAN_MODES``), fixed when the block is built, scans the input
    forward, scans its time reversal ("backward"), or sums both
    ("bidirectional").  A reversed scan's output is flipped back into input
    frame order, so that a "bidirectional" block commutes with time reversal.
    ``axis``, also fixed when the block is built, is the axis of the
    (batch, ., .) input that the block scans, 1 or 2; the other holds the
    channels.

    ``parameters()`` names the Mamba weights ``mamba/<field>``, then the
    head's eight by field, in the order ``_head`` takes them; ``scan_mode``
    and ``axis`` are settings, not weights.
    """

    mamba: MambaBlockParams
    ln_inner_gamma: Tensor
    ln_inner_beta: Tensor
    ln_outer_gamma: Tensor
    ln_outer_beta: Tensor
    ffn_w1: Tensor  # (C, 2C)
    ffn_b1: Tensor  # (2C,)
    ffn_w2: Tensor  # (2C, C)
    ffn_b2: Tensor  # (C,)
    scan_mode: str = "bidirectional"
    axis: int = 1


def init_bi_block(rng: np.random.Generator, channels: int, expand: int = 2,
                  state_dim: int = 16, conv_width: int = 4,
                  dt_rank: int | None = None, scan_mode: str = "bidirectional",
                  axis: int = 1) -> BiBlockParams:
    if scan_mode not in SCAN_MODES:
        raise ValueError(f"scan_mode must be one of {SCAN_MODES}, got {scan_mode!r}")
    if axis not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {axis!r}")
    mamba = init_mamba_block(rng, channels, expand, state_dim, conv_width, dt_rank)

    return BiBlockParams(
        mamba=mamba,
        ln_inner_gamma=Tensor(np.ones(channels), requires_grad=True),
        ln_inner_beta=Tensor(np.zeros(channels), requires_grad=True),
        ln_outer_gamma=Tensor(np.ones(channels), requires_grad=True),
        ln_outer_beta=Tensor(np.zeros(channels), requires_grad=True),
        ffn_w1=Tensor(_uniform(rng, channels, (channels, 2 * channels)), requires_grad=True),
        ffn_b1=Tensor(np.zeros(2 * channels), requires_grad=True),
        ffn_w2=Tensor(_uniform(rng, 2 * channels, (2 * channels, channels)), requires_grad=True),
        ffn_b2=Tensor(np.zeros(channels), requires_grad=True),
        scan_mode=scan_mode,
        axis=axis,
    )


def _scan_chunk_bytes(params: BiBlockParams, rows: int, length: int, dtype) -> int:
    """Bytes of each of the two (q, directions * rows, N, E*C) chunk buffers
    that the scan gradient of a recorded block call on ``rows`` rows of
    ``length`` steps of ``dtype`` holds, q = ceil(sqrt(3L)) steps long."""
    inner, n = params.mamba.A_log.shape
    steps = min(_chunk_steps(length), length)
    itemsize = np.result_type(dtype, params.mamba.A_log.data).itemsize
    return len(_REVERSED_ROWS[params.scan_mode]) * rows * steps * n * inner * itemsize


def bidirectional_forward(params: BiBlockParams, x: Tensor) -> Tensor:
    """Full block LN(LN(core) + FFN(LN(core))) over the channels, with core
    the directional scans plus x, as one tape op on (batch, ., .) x whose
    axis ``params.axis`` it scans; the module docstring says what a
    recorded call keeps."""
    channels = params.mamba.in_proj.shape[0]
    axis = params.axis
    if x.ndim != 3 or x.shape[3 - axis] != channels:
        want = "(batch, L, {})" if axis == 1 else "(batch, {}, L)"
        raise ShapeError(f"bidirectional_forward: expected {want.format(channels)}, "
                         f"got {x.shape}")

    def swap(a):  # x's layout <-> the block's (batch, L, C), as a view
        return a if axis == 1 else a.swapaxes(1, 2)

    reversed_rows = _REVERSED_ROWS[params.scan_mode]
    weights = params.parameters()
    head = [t.data for name, t in weights.items() if not name.startswith("mamba/")]
    # on axis 1, x once per gradient contribution: the engine adds repeated
    # inputs in order, the order in which the primitive composition adds
    # x's adjoints.  On axis 2 that composition adds them on its transposed
    # copy of x, so the backward sums them itself
    shares = 1 + len(reversed_rows) if axis == 1 else 1
    inputs = (x,) * shares + tuple(weights.values())
    keep = is_recording(inputs)
    xd = swap(x.data)
    bsz, length = xd.shape[:2]

    def block_rows(xr):
        """(output, core, the Mamba kernel's backward) over the rows xr."""
        n = xr.shape[0]
        y, mamba_bwd = _mamba_block(params.mamba, _stack(xr, reversed_rows), keep)
        parts = [y[i * n:(i + 1) * n, ::-1 if rev else 1] for i, rev in enumerate(reversed_rows)]
        core = (parts[0] + parts[1] if len(parts) == 2 else parts[0]) + xr
        del y, parts
        return _head(core, *head)[0], core, mamba_bwd

    # off the tape, tiles of rows whose stacked (rows, L, E*C) arrays hold
    # about _TILE_BYTES each, written into one output
    row_bytes = len(reversed_rows) * length * params.mamba.A_log.shape[0] * xd.itemsize
    rows = bsz if keep else max(1, _TILE_BYTES // max(1, row_bytes))
    if rows >= bsz:
        out, core, mamba_bwd = block_rows(xd)
        out = swap(out)
    else:
        out = np.empty_like(x.data)
        for lo in range(0, bsz, rows):
            swap(out)[lo:lo + rows] = block_rows(xd[lo:lo + rows])[0]
        core = mamba_bwd = None

    def bwd(g):
        nonlocal core, mamba_bwd
        if mamba_bwd is None:
            raise AutodiffError("bi_block: backward ran already and let go of its arrays")
        g_core, g_head = _head_grads(swap(g), core, head)
        core = None
        # the stacked gradient goes straight in, so that the kernel's
        # backward can let it go after its first use
        g_stack, *g_mamba = mamba_bwd(_stack(g_core, reversed_rows), _stack(xd, reversed_rows))
        mamba_bwd = None
        g_rows = [np.ascontiguousarray(g_stack[i * bsz:(i + 1) * bsz, ::-1 if rev else 1])
                  for i, rev in enumerate(reversed_rows)]
        if axis == 1:
            return (g_core, *g_rows, *g_mamba, *g_head)
        # (core + forward) + reversed, the composition's order
        return (swap(sum(g_rows, g_core)), *g_mamba, *g_head)

    return record("bi_block", inputs, out, bwd)


def _stack(xd: np.ndarray, reversed_rows) -> np.ndarray:
    """xd's rows, time-reversed where ``reversed_rows`` says, stacked on the
    batch axis in C order: a concatenation of a transposed view would keep
    its layout, and the kernel's GEMMs would round differently on it."""
    out = np.empty((len(reversed_rows) * xd.shape[0],) + xd.shape[1:], dtype=xd.dtype)
    return np.concatenate([xd[:, ::-1] if rev else xd for rev in reversed_rows], axis=0, out=out)


def _head(core, gamma_in, beta_in, gamma_out, beta_out, w1, b1, w2, b2):
    """LN(inner + FFN(inner)) with inner = LN(core), by the primitives' own
    operations: (output, the arrays ``_head_grads`` reads)."""
    inner, xhat_in, inv_in = _layernorm(core, gamma_in, beta_in)
    pre = np.matmul(inner, w1) + b1
    hidden = np.maximum(pre, 0.0)
    out, xhat_out, inv_out = _layernorm(inner + (np.matmul(hidden, w2) + b2),
                                        gamma_out, beta_out)
    return out, (inner, xhat_in, inv_in, pre, hidden, xhat_out, inv_out)


def _head_grads(g, core, head):
    """(dL/dcore, the head weights' gradients) of ``_head``, which it runs
    again from core."""
    gamma_in, _, gamma_out, _, w1, b1, w2, b2 = head
    inner, xhat_in, inv_in, pre, hidden, xhat_out, inv_out = _head(core, *head)[1]
    g_sum, g_gamma_out, g_beta_out = _layernorm_grads(g, xhat_out, inv_out, gamma_out)
    g_hidden, g_w2 = _matmul_grads(g_sum, hidden, w2)
    g_pre = _relu_grad(g_hidden, pre)
    g_inner, g_w1 = _matmul_grads(g_pre, inner, w1)
    # the residual's adjoint first, then the FFN's, as the tape adds them
    g_core, g_gamma_in, g_beta_in = _layernorm_grads(g_sum + g_inner, xhat_in, inv_in, gamma_in)
    return g_core, (g_gamma_in, g_beta_in, g_gamma_out, g_beta_out, g_w1,
                    _unbroadcast(g_pre, b1.shape), g_w2, _unbroadcast(g_sum, b2.shape))
