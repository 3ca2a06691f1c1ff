"""Oracles that the tests compare production against.

- The oracle primitives ``softplus``, ``silu``, ``relu``, ``reverse_axis``,
  ``layernorm_lastaxis``, ``depthwise_causal_conv1d`` and ``broadcast_to``
  (op ``"broadcast"``): tape ops that production no longer records, each the
  production kernel from ``autodiff`` recorded through ``ad.record``, so the
  oracle chains run production's arithmetic.  ``ORACLE_OPS`` maps each op
  name to its function.
- ``directional_derivative_check``: a gradient check along one random
  direction over many parameters at once, and the random shapes, values
  and objective (``rand_shape``, ``well_scaled``, ``spaced_values``,
  ``weighted_sum``) that the finite-difference cases are built from.
- ``selective_scan_reference``: the naive per-step recurrence, plain numpy.
- ``scan_op`` and ``mamba_op``: thin tape ops around the production scan
  kernels and the production Mamba kernel, so that tests can record and
  differentiate them on their own.
- ``primitive_block`` and ``primitive_bi_block``: the Mamba block and the
  bidirectional block as chains of tape primitives around ``scan_op``, the
  bit-for-bit oracles of ``ssm.bidirectional_forward``'s outputs and
  gradients.
"""

import functools

import numpy as np

from motionmoe import autodiff as ad
from motionmoe import ssm


def softplus(x):
    xd = x.data
    return ad.record("softplus", (x,), ad._softplus(xd), lambda g: (g * ad._sigmoid(xd),))


def silu(x):
    xd = x.data
    s = ad._sigmoid(xd)
    return ad.record("silu", (x,), xd * s, lambda g: (ad._silu_grad(g, xd, s),))


def relu(x):
    xd = x.data
    return ad.record("relu", (x,), np.maximum(xd, 0.0), lambda g: (ad._relu_grad(g, xd),))


def reverse_axis(x, axis):
    return ad.record("reverse_axis", (x,), np.flip(x.data, axis),
                     lambda g: (np.ascontiguousarray(np.flip(g, axis)),))


def layernorm_lastaxis(x, gamma, beta, eps=1e-5):
    out, xhat, inv = ad._layernorm(x.data, gamma.data, beta.data, eps)
    gd = gamma.data
    return ad.record("layernorm_lastaxis", (x, gamma, beta), out,
                     lambda g: ad._layernorm_grads(g, xhat, inv, gd))


def depthwise_causal_conv1d(x, kernel):
    xd, kd = x.data, kernel.data
    return ad.record("depthwise_causal_conv1d", (x, kernel), ad._causal_conv(xd, kd),
                     lambda g: ad._causal_conv_grads(g, xd, kd))


def broadcast_to(x, shape):
    shape_in = x.shape
    return ad.record("broadcast", (x,), np.broadcast_to(x.data, shape),
                     lambda g: (ad._unbroadcast(g, shape_in),))


ORACLE_OPS = {"softplus": softplus, "silu": silu, "relu": relu, "reverse_axis": reverse_axis,
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
    ``primitive_block``: the bit-for-bit oracle of the fused block."""
    # both directions run as one call on a (2B, L, C) stack of x and its
    # time reversal; their sum keeps the order (forward + reversed) + x
    reversed_rows = ssm._REVERSED_ROWS[params.scan_mode]
    stacked = ad.concat([reverse_axis(x, 1) if rev else x for rev in reversed_rows], axis=0)
    y = primitive_block(params.mamba, stacked)
    bsz = x.shape[0]
    out = None
    for i, rev in enumerate(reversed_rows):
        part = ad.slice_axis(y, axis=0, start=i * bsz, stop=(i + 1) * bsz)
        if rev and params.flip_back:
            part = reverse_axis(part, 1)
        out = part if out is None else ad.add(out, part)
    return primitive_head(params, ad.add(out, x))
