"""Oracles that the selective-SSM tests compare the production block against.

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
    xs = ad.silu(ad.add(ad.depthwise_causal_conv1d(ad.matmul(x, w_x), params.conv_kernel),
                        params.conv_bias))
    proj = ad.matmul(xs, params.x_proj)
    dt_low = ad.slice_axis(proj, axis=2, start=0, stop=rank)
    b_in = ad.slice_axis(proj, axis=2, start=rank, stop=rank + n)
    c_in = ad.slice_axis(proj, axis=2, start=rank + n, stop=rank + 2 * n)
    delta = ad.softplus(ad.add(ad.matmul(dt_low, params.dt_proj), params.dt_bias))
    a = ad.mul(ad.exp(params.A_log), ad.Tensor(-1.0, dtype=params.A_log.data.dtype))
    y = scan_op(delta, a, b_in, c_in, xs)
    return ad.matmul(ad.mul(y, ad.silu(ad.matmul(x, w_z))), params.out_proj)


def primitive_head(params, core):
    """The bidirectional block's LN(inner + FFN(inner)), inner = LN(core), as
    tape primitives."""
    inner = ad.layernorm_lastaxis(core, params.ln_inner_gamma, params.ln_inner_beta)
    hidden = ad.relu(ad.add(ad.matmul(inner, params.ffn_w1), params.ffn_b1))
    ffn_out = ad.add(ad.matmul(hidden, params.ffn_w2), params.ffn_b2)
    return ad.layernorm_lastaxis(ad.add(inner, ffn_out),
                                 params.ln_outer_gamma, params.ln_outer_beta)


def primitive_bi_block(params, x):
    """The bidirectional block as a chain of tape primitives around
    ``primitive_block``: the bit-for-bit oracle of the fused block."""
    # both directions run as one call on a (2B, L, C) stack of x and its
    # time reversal; their sum keeps the order (forward + reversed) + x
    reversed_rows = ssm._REVERSED_ROWS[params.scan_mode]
    stacked = ad.concat([ad.reverse_axis(x, 1) if rev else x for rev in reversed_rows], axis=0)
    y = primitive_block(params.mamba, stacked)
    bsz = x.shape[0]
    out = None
    for i, rev in enumerate(reversed_rows):
        part = ad.slice_axis(y, axis=0, start=i * bsz, stop=(i + 1) * bsz)
        if rev and params.flip_back:
            part = ad.reverse_axis(part, 1)
        out = part if out is None else ad.add(out, part)
    return primitive_head(params, ad.add(out, x))
