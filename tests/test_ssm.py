"""Selective-SSM tests: the scan kernel's discretization against a loop
oracle, the scan kernels against the naive recurrence and the unfused tape
composition, hand-computed rollouts, the Mamba kernel and the fused
bidirectional block against their primitive chains in ``oracles``, block
gradients, the reversal equivariance of the shared-weight bidirectional
block, and the block's elementwise and conv kernels against the forms they
replaced."""

import dataclasses
import inspect
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from motionmoe import autodiff as ad
from motionmoe import ssm
from oracles import (ORACLE_OPS, depthwise_causal_conv1d, mamba_op, primitive_bi_block,
                     primitive_block, primitive_head, reverse_axis, scan_op,
                     selective_scan_reference, silu, softplus)


def random_scan_inputs(rng, bsz, length, inner, n, grad=False):
    """Well-conditioned scan inputs: decay factors exp(delta x A) in (0.04, 1)."""
    delta = ad.Tensor(rng.uniform(0.05, 1.0, (bsz, length, inner)), requires_grad=grad)
    a = ad.Tensor(-rng.uniform(0.1, 3.0, (inner, n)), requires_grad=grad)
    b = ad.Tensor(rng.standard_normal((bsz, length, n)), requires_grad=grad)
    c = ad.Tensor(rng.standard_normal((bsz, length, n)), requires_grad=grad)
    u = ad.Tensor(rng.standard_normal((bsz, length, inner)), requires_grad=grad)
    return delta, a, b, c, u


def scan(delta, a, b, c, u):
    """The production scan kernel's output on plain arrays; a is (EC, N)."""
    return ssm._scan_forward(delta, np.ascontiguousarray(a.T), b, c, u, keep=False)[0]


def discretize(delta, a, b):
    """(A_bar, B_bar) = (exp(delta x A), delta x B) in plain numpy, the
    reference's inputs."""
    return np.exp(delta[..., None] * a), delta[..., None] * b[:, :, None, :]


def discretization_read_back(delta, a, b):
    """(A_bar, B_bar) of one time step, read back out of the scan kernel.

    delta: (EC,), a: (EC, N), b: (N,) -> two (EC, N) arrays.  Batch row j
    reads state j through a one-hot C, so every read is exact: B_bar from a
    unit input on a zero state, A_bar from the step after a unit state.
    """
    inner, n = a.shape

    def rows(x):
        return np.broadcast_to(x, (n,) + np.shape(x)).copy()

    onehot = np.eye(n)[:, None, :]
    b_bar = scan(rows(delta[None]), a, rows(b[None]), onehot, rows(np.ones((1, inner))))
    unit = np.stack([np.ones(inner), delta])
    a_bar = scan(rows(unit), a, np.ones((n, 2, n)), np.repeat(onehot, 2, axis=1),
                 rows(np.stack([np.ones(inner), np.zeros(inner)])))
    return a_bar[:, 1].T, b_bar[:, 0].T


def unfused_scan(delta, a, b, c, u):
    """The scan as separate tape primitives: 4-D exp(delta x A) and
    delta x B, then a per-step recurrence."""
    bsz, length, inner = delta.shape
    n = a.shape[1]
    d4 = ad.reshape(delta, (bsz, length, inner, 1))
    a_bar = ad.exp(ad.mul(d4, a))
    b_bar = ad.mul(d4, ad.reshape(b, (bsz, length, 1, n)))
    h, ys = None, []
    for i in range(length):
        def step(t):
            return ad.slice_axis(t, axis=1, start=i, stop=i + 1)

        drive = ad.mul(step(b_bar), ad.reshape(step(u), (bsz, 1, inner, 1)))
        h = drive if h is None else ad.add(ad.mul(step(a_bar), h), drive)
        ys.append(ad.reduce_sum(ad.mul(h, ad.reshape(step(c), (bsz, 1, 1, n))), axes=3))
    return ad.concat(ys, axis=1)


class TestDiscretize:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        bsz, length, inner, n = 2, 3, 4, 5
        delta = rng.uniform(0.01, 0.5, (bsz, length, inner))
        a = -rng.uniform(0.5, 3.0, (inner, n))
        b = rng.standard_normal((bsz, length, n))
        for s in range(bsz):
            for i in range(length):
                a_bar, b_bar = discretization_read_back(delta[s, i], a, b[s, i])
                for ec in range(inner):
                    for j in range(n):
                        expected_a = math.exp(delta[s, i, ec] * a[ec, j])
                        expected_b = delta[s, i, ec] * b[s, i, j]
                        assert a_bar[ec, j] == pytest.approx(expected_a, rel=1e-14)
                        assert b_bar[ec, j] == pytest.approx(expected_b, rel=1e-14)

    def test_decay_factors_in_unit_interval(self):
        rng = np.random.default_rng(1)
        delta = rng.uniform(0.001, 1.0, (4, 3))
        a = -rng.uniform(0.1, 5.0, (3, 6))
        b = rng.standard_normal((4, 6))
        for i in range(4):
            a_bar, _ = discretization_read_back(delta[i], a, b[i])
            assert np.all(a_bar > 0.0) and np.all(a_bar < 1.0)


def full_state_scan(dd, a_, bd, cd, ud, g):
    """The scan as it was before checkpointing, in plain numpy: it keeps all
    L hidden states and reads them back in its reverse recurrence.  Returns
    the output and the gradients of (delta, a, b, c, u) for output
    gradient g."""
    bsz, length, inner = dd.shape
    n = a_.shape[1]
    a_t = np.ascontiguousarray(a_.T)
    states = np.empty((length, bsz, n, inner), dtype=dd.dtype)
    ys = np.empty((bsz, length, inner), dtype=dd.dtype)
    h = np.zeros((bsz, n, inner), dtype=dd.dtype)
    step = np.empty_like(h)
    for i in range(length):
        np.exp(np.multiply(dd[:, i, None, :], a_t, out=step), out=step)
        h = np.multiply(step, h, out=states[i])
        h += np.multiply((dd[:, i] * ud[:, i])[:, None, :], bd[:, i, :, None], out=step)
        np.matmul(cd[:, i, None, :], h, out=ys[:, i, None, :])

    g_t, d_t, b_t, c_t, u_t = (np.ascontiguousarray(x.swapaxes(0, 1))
                               for x in (g, dd, bd, cd, ud))
    du_t = d_t * u_t
    gc = np.matmul(states, g_t[:, :, :, None])[:, :, :, 0]
    gb = np.empty_like(b_t)
    gdu = np.empty_like(du_t)
    gdelta = np.empty_like(du_t)
    gdelta[0] = 0.0
    ga_t = np.zeros_like(a_t)
    gh = np.zeros((bsz, n, inner), dtype=dd.dtype)
    for i in range(length - 1, -1, -1):
        gh += np.multiply(c_t[i, :, :, None], g_t[i, :, None, :], out=step)
        np.matmul(b_t[i, :, None, :], gh, out=gdu[i, :, None, :])
        np.matmul(gh, du_t[i, :, :, None], out=gb[i, :, :, None])
        if i:
            gh *= np.exp(np.multiply(d_t[i, :, None, :], a_t, out=step), out=step)
            s = np.multiply(gh, states[i - 1], out=step)
            np.einsum("bnc,nc->bc", s, a_t, out=gdelta[i])
            ga_t += np.einsum("bnc,bc->nc", s, d_t[i])
    gdelta += gdu * u_t
    grads = [np.ascontiguousarray(x.swapaxes(0, 1)) for x in (gdelta, gb, gc, gdu * d_t)]
    return ys, (grads[0], ga_t.T, grads[1], grads[2], grads[3])


class TestSelectiveScan:
    def test_single_step(self):
        rng = np.random.default_rng(2)
        delta, a, b, c, u = (t.data for t in random_scan_inputs(rng, 2, 1, 3, 4))
        out = scan(delta, a, b, c, u)
        # h_1 = (delta_1 u_1) x B_1, so y_1 = delta_1 u_1 sum_n C_1 B_1
        expected = delta[:, 0] * u[:, 0] * np.einsum("bn,bn->b", b[:, 0], c[:, 0])[:, None]
        np.testing.assert_allclose(out[:, 0], expected, atol=1e-14)

    def test_two_step_hand_values(self):
        # exp(delta_2 A) = [0.4, 0.1]; delta_i B_i = [1, 2] then [0.5, 1]
        delta = np.array([0.5, 0.5]).reshape(1, 2, 1)
        a = 2.0 * np.log([[0.4, 0.1]])
        b = np.array([2.0, 4.0, 1.0, 2.0]).reshape(1, 2, 2)
        c = np.array([1.0, -1.0, 0.5, 1.0]).reshape(1, 2, 2)
        u = np.array([1.0, 2.0]).reshape(1, 2, 1)
        out = scan(delta, a, b, c, u)
        # h1 = [1, 2], y1 = 1 - 2 = -1; h2 = [1.4, 2.2], y2 = 0.7 + 2.2 = 2.9
        np.testing.assert_allclose(out.ravel(), [-1.0, 2.9], atol=1e-15)

    @pytest.mark.parametrize("seed", range(20))
    def test_fused_matches_naive_recurrence(self, seed):
        rng = np.random.default_rng(seed)
        bsz = int(rng.integers(1, 4))
        length = int(rng.integers(1, 33))
        inner = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        delta, a, b, c, u = (t.data for t in random_scan_inputs(rng, bsz, length, inner, n))
        fused = scan(delta, a, b, c, u)
        naive = selective_scan_reference(*discretize(delta, a, b), c, u)
        assert np.abs(fused - naive).max() <= 1e-6 * (1.0 + np.abs(naive).max())

    @pytest.mark.parametrize("seed", range(20))
    def test_float32_matches_naive_recurrence(self, seed):
        # the oracle runs in float64 on the same float32 values; the bound is
        # 32 float32 epsilons of the output scale (measured: about 1)
        rng = np.random.default_rng(seed)
        bsz = int(rng.integers(1, 4))
        length = int(rng.integers(1, 33))
        inner = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        inputs = [t.data.astype(np.float32)
                  for t in random_scan_inputs(rng, bsz, length, inner, n)]
        fused = scan(*inputs)
        assert fused.dtype == np.float32
        delta, a, b, c, u = (t.astype(np.float64) for t in inputs)
        naive = selective_scan_reference(*discretize(delta, a, b), c, u)
        bound = 32 * np.finfo(np.float32).eps * (1.0 + np.abs(naive).max())
        assert np.abs(fused - naive).max() <= bound

    def test_matches_unfused_composition(self):
        rng = np.random.default_rng(7)
        inputs = random_scan_inputs(rng, 3, 11, 5, 4, grad=True)
        w = ad.Tensor(rng.uniform(0.5, 1.5, (3, 11, 5)))
        results = []
        for scan_fn in (scan_op, unfused_scan):
            for t in inputs:
                t.zero_grad()
            with ad.Tape():
                out = scan_fn(*inputs)
                ad.backward(ad.reduce_sum(ad.mul(out, w)))
            results.append([out.data] + [t.grad for t in inputs])
        for name, fused, unfused in zip(("y", "delta", "a", "b", "c", "u"), *results):
            assert fused.shape == unfused.shape, name
            err = np.abs(fused - unfused).max() / np.abs(unfused).max()
            assert err <= 1e-12, f"{name}: {err:.3e}"

    # L = 5: chunks of 3 and 2 steps; L = 3^2 + 1: chunks of 4, 4 and 2
    @pytest.mark.parametrize("length", [5, 10])
    def test_backward_against_finite_differences(self, length):
        rng = np.random.default_rng(3)
        inputs = random_scan_inputs(rng, 2, length, 3, 4, grad=True)
        w = rng.uniform(0.5, 1.5, (2, length, 3))

        def make(position):
            def f(t):
                args = list(inputs)
                args[position] = t
                return ad.reduce_sum(ad.mul(scan_op(*args), ad.Tensor(w)))
            return f

        for position, name in enumerate(("delta", "a", "b", "c", "u")):
            err = ad.finite_difference_check(make(position), inputs[position])
            assert err < 1e-6, f"{name}: {err:.3e}"

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("length", [1, 2, 3, 9, 10, 17, 45, 75])
    def test_checkpoints_match_the_full_state_scan_bit_for_bit(self, length, dtype):
        # the chunks recompute every state and factor by the same operations
        # as a scan that keeps them all, so nothing may move by even an ulp
        rng = np.random.default_rng(length)
        inputs = [ad.Tensor(t.data.astype(dtype), requires_grad=True)
                  for t in random_scan_inputs(rng, 3, length, 6, 5)]
        g = rng.standard_normal((3, length, 6)).astype(dtype)
        with ad.Tape() as tape:
            out = scan_op(*inputs)
        grads = tape.nodes[-1].backward(g)
        want_y, want_grads = full_state_scan(*(t.data for t in inputs), g)
        assert out.data.tobytes() == want_y.tobytes()
        assert scan(*(t.data for t in inputs)).tobytes() == want_y.tobytes()
        for name, got, want in zip(("delta", "a", "b", "c", "u"), grads, want_grads):
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert np.array_equal(got, want), name

    def test_a_recorded_call_keeps_one_state_per_chunk(self):
        # L = 64 steps in chunks of q = ceil(sqrt(3 * 64)) = 14: a recorded
        # call keeps the starts of chunks 1 to 4, 4 states beside its
        # output, not 64 (chunk 0 starts from h_0 = 0; 7 states at
        # q = ceil(sqrt(L)) = 8); a tape-free call keeps its output only
        bsz, length, inner, n = 2, 64, 16, 32
        inputs = random_scan_inputs(np.random.default_rng(6), bsz, length, inner, n, grad=True)
        state = bsz * n * inner * 8
        ys = bsz * length * inner * 8

        def kept_bytes(record):
            tracemalloc.start()
            try:
                if record:
                    with ad.Tape() as tape:
                        out = scan_op(*inputs)
                else:
                    out = scan_op(*inputs)
                assert out.shape == (bsz, length, inner)  # held while measured
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        assert ssm._chunk_steps(length) == 14
        assert 4 * state <= kept_bytes(record=True) < 4 * state + ys + 16 * 1024
        assert kept_bytes(record=False) < ys + 16 * 1024

    def test_recorded_backward_peaks_below_the_states(self):
        # the backward holds two chunks' worth of (B, N, EC) arrays, 2q = 36
        # states at q = ceil(sqrt(3 * 100)) = 18, beside (B, L, EC) and
        # (B, L, N) arrays; never all L states (measured: 2q states and 7.0
        # sequence arrays, 0.58 of the L states; at q = ceil(sqrt(L)) = 10,
        # 2q states and 6.5 sequence arrays, 0.40 of them)
        bsz, length, inner, n = 2, 100, 32, 32
        inputs = random_scan_inputs(np.random.default_rng(11), bsz, length, inner, n,
                                    grad=True)
        state = bsz * n * inner * 8
        sequence = bsz * length * inner * 8
        g = np.random.default_rng(12).standard_normal((bsz, length, inner))
        with ad.Tape() as tape:
            scan_op(*inputs)
        tracemalloc.start()
        try:
            tape.nodes[-1].backward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ssm._chunk_steps(length) == 18
        assert peak < 2 * 18 * state + 12 * sequence
        assert 2 * 18 * state + 12 * sequence < 0.75 * length * state

    def test_scan_gradient_overwrites_its_handed_over_buffers(self):
        # beyond 2q chunk states, the gradient holds the copies of g and
        # delta that it overwrites with dL/du and dL/d(delta), dL/db, dL/dc,
        # b step-major, four chunk-long (q, B, EC) arrays and two step states
        # (measured at q = 18: 2q states, the four chunk arrays and 6.3
        # sequence arrays; at q = 10 the same 6.3, where full-length
        # step-major copies of g, delta and delta * u took 10.0)
        bsz, length, inner, n = 2, 100, 32, 32
        inputs = random_scan_inputs(np.random.default_rng(11), bsz, length, inner, n,
                                    grad=True)
        state = bsz * n * inner * 8
        sequence = bsz * length * inner * 8
        g = np.random.default_rng(12).standard_normal((bsz, length, inner))
        with ad.Tape() as tape:
            scan_op(*inputs)
        tracemalloc.start()
        try:
            tape.nodes[-1].backward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        q = ssm._chunk_steps(length)
        assert peak < 2 * q * state + 4 * q * bsz * inner * 8 + 6.5 * sequence

    def test_tape_free_call_holds_no_sequence_sized_temporary(self):
        # beyond ys, a tape-free call holds only (B, N, EC) step arrays:
        # delta_i u_i is formed one step at a time
        bsz, length, inner, n = 2, 400, 64, 4
        inputs = [t.data for t in random_scan_inputs(np.random.default_rng(8), bsz, length,
                                                     inner, n)]
        ys_bytes = bsz * length * inner * 8
        scan(*inputs)
        tracemalloc.start()
        try:
            scan(*inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ys_bytes + 8 * bsz * inner * n * 8 + 64 * 1024

    def test_long_rollout_stays_finite(self):
        rng = np.random.default_rng(4)
        out = scan(*[t.data for t in random_scan_inputs(rng, 1, 10_000, 4, 4)])
        assert np.isfinite(out).all()
        assert np.abs(out).max() < 1e3


def block_in(dtype, seed=0, length=11, conv_width=3):
    """Small block weights and an input, all in ``dtype``."""
    params = ssm.init_mamba_block(np.random.default_rng(seed), channels=5, expand=2,
                                  state_dim=3, conv_width=conv_width, dt_rank=2)
    for p in params.parameters().values():
        p.data = p.data.astype(dtype)
    x = np.random.default_rng(seed + 1).standard_normal((3, length, 5)).astype(dtype)
    return params, x


class TestMambaBlock:
    def test_output_shape(self):
        params = ssm.init_mamba_block(np.random.default_rng(0), channels=6,
                                      expand=2, state_dim=4, conv_width=3)
        x = ad.Tensor(np.random.default_rng(1).standard_normal((2, 7, 6)))
        assert mamba_op(params, x).shape == (2, 7, 6)

    def test_init_step_sizes_span_configured_range(self):
        params = ssm.init_mamba_block(np.random.default_rng(0), channels=32)
        dt = np.logaddexp(0.0, params.dt_bias.data)  # softplus
        assert dt.min() >= 0.001 - 1e-12 and dt.max() <= 0.1 + 1e-12

    def test_init_state_matrix_is_log_range(self):
        params = ssm.init_mamba_block(np.random.default_rng(0), channels=4,
                                      expand=2, state_dim=5)
        expected = np.log(np.tile(np.arange(1.0, 6.0), (8, 1)))
        np.testing.assert_array_equal(params.A_log.data, expected)
        np.testing.assert_array_equal(params.conv_bias.data, np.zeros(8))

    def test_default_rank_scales_with_channels(self):
        assert ssm.default_dt_rank(1) == 1
        assert ssm.default_dt_rank(16) == 1
        assert ssm.default_dt_rank(17) == 2
        assert ssm.default_dt_rank(45) == 3
        assert ssm.default_dt_rank(75) == 5

    def test_zero_input_projection_silences_block(self):
        params = ssm.init_mamba_block(np.random.default_rng(0), channels=5)
        params.in_proj.data[:] = 0.0
        x = ad.Tensor(np.random.default_rng(1).standard_normal((2, 6, 5)))
        out = mamba_op(params, x)
        # the gate path z is zero, and silu(0) = 0 annihilates the scan output
        np.testing.assert_array_equal(out.data, np.zeros((2, 6, 5)))

    def test_tape_holds_no_4d_node_outputs(self):
        params = ssm.init_mamba_block(np.random.default_rng(0), channels=6,
                                      expand=2, state_dim=4, conv_width=3)
        x = ad.Tensor(np.random.default_rng(1).standard_normal((2, 7, 6)), requires_grad=True)
        with ad.Tape() as tape:
            mamba_op(params, x)
        assert [node.op for node in tape.nodes] == ["mamba_block"]
        assert [node.op for node in tape.nodes if node.output.ndim >= 4] == []

    def test_matches_activation_split_composition(self):
        # the block slices in_proj's weight into its x and z halves; slicing
        # the (B, L, 2*E*C) activation instead must give the same values
        params = ssm.init_mamba_block(np.random.default_rng(7), channels=5,
                                      expand=2, state_dim=3, conv_width=3, dt_rank=2)
        rng = np.random.default_rng(8)
        x_data = rng.standard_normal((3, 6, 5))
        w = ad.Tensor(rng.standard_normal((3, 6, 5)))

        def split_activation(x):
            inner, rank, n = 10, 2, 3
            xz = ad.matmul(x, params.in_proj)
            xr = ad.slice_axis(xz, axis=2, start=0, stop=inner)
            z = ad.slice_axis(xz, axis=2, start=inner, stop=2 * inner)
            xs = silu(ad.add(depthwise_causal_conv1d(xr, params.conv_kernel),
                             params.conv_bias))
            proj = ad.matmul(xs, params.x_proj)
            delta = softplus(ad.add(ad.matmul(ad.slice_axis(proj, 2, 0, rank),
                                              params.dt_proj), params.dt_bias))
            y = scan_op(delta, ad.mul(ad.exp(params.A_log), ad.Tensor(-1.0)),
                        ad.slice_axis(proj, 2, rank, rank + n),
                        ad.slice_axis(proj, 2, rank + n, rank + 2 * n), xs)
            return ad.matmul(ad.mul(y, silu(z)), params.out_proj)

        def run(block):
            for p in params.parameters().values():
                p.zero_grad()
            x = ad.Tensor(x_data, requires_grad=True)
            with ad.Tape():
                out = block(x)
                grads = ad.backward(ad.reduce_sum(ad.mul(out, w)))
            return out.data, [grads[p].data for p in (x, *params.parameters().values())]

        out, grads = run(lambda x: mamba_op(params, x))
        ref_out, ref_grads = run(split_activation)
        assert np.abs(out - ref_out).max() <= 1e-12 * np.abs(ref_out).max()
        for g, ref in zip(grads, ref_grads):
            assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_gradients_against_finite_differences(self):
        params = ssm.init_mamba_block(np.random.default_rng(5), channels=4,
                                      expand=2, state_dim=3, conv_width=2, dt_rank=2)
        rng = np.random.default_rng(6)
        x = ad.Tensor(rng.standard_normal((2, 5, 4)), requires_grad=True)
        w = rng.uniform(0.5, 1.5, (2, 5, 4))

        def f(t):
            return ad.reduce_sum(ad.mul(mamba_op(params, t), ad.Tensor(w)))

        assert ad.finite_difference_check(f, x) < 1e-4
        with ad.Tape():
            grads = ad.backward(f(x))
        for name, p in params.parameters().items():
            assert p in grads and np.isfinite(grads[p].data).all(), name

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("case", ["one call", "two calls", "tape-free"])
    def test_one_op_matches_the_primitive_composition_bit_for_bit(self, dtype, case):
        # the Mamba kernel and its backward repeat the primitives'
        # operations, so the output and all 9 gradients agree to the bit; two
        # calls on one weight set also sum the weights' gradients in the
        # same order
        params, x_data = block_in(dtype)
        rng = np.random.default_rng(2)
        xs = [x_data, rng.standard_normal(x_data.shape).astype(dtype)]
        ws = [ad.Tensor(rng.standard_normal(x_data.shape), dtype=dtype) for _ in xs]
        calls = 2 if case == "two calls" else 1

        def run(block):
            if case == "tape-free":
                return [block(params, ad.Tensor(xs[0], dtype=dtype)).data], []
            for p in params.parameters().values():
                p.zero_grad()
            inputs = [ad.Tensor(x, requires_grad=True, dtype=dtype) for x in xs[:calls]]
            with ad.Tape():
                outs = [block(params, x) for x in inputs]
                loss = ad.reduce_sum(ad.mul(outs[0], ws[0]))
                if calls == 2:
                    loss = ad.add(loss, ad.reduce_sum(ad.mul(outs[1], ws[1])))
                grads = ad.backward(loss)
            return ([out.data for out in outs],
                    [grads[t].data for t in (*inputs, *params.parameters().values())])

        outs, grads = run(mamba_op)
        want_outs, want_grads = run(primitive_block)
        assert len(grads) == (0 if case == "tape-free" else calls + 8)
        for got, want in zip(outs + grads, want_outs + want_grads):
            assert got.dtype == want.dtype == dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("length", [1, 2, 9])
    def test_one_op_against_finite_differences(self, length):
        # L = 1, L below the conv's width 3, and L = 9 in three chunks of 3:
        # x and every weight, within criterion 01's composite tolerance
        # (measured worst: 1.6e-7, A_log at L = 9)
        params, x_data = block_in(np.float64, seed=3, length=length)
        w = ad.Tensor(np.random.default_rng(4).uniform(0.5, 1.5, x_data.shape))
        x = ad.Tensor(x_data, requires_grad=True)
        errors = {"x": ad.finite_difference_check(
            lambda t: ad.reduce_sum(ad.mul(mamba_op(params, t), w)), x)}
        for name, p in params.parameters().items():
            def f(t, name=name):
                block = dataclasses.replace(params, **{name: t})
                return ad.reduce_sum(ad.mul(mamba_op(block, x), w))
            errors[name] = ad.finite_difference_check(f, p)
        worst = max(errors, key=errors.get)
        assert errors[worst] < 1e-4, f"L = {length}: worst {worst} {errors[worst]:.3e}"

    def test_a_recorded_call_keeps_under_five_units(self):
        # units of B*L*E*C values: y, the conv's pre-activation, the 2.1
        # units of chunk-start states and the output (measured: 4.85; 7.86
        # while it also kept the conv's sigmoid, delta's pre-activation and
        # silu(z)'s sigmoid; 16.8 for ``primitive_block``)
        bsz, length, channels = 8, 60, 40
        params = ssm.init_mamba_block(np.random.default_rng(9), channels=channels)
        x = ad.Tensor(np.random.default_rng(10).standard_normal((bsz, length, channels)),
                      requires_grad=True)
        unit = bsz * length * params.A_log.shape[0] * 8
        tracemalloc.start()
        try:
            with ad.Tape() as tape:
                mamba_op(params, x)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(tape.nodes) == 1
        assert kept <= 5 * unit, f"{kept / unit:.2f} units"

    def test_a_second_backward_raises_a_typed_error(self):
        # the first backward lets go of the arrays the call kept
        params, x_data = block_in(np.float64)
        x = ad.Tensor(x_data, requires_grad=True)
        with ad.Tape() as tape:
            out = mamba_op(params, x)
        (node,) = tape.nodes
        g = np.ones(out.shape)
        assert len(node.backward(g)) == 9
        with pytest.raises(ad.AutodiffError, match="mamba_block"):
            node.backward(g)


def bi_block_in(dtype, scan_mode="bidirectional", seed=0, length=7, channels=5):
    """Small block weights, the head's drawn away from ones and zeros, and an
    input, all in ``dtype``."""
    params = ssm.init_bi_block(np.random.default_rng(seed), channels=channels, expand=2,
                               state_dim=3, conv_width=3, dt_rank=2, scan_mode=scan_mode)
    rng = np.random.default_rng(seed + 1)
    for name, p in params.parameters().items():
        if name.startswith(("ln_", "ffn_b")):
            p.data = p.data + rng.uniform(-0.5, 0.5, p.shape)
        p.data = p.data.astype(dtype)
    x = rng.standard_normal((3, length, channels)).astype(dtype)
    return params, x


def with_weight(params, name, t):
    """``params`` with the weight ``name`` (as ``parameters()`` names it) set to t."""
    if name.startswith("mamba/"):
        mamba = dataclasses.replace(params.mamba, **{name[len("mamba/"):]: t})
        return dataclasses.replace(params, mamba=mamba)
    return dataclasses.replace(params, **{name: t})


def assert_block_matches_its_primitive_composition(params, x_data, record):
    """The fused block's output, and recorded its loss and gradients, have
    the bits of ``primitive_bi_block``'s.  The block's input also feeds an
    op recorded after the block, as in the model: x's adjoint then already
    holds that op's share when the block adds its own, and the sum must
    associate as the oracle's."""
    dtype = x_data.dtype
    rng = np.random.default_rng(2)
    w, v = (ad.Tensor(rng.standard_normal(x_data.shape), dtype=dtype) for _ in range(2))

    def run(block):
        """(the op names the block records, output arrays, gradients)"""
        if not record:
            return [], [block(params, ad.Tensor(x_data, dtype=dtype)).data], []
        for p in params.parameters().values():
            p.zero_grad()
        x0 = ad.Tensor(x_data, requires_grad=True, dtype=dtype)
        with ad.Tape() as tape:
            x = ad.mul(x0, ad.Tensor(1.5, dtype=dtype))
            out = block(params, x)
            loss = ad.add(ad.reduce_sum(ad.mul(out, w)), ad.reduce_sum(ad.mul(x, v)))
            grads = ad.backward(loss)
        ops = [node.op for node in tape.nodes if node.op in ("bi_block", "mamba_block")]
        return ops, [out.data, loss.data], [grads[t].data for t in
                                            (x0, *params.parameters().values())]

    ops, outs, grads = run(ssm.bidirectional_forward)
    want_ops, want_outs, want_grads = run(primitive_bi_block)
    if record:
        assert (ops, want_ops) == (["bi_block"], [])
        assert len(grads) == 17
    for got, want in zip(outs + grads, want_outs + want_grads):
        assert got.dtype == want.dtype == dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestFusedBiBlock:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("scan_mode", ssm.SCAN_MODES)
    @pytest.mark.parametrize("record", [True, False])
    def test_matches_the_primitive_composition_bit_for_bit(self, dtype, scan_mode, record):
        assert_block_matches_its_primitive_composition(*bi_block_in(dtype, scan_mode), record)

    @pytest.mark.parametrize("scan_mode", ["bidirectional", "backward"])
    def test_against_finite_differences(self, scan_mode):
        # x and all 16 weights, within criterion 01's composite tolerance
        # (measured worst: 9.2e-6, A_log with the reversed scan alone).  At
        # init the Mamba branch is small beside the residual, and its weights'
        # gradients, down to 2e-10, sit under the difference quotient's
        # rounding noise on an O(1) output; larger steps, output and input
        # weights lift them clear of it
        params, x_data = bi_block_in(np.float64, scan_mode, seed=3, length=5, channels=4)
        mamba = params.mamba
        dt = np.random.default_rng(7).uniform(0.3, 1.0, mamba.dt_bias.shape)
        mamba.dt_bias.data[:] = np.log(np.expm1(dt))  # softplus(dt_bias) == dt
        mamba.out_proj.data *= 4.0
        mamba.in_proj.data *= 2.0
        w = ad.Tensor(np.random.default_rng(4).uniform(0.5, 1.5, x_data.shape))
        x = ad.Tensor(x_data, requires_grad=True)
        errors = {"x": ad.finite_difference_check(
            lambda t: ad.reduce_sum(ad.mul(ssm.bidirectional_forward(params, t), w)), x)}
        for name, p in params.parameters().items():
            def f(t, name=name):
                block = with_weight(params, name, t)
                return ad.reduce_sum(ad.mul(ssm.bidirectional_forward(block, x), w))
            errors[name] = ad.finite_difference_check(f, p)
        assert len(errors) == 17
        worst = max(errors, key=errors.get)
        assert errors[worst] < 1e-4, f"worst {worst} {errors[worst]:.3e}"

    def test_a_recorded_call_keeps_the_mamba_arrays_plus_the_residual_sum(self):
        # a recorded call keeps what the Mamba op keeps on a pre-built
        # stacked input, with the residual sum core and the block's output
        # in place of the Mamba output; in units of B*L*C values, measured:
        # 0.02 less (68 more for ``primitive_bi_block``, which records the
        # Mamba block as primitives)
        bsz, length, channels = 8, 45, 30
        params = ssm.init_bi_block(np.random.default_rng(9), channels=channels)
        rng = np.random.default_rng(10)
        x = ad.Tensor(rng.standard_normal((bsz, length, channels)), requires_grad=True)
        stacked = ad.Tensor(rng.standard_normal((2 * bsz, length, channels)),
                            requires_grad=True)
        unit = bsz * length * channels * 8

        def kept(call):
            tracemalloc.start()
            try:
                with ad.Tape() as tape:
                    call()
                return tracemalloc.get_traced_memory()[0], [node.op for node in tape.nodes]
            finally:
                tracemalloc.stop()

        mamba, mamba_ops = kept(lambda: mamba_op(params.mamba, stacked))
        block, block_ops = kept(lambda: ssm.bidirectional_forward(params, x))
        assert (mamba_ops, block_ops) == (["mamba_block"], ["bi_block"])
        assert block <= mamba + 1.5 * unit, f"{(block - mamba) / unit:.2f} units more"

    def test_a_recorded_call_and_its_backward_peak_under_twenty_units(self):
        # units of 2B*L*E*C values, the stacked rows' (B, L, E*C) arrays.
        # The call keeps y, the conv's pre-activation, the chunk-start
        # states and core.  The backward peaks in the scan gradient, which
        # holds, beside those but y, the output gradient, x' and delta,
        # which the scan's gradients overwrite, and 2q chunk states (8.5
        # units at L = 45, q = ceil(sqrt(3 * 45)) = 12).  Measured: 3.58
        # kept (3 chunk starts) and an 18.94 peak; 4.75 and 15.96 at
        # q = ceil(sqrt(L)) = 7 (6 chunk starts, 5.0 units of chunk
        # states), where a full-pool step held six calls' chunk starts at
        # its peak; 8.11 and 18.32 while the call also kept the conv's
        # sigmoid, delta's pre-activation and silu(z)'s sigmoid; 17.32 with
        # the conv's sigmoid formed once in the backward and held across
        # the scan gradient
        bsz, length, channels = 8, 45, 30
        params = ssm.init_bi_block(np.random.default_rng(9), channels=channels)
        x = ad.Tensor(np.random.default_rng(10).standard_normal((bsz, length, channels)),
                      requires_grad=True)
        g = np.random.default_rng(11).standard_normal(x.shape)
        unit = 2 * bsz * length * params.mamba.A_log.shape[0] * 8
        tracemalloc.start()
        try:
            with ad.Tape() as tape:
                ssm.bidirectional_forward(params, x)
            kept = tracemalloc.get_traced_memory()[0]
            (node,) = tape.nodes
            node.backward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kept <= 4 * unit, f"{kept / unit:.2f} units kept"
        assert peak <= 19.5 * unit, f"{peak / unit:.2f} units at the peak"

    def test_a_second_backward_raises_a_typed_error(self):
        # the block's own guard: its closure, captured before a backward
        # releases the node, lets go of its arrays on the first call
        params, x_data = bi_block_in(np.float64)
        x = ad.Tensor(x_data, requires_grad=True)
        with ad.Tape() as tape:
            out = ssm.bidirectional_forward(params, x)
        (node,) = tape.nodes
        closure, g = node.backward, np.ones(out.shape)
        assert len(closure(g)) == 19
        with pytest.raises(ad.AutodiffError, match="bi_block"):
            closure(g)

    def test_a_recorded_call_runs_its_kernel_on_the_callers_tape(self, monkeypatch):
        # one node on the active tape, and no other tape entered around the
        # Mamba kernel while the block records
        params, x_data = bi_block_in(np.float64)
        seen = []
        original = ssm._mamba_block

        def checking(mamba, xd, keep):
            seen.append((ad.active_tape(), keep))
            return original(mamba, xd, keep)

        monkeypatch.setattr(ssm, "_mamba_block", checking)
        with ad.Tape() as tape:
            ssm.bidirectional_forward(params, ad.Tensor(x_data, requires_grad=True))
        assert seen == [(tape, True)]
        assert [node.op for node in tape.nodes] == ["bi_block"]


def test_the_public_callables_are_the_production_set():
    # the test-only entry points live in ``oracles``
    public = {name for name, value in vars(ssm).items()
              if inspect.isfunction(value) and value.__module__ == ssm.__name__
              and not name.startswith("_")}
    assert public == {"init_mamba_block", "init_bi_block", "bidirectional_forward",
                      "default_dt_rank"}


def tile_budget(params, rows, length, dtype):
    """A ``_TILE_BYTES`` that makes tiles of ``rows`` rows at ``length``."""
    directions = len(ssm._REVERSED_ROWS[params.scan_mode])
    return rows * directions * length * params.mamba.A_log.shape[0] * np.dtype(dtype).itemsize


def kernel_rows(monkeypatch):
    """The list that each later call of the Mamba kernel appends its row count to."""
    calls = []
    original = ssm._mamba_block

    def counting(mamba, xd, keep):
        calls.append(xd.shape[0])
        return original(mamba, xd, keep)

    monkeypatch.setattr(ssm, "_mamba_block", counting)
    return calls


class TestScanAxis:
    """A block built with axis 2 scans the last axis of its (batch, C, L)
    input, as the primitive composition transpose -> block -> transpose."""

    @staticmethod
    def axis_2_block_in(dtype, scan_mode="bidirectional"):
        params, x = bi_block_in(dtype, scan_mode)
        return dataclasses.replace(params, axis=2), np.ascontiguousarray(x.swapaxes(1, 2))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("scan_mode", ssm.SCAN_MODES)
    @pytest.mark.parametrize("record", [True, False])
    def test_an_axis_2_block_matches_its_transposed_composition_bit_for_bit(
            self, dtype, scan_mode, record):
        # recorded, one op, whose x's adjoint is the composition's one sum
        # of its shares on the transposed copy, (core + forward) + reversed
        assert_block_matches_its_primitive_composition(*self.axis_2_block_in(dtype, scan_mode),
                                                       record)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_axis_2_tiles_match_the_primitive_composition(self, dtype, monkeypatch):
        # each tile reads its rows through a swapped view of x and writes
        # them through one of the output
        params, _ = self.axis_2_block_in(dtype)
        x = ad.Tensor(np.random.default_rng(5).standard_normal((7, 5, 7)), dtype=dtype)
        want = primitive_bi_block(params, x).data
        calls = kernel_rows(monkeypatch)
        monkeypatch.setattr(ssm, "_TILE_BYTES", tile_budget(params, 3, 7, dtype))
        out = ssm.bidirectional_forward(params, x).data
        assert calls == [6, 6, 2]
        assert out.dtype == dtype and out.flags.c_contiguous
        assert out.tobytes() == want.tobytes()

    def test_the_stack_of_a_transposed_view_is_in_c_order(self):
        # np.concatenate would keep the view's layout, and the Mamba
        # kernel's GEMMs round by layout
        xd = np.arange(2 * 5 * 4, dtype=np.float64).reshape(2, 5, 4).swapaxes(1, 2)
        stacked = ssm._stack(xd, (False, True))
        assert stacked.flags.c_contiguous
        assert np.array_equal(stacked, np.concatenate([xd, xd[:, ::-1]]))

    def test_the_channels_must_sit_on_the_other_axis(self):
        params, x_data = self.axis_2_block_in(np.float64)
        with pytest.raises(ad.ShapeError, match=r"expected \(batch, 5, L\)"):
            ssm.bidirectional_forward(params, ad.Tensor(x_data.swapaxes(1, 2)))

    @pytest.mark.parametrize("axis", [0, 3, -1])
    def test_an_axis_other_than_1_or_2_raises(self, axis):
        with pytest.raises(ValueError, match="axis must be 1 or 2"):
            ssm.init_bi_block(np.random.default_rng(0), channels=3, axis=axis)


class TestRowTiles:
    # (batch, rows per tile): batch 1, exact multiples, and remainders
    TILINGS = [(1, 1), (6, 1), (6, 2), (6, 3), (7, 2), (7, 3), (7, 5), (7, 6)]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("scan_mode", ssm.SCAN_MODES)
    def test_tiles_match_the_untiled_call_and_the_primitive_composition(
            self, dtype, scan_mode, monkeypatch):
        params, _ = bi_block_in(dtype, scan_mode, length=9)
        x = ad.Tensor(np.random.default_rng(5).standard_normal((7, 9, 5)), dtype=dtype)
        want = primitive_bi_block(params, x).data
        calls = kernel_rows(monkeypatch)
        monkeypatch.setattr(ssm, "_TILE_BYTES", 1 << 40)
        untiled = ssm.bidirectional_forward(params, x).data
        assert untiled.tobytes() == want.tobytes()
        directions = len(ssm._REVERSED_ROWS[scan_mode])
        for bsz, rows in self.TILINGS:
            xb = ad.Tensor(x.data[:bsz], dtype=dtype)
            monkeypatch.setattr(ssm, "_TILE_BYTES", tile_budget(params, rows, 9, dtype))
            calls.clear()
            out = ssm.bidirectional_forward(params, xb).data
            assert calls == [directions * min(rows, bsz - lo) for lo in range(0, bsz, rows)]
            assert out.dtype == dtype and out.shape == xb.shape
            assert out.tobytes() == untiled[:bsz].tobytes(), (bsz, rows)

    def test_a_budget_under_one_row_runs_one_row_per_tile(self, monkeypatch):
        params, x_data = bi_block_in(np.float64)
        want = ssm.bidirectional_forward(params, ad.Tensor(x_data)).data
        calls = kernel_rows(monkeypatch)
        monkeypatch.setattr(ssm, "_TILE_BYTES", 1)
        out = ssm.bidirectional_forward(params, ad.Tensor(x_data)).data
        assert calls == [2, 2, 2]
        assert out.tobytes() == want.tobytes()

    def test_a_recorded_call_is_never_tiled(self, monkeypatch):
        params, x_data = bi_block_in(np.float64)
        calls = kernel_rows(monkeypatch)
        monkeypatch.setattr(ssm, "_TILE_BYTES", 1)
        with ad.Tape() as tape:
            ssm.bidirectional_forward(params, ad.Tensor(x_data, requires_grad=True))
        assert calls == [2 * x_data.shape[0]]
        assert [node.op for node in tape.nodes] == ["bi_block"]

    @pytest.mark.parametrize("record", [False, True])
    def test_an_empty_sequence_runs_as_one_tile(self, record, monkeypatch):
        # L = 0 rows hold no bytes: all of them fit one tile
        params, _ = bi_block_in(np.float64)
        x = ad.Tensor(np.zeros((3, 0, 5)), requires_grad=record)
        calls = kernel_rows(monkeypatch)
        if record:
            with ad.Tape():
                out = ssm.bidirectional_forward(params, x)
                ad.backward(ad.reduce_sum(out))
            assert x.grad.shape == x.shape
        else:
            out = ssm.bidirectional_forward(params, x)
        assert calls == [6]
        assert out.shape == x.shape

    def test_four_tiles_peak_as_one_tile_plus_the_output(self, monkeypatch):
        # the bound of ``test_tape_free_forward_peak_memory`` for one tile
        # of 8 rows, 10.5 units of tile*L*E*C values, plus the (32, L, C)
        # output the tiles are written into (measured: 10.02 units)
        rows, length, channels = 8, 60, 40
        params = ssm.init_bi_block(np.random.default_rng(9), channels=channels)
        x = ad.Tensor(np.random.default_rng(10).standard_normal((4 * rows, length, channels)))
        monkeypatch.setattr(ssm, "_TILE_BYTES", tile_budget(params, rows, length, np.float64))
        unit = rows * length * params.mamba.A_log.shape[0] * 8
        ssm.bidirectional_forward(params, x)
        tracemalloc.start()
        try:
            ssm.bidirectional_forward(params, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - x.data.nbytes <= 10.5 * unit, f"{(peak - x.data.nbytes) / unit:.2f} units"


class TestBidirectionalWrapper:
    @pytest.mark.parametrize("seed", range(10))
    def test_block_commutes_with_time_reversal(self, seed):
        params = ssm.init_bi_block(np.random.default_rng(seed), channels=6,
                                   expand=2, state_dim=4, conv_width=3)
        x = ad.Tensor(np.random.default_rng(100 + seed).standard_normal((2, 9, 6)))
        lhs = ssm.bidirectional_forward(params, reverse_axis(x, 1)).data
        rhs = reverse_axis(ssm.bidirectional_forward(params, x), 1).data
        assert np.abs(lhs - rhs).max() < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_float32_block_commutes_with_time_reversal(self, seed):
        # each direction is the same per-row arithmetic on reversed rows, and
        # the head works per position; the bound is 8 float32 epsilons of
        # the output scale (measured: exact)
        ad.set_default_dtype(np.float32)
        try:
            params = ssm.init_bi_block(np.random.default_rng(seed), channels=6,
                                       expand=2, state_dim=4, conv_width=3)
            x = ad.Tensor(np.random.default_rng(100 + seed).standard_normal((2, 9, 6)))
            lhs = ssm.bidirectional_forward(params, reverse_axis(x, 1)).data
            rhs = reverse_axis(ssm.bidirectional_forward(params, x), 1).data
        finally:
            ad.set_default_dtype(np.float64)
        assert lhs.dtype == np.float32
        assert np.abs(lhs - rhs).max() <= 8 * np.finfo(np.float32).eps * np.abs(rhs).max()

    def test_scan_mode_decomposition(self):
        # each setting's block is the head over its directional scans plus x
        params = ssm.init_bi_block(np.random.default_rng(0), channels=5)
        x = ad.Tensor(np.random.default_rng(1).standard_normal((2, 7, 5)))
        fwd = mamba_op(params.mamba, x).data
        bwd = mamba_op(params.mamba, reverse_axis(x, 1)).data[:, ::-1]

        def block(scan_mode):
            block = dataclasses.replace(params, scan_mode=scan_mode)
            return ssm.bidirectional_forward(block, x).data

        def head(core):
            return primitive_head(params, ad.Tensor(core)).data

        assert params.scan_mode == "bidirectional"
        np.testing.assert_array_equal(block("forward"), head(fwd + x.data))
        np.testing.assert_array_equal(block("backward"), head(bwd + x.data))
        np.testing.assert_allclose(block("bidirectional"), head(fwd + bwd + x.data), atol=1e-15)

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="scan_mode"):
            ssm.init_bi_block(np.random.default_rng(0), channels=3, scan_mode="circular")

    def test_both_directions_share_parameters(self):
        params = ssm.init_bi_block(np.random.default_rng(2), channels=4)
        names = set(params.parameters())
        assert sum(name.startswith("mamba/") for name in names) == 8
        assert len(names) == 16

        x = ad.Tensor(np.random.default_rng(3).standard_normal((1, 6, 4)))
        with ad.Tape():
            grads = ad.backward(ad.reduce_sum(ssm.bidirectional_forward(params, x)))
        for name, p in params.parameters().items():
            assert p in grads, name

    def test_tape_free_forward_peak_memory(self):
        # a tape-free call frees each activation once nothing reads it; the
        # stacked (2B, L, E*C) working set must not grow the peak past 10.5
        # units of B*L*E*C values (measured: 10.01; 11.18 while the conv's
        # input lived through the delta path, 13.6 for two unstacked calls)
        bsz, length, channels = 8, 60, 40
        params = ssm.init_bi_block(np.random.default_rng(9), channels=channels)
        x = ad.Tensor(np.random.default_rng(10).standard_normal((bsz, length, channels)))
        unit = bsz * length * params.mamba.A_log.shape[0] * 8
        ssm.bidirectional_forward(params, x)
        tracemalloc.start()
        try:
            ssm.bidirectional_forward(params, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10.5 * unit

    def test_full_block_gradient(self):
        params = ssm.init_bi_block(np.random.default_rng(4), channels=4,
                                   expand=2, state_dim=3, conv_width=2)
        rng = np.random.default_rng(5)
        x = ad.Tensor(rng.standard_normal((1, 5, 4)), requires_grad=True)
        w = rng.uniform(0.5, 1.5, (1, 5, 4))

        def f(t):
            return ad.reduce_sum(ad.mul(ssm.bidirectional_forward(params, t), ad.Tensor(w)))

        assert ad.finite_difference_check(f, x) < 1e-4

    def test_float32_gradients_match_float64(self):
        # the same float32 values run in both dtypes; every gradient agrees
        # within 1e-5 of its float64 scale (measured: under 5e-7)
        def gradients(dtype, values=None):
            ad.set_default_dtype(dtype)
            try:
                params = ssm.init_bi_block(np.random.default_rng(4), channels=8,
                                           expand=2, state_dim=4, conv_width=3)
                rng = np.random.default_rng(5)
                x = ad.Tensor(rng.standard_normal((3, 12, 8)), requires_grad=True)
                w = ad.Tensor(rng.uniform(0.5, 1.5, (3, 12, 8)))
                named = {"x": x, **params.parameters()}
                if values is not None:
                    for name, t in named.items():
                        t.data = values[name].astype(dtype)
                with ad.Tape():
                    out = ssm.bidirectional_forward(params, x)
                    ad.backward(ad.reduce_sum(ad.mul(out, w)))
            finally:
                ad.set_default_dtype(np.float64)
            return ({name: t.data for name, t in named.items()},
                    {name: t.grad for name, t in named.items()})

        values, g32 = gradients(np.float32)
        _, g64 = gradients(np.float64, values)
        for name, g in g64.items():
            assert g32[name].dtype == np.float32, name
            err = np.abs(g32[name] - g).max() / np.abs(g).max()
            assert err <= 1e-5, f"{name}: {err:.3e}"

    def test_float32_block_computes_in_float32_under_a_float64_default(self):
        # parameters made under float32, then run with the default at float64:
        # no constant of the block may promote its arithmetic to float64
        def gradients(run_dtype):
            ad.set_default_dtype(np.float32)
            try:
                params = ssm.init_bi_block(np.random.default_rng(4), channels=8,
                                           expand=2, state_dim=4, conv_width=3)
                rng = np.random.default_rng(5)
                x = ad.Tensor(rng.standard_normal((3, 12, 8)), requires_grad=True)
                w = ad.Tensor(rng.uniform(0.5, 1.5, (3, 12, 8)))
                ad.set_default_dtype(run_dtype)
                with ad.Tape():
                    out = ssm.bidirectional_forward(params, x)
                    ad.backward(ad.reduce_sum(ad.mul(out, w)))
            finally:
                ad.set_default_dtype(np.float64)
            assert out.data.dtype == np.float32
            return {name: t.grad for name, t in {"x": x, **params.parameters()}.items()}

        mixed, pure = gradients(np.float64), gradients(np.float32)
        for name, g in mixed.items():
            assert g.dtype == np.float32, name
            np.testing.assert_array_equal(g, pure[name], err_msg=name)


def where_sigmoid(x):
    """The sigmoid with its numerator picked by np.where: the reference
    that the max([x >= 0], z) numerator matches bit for bit."""
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, z) / (1.0 + z)


def sign_sigmoid(x):
    """The sigmoid with its numerator as max(sign(x), z), the form that the
    comparison replaced."""
    z = np.exp(-np.abs(x))
    return np.maximum(np.sign(x), z) / (1.0 + z)


def window_conv(x, kernel):
    """The causal conv as a window einsum over the left-padded input."""
    w = kernel.shape[1]
    padded = np.pad(x, ((0, 0), (w - 1, 0), (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, w, axis=1)
    return np.einsum("blcw,cw->blc", windows, kernel)


def same_bits(a, b):
    """Equal bit for bit, the sign of zero included; NaNs need only match
    in position."""
    nan = np.isnan(a)
    if not np.array_equal(nan, np.isnan(b)):
        return False
    uint = np.uint64 if a.dtype == np.float64 else np.uint32
    return a.dtype == b.dtype and np.array_equal(a[~nan].view(uint), b[~nan].view(uint))


class TestBlockKernels:
    """The elementwise kernels and the conv against the forms they replaced."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_sigmoid_bit_identical_to_where_form(self, dtype):
        info = np.finfo(dtype)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, info.tiny, -info.tiny,
                   info.max, -info.max, 1e-30, -1e-30, 80.0, -80.0, 800.0, -800.0]
        x = np.concatenate([np.random.default_rng(0).uniform(-60.0, 60.0, 20_000),
                            np.random.default_rng(1).standard_normal(5_000) * 1e-3,
                            special]).astype(dtype)
        with np.errstate(over="ignore"):
            assert same_bits(ssm._sigmoid(x), where_sigmoid(x))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_sigmoid_bit_identical_to_sign_form(self, dtype):
        # around exp's underflow (±88.7, ±104, ±750), signed zeros,
        # subnormals and infinities; NaN maps to NaN
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-45, -1e-45, 88.7, -88.7, 104.0,
                   -104.0, 750.0, -750.0, 1e30, -1e30]
        x = np.concatenate([np.random.default_rng(4).uniform(-120.0, 120.0, 200_000),
                            special]).astype(dtype)
        got, want = ssm._sigmoid(x), sign_sigmoid(x)
        nan = np.isnan(x)
        assert np.isnan(got[nan]).all() and np.isnan(want[nan]).all()
        assert got[~nan].tobytes() == want[~nan].tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_softplus_matches_logaddexp(self, dtype):
        # the rewrite is within 2.5 epsilons of logaddexp on this sample;
        # the bound is 4 epsilons of the dtype, relative
        info = np.finfo(dtype)
        x = np.concatenate([np.random.default_rng(2).uniform(-60.0, 60.0, 20_000),
                            np.random.default_rng(3).uniform(-1e4, 1e4, 500),
                            [0.0, -0.0, info.tiny, -info.tiny, info.max, -info.max]]).astype(dtype)
        got = softplus(ad.Tensor(x, dtype=dtype)).data
        want = np.logaddexp(dtype(0.0), x)
        assert got.dtype == dtype
        nonzero = want != 0.0
        assert np.array_equal(got[~nonzero], want[~nonzero])
        rel = np.abs(got[nonzero] - want[nonzero]) / want[nonzero]
        assert rel.max() <= 4 * info.eps
        np.testing.assert_array_equal(softplus(ad.Tensor([np.inf, -np.inf], dtype=dtype)).data,
                                      [np.inf, 0.0])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_conv_sums_taps_in_ascending_order(self, dtype):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            b, l, c = (int(rng.integers(1, 7)) for _ in range(3))
            w = int(rng.integers(1, 6))
            x = rng.standard_normal((b, l, c)).astype(dtype)
            k = rng.standard_normal((c, w)).astype(dtype)
            want = np.zeros_like(x)
            for i in range(l):
                for j in range(w):  # tap j reads frame i - (w - 1 - j)
                    if i - (w - 1 - j) >= 0:
                        want[:, i] += x[:, i - (w - 1 - j)] * k[:, j]
            got = depthwise_causal_conv1d(ad.Tensor(x, dtype=dtype), ad.Tensor(k, dtype=dtype))
            assert same_bits(got.data, want), seed

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_conv_bit_identical_to_window_einsum(self, dtype):
        # two or more channels, as every block has: with one channel the
        # window is contiguous and einsum sums the taps in another order
        for seed in range(20):
            rng = np.random.default_rng(seed)
            b, l = (int(rng.integers(1, 9)) for _ in range(2))
            c, w = int(rng.integers(2, 40)), int(rng.integers(1, 6))
            x = ad.Tensor(rng.standard_normal((b, l, c)), requires_grad=True, dtype=dtype)
            k = ad.Tensor(rng.standard_normal((c, w)), requires_grad=True, dtype=dtype)
            g = rng.standard_normal((b, l, c)).astype(dtype)
            with ad.Tape():
                out = depthwise_causal_conv1d(x, k)
                ad.backward(ad.reduce_sum(ad.mul(out, ad.Tensor(g, dtype=dtype))))
            assert same_bits(out.data, window_conv(x.data, k.data)), seed
            # the input gradient: windows of g padded at the end, taps reversed
            g_windows = np.lib.stride_tricks.sliding_window_view(
                np.pad(g, ((0, 0), (0, w - 1), (0, 0))), w, axis=1)
            gx = np.einsum("blcw,cw->blc", g_windows, k.data[:, ::-1])
            assert same_bits(x.grad, gx), seed

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_conv_kernel_gradient_bit_identical_to_window_einsum(self, dtype, width):
        # one channel included, and lengths below the width, where the
        # early taps read only padding
        for b, l, c in itertools.product((1, 3, 16), (1, 2, 3, 5, 9, 45), (1, 2, 16, 37)):
            rng = np.random.default_rng(b * 10_000 + l * 100 + c)
            x = ad.Tensor(rng.standard_normal((b, l, c)), dtype=dtype)
            k = ad.Tensor(rng.standard_normal((c, width)), requires_grad=True, dtype=dtype)
            g = rng.standard_normal((b, l, c)).astype(dtype)
            with ad.Tape():
                ad.backward(ad.reduce_sum(ad.mul(depthwise_causal_conv1d(x, k),
                                                 ad.Tensor(g, dtype=dtype))))
            windows = np.lib.stride_tricks.sliding_window_view(
                np.pad(x.data, ((0, 0), (width - 1, 0), (0, 0))), width, axis=1)
            assert same_bits(k.grad, np.einsum("blc,blcw->cw", g, windows)), (b, l, c)

    @pytest.mark.parametrize("name", ["silu", "softplus"])
    def test_tape_free_peak_memory(self, name):
        # a forecast's tape-free peak sits in these kernels: each holds at
        # most two arrays of x's size besides x
        x = ad.Tensor(np.random.default_rng(4).standard_normal((32, 90, 150)))
        ORACLE_OPS[name](x)
        tracemalloc.start()
        try:
            ORACLE_OPS[name](x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * x.data.nbytes
