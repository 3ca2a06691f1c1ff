"""Engine tests: every primitive against central finite differences on
randomized shapes, plus tape bookkeeping invariants."""

import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from motionmoe import autodiff as ad
from oracles import (ORACLE_OPS, broadcast_to, depthwise_causal_conv1d,
                     directional_derivative_check, layernorm_lastaxis, rand_shape, reverse_axis,
                     silu, softplus, spaced_values, weighted_sum, well_scaled)

SEEDS = [0, 1, 2, 3, 4]
FD_TOL = 1e-6


def check(f, x, tol=FD_TOL):
    err = ad.finite_difference_check(f, x)
    assert err < tol, f"fd error {err:.3e} >= {tol}"


def _t(*shape):
    return ad.Tensor(np.ones(shape))


# each call hands a primitive operands it cannot take
BAD_OPERANDS = {
    "add-no-broadcast": ("add", lambda: ad.add(_t(2, 3), _t(4, 5))),
    "sub-no-broadcast": ("sub", lambda: ad.sub(_t(2, 3), _t(3, 2))),
    "mul-no-broadcast": ("mul", lambda: ad.mul(_t(2, 3), _t(2,))),
    "matmul-inner": ("matmul", lambda: ad.matmul(_t(2, 3), _t(4, 5))),
    "matmul-batch": ("matmul", lambda: ad.matmul(_t(2, 3, 4), _t(5, 4, 2))),
    "matmul-1d-left": ("matmul", lambda: ad.matmul(_t(3), _t(3, 2))),
    "matmul-1d-right": ("matmul", lambda: ad.matmul(_t(2, 3), _t(3))),
    "transpose-axis": ("transpose", lambda: ad.transpose(_t(2, 3), 0, 2)),
    "transpose-negative-axis": ("transpose", lambda: ad.transpose(_t(2, 3), -3, 1)),
    "reshape-inferred": ("reshape", lambda: ad.reshape(_t(2, 3), (4, -1))),
    "reshape-size": ("reshape", lambda: ad.reshape(_t(2, 3), (5,))),
    "reduce_sum-duplicate-axis": ("reduce_sum", lambda: ad.reduce_sum(_t(2, 3), (0, 0))),
    "reduce_sum-axis": ("reduce_sum", lambda: ad.reduce_sum(_t(2, 3), 2)),
    "reduce_mean-duplicate-axis": ("reduce_mean", lambda: ad.reduce_mean(_t(2, 3), (1, -1))),
    "reduce_mean-axis": ("reduce_mean", lambda: ad.reduce_mean(_t(2, 3), -3)),
    "slice-past-end": ("slice", lambda: ad.slice_axis(_t(2, 3), 1, 2, 5)),
    "slice-reversed": ("slice", lambda: ad.slice_axis(_t(2, 3), 1, 2, 1)),
    "slice-negative-start": ("slice", lambda: ad.slice_axis(_t(2, 3), 0, -1, 1)),
    "slice-axis": ("slice", lambda: ad.slice_axis(_t(2, 3), 2, 0, 1)),
    "concat-shape": ("concat", lambda: ad.concat([_t(2, 3), _t(2, 4)], axis=0)),
    "concat-ndim": ("concat", lambda: ad.concat([_t(2, 3), _t(2, 3, 1)], axis=1)),
    "concat-empty": ("concat", lambda: ad.concat([], axis=0)),
    "concat-axis": ("concat", lambda: ad.concat([_t(2, 3), _t(2, 3)], axis=2)),
    "topk-zero": ("topk_mask", lambda: ad.topk_mask(_t(2, 3), 0)),
    "topk-too-many": ("topk_mask", lambda: ad.topk_mask(_t(2, 3), 4)),
    "softmax-0d": ("softmax_lastaxis", lambda: ad.softmax_lastaxis(_t())),
}


class TestPrimitiveGradients:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_elementwise_binary(self, seed):
        rng = np.random.default_rng(seed)
        shape = rand_shape(rng)
        a = ad.Tensor(well_scaled(rng, shape), requires_grad=True)
        b = ad.Tensor(well_scaled(rng, shape), requires_grad=True)
        w = well_scaled(rng, shape)
        for name in ("add", "sub", "mul"):
            check(lambda t: weighted_sum(ad.apply_primitive(name, (t, b)), w), a)
            check(lambda t: weighted_sum(ad.apply_primitive(name, (a, t)), w), b)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_binary_broadcasting(self, seed):
        rng = np.random.default_rng(seed)
        full = rand_shape(rng, min_axes=2)
        reduced = tuple(1 if rng.random() < 0.5 else s for s in full)
        a = ad.Tensor(well_scaled(rng, full), requires_grad=True)
        b = ad.Tensor(well_scaled(rng, reduced), requires_grad=True)
        w = well_scaled(rng, full)
        for name in ("add", "sub", "mul"):
            check(lambda t: weighted_sum(ad.apply_primitive(name, (a, t)), w), b)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matmul(self, seed):
        rng = np.random.default_rng(seed)
        n, m, p = (int(rng.integers(1, 9)) for _ in range(3))
        a = ad.Tensor(rng.standard_normal((n, m)), requires_grad=True)
        b = ad.Tensor(rng.standard_normal((m, p)), requires_grad=True)
        w = well_scaled(rng, (n, p))
        check(lambda t: weighted_sum(ad.matmul(t, b), w), a)
        check(lambda t: weighted_sum(ad.matmul(a, t), w), b)
        # broadcast batching: (D, D) @ (B, D, C)
        batch = int(rng.integers(1, 5))
        a2 = ad.Tensor(rng.standard_normal((n, n)), requires_grad=True)
        b2 = ad.Tensor(rng.standard_normal((batch, n, p)), requires_grad=True)
        w2 = well_scaled(rng, (batch, n, p))
        check(lambda t: weighted_sum(ad.matmul(t, b2), w2), a2)
        check(lambda t: weighted_sum(ad.matmul(a2, t), w2), b2)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", ["exp", "softplus", "silu", "tanh", "relu"])
    def test_elementwise_unary(self, seed, name):
        rng = np.random.default_rng(seed)
        shape = rand_shape(rng)
        # inputs kept out of the saturated tails, where true derivatives sink
        # below finite-difference rounding noise
        x = ad.Tensor(rng.uniform(-2.0, 2.0, shape), requires_grad=True)
        w = well_scaled(rng, shape)
        op = ORACLE_OPS.get(name) or getattr(ad, name)
        check(lambda t: weighted_sum(op(t), w), x)

    @pytest.mark.parametrize("value", [-1.3, 0.0, 0.7])
    @pytest.mark.parametrize("name", ["softplus", "silu"])
    def test_elementwise_unary_zero_d(self, name, value):
        x = ad.Tensor(np.array(value), requires_grad=True)
        check(lambda t: ad.mul(ORACLE_OPS[name](t), ad.Tensor(np.array(1.5))), x)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_transpose_reverse_reshape(self, seed):
        rng = np.random.default_rng(seed)
        shape = rand_shape(rng, min_axes=2)
        x = ad.Tensor(rng.standard_normal(shape), requires_grad=True)
        axes = rng.choice(len(shape), size=2, replace=False)
        a, b = int(axes[0]), int(axes[1])
        wt = np.swapaxes(well_scaled(rng, shape), a, b)
        check(lambda t: weighted_sum(ad.transpose(t, a, b), wt), x)
        wr = well_scaled(rng, shape)
        check(lambda t: weighted_sum(reverse_axis(t, a), wr), x)
        flat = (int(np.prod(shape)),)
        wf = well_scaled(rng, flat)
        check(lambda t: weighted_sum(ad.reshape(t, flat), wf), x)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_reductions(self, seed):
        rng = np.random.default_rng(seed)
        shape = rand_shape(rng)
        x = ad.Tensor(rng.standard_normal(shape), requires_grad=True)
        check(lambda t: ad.reduce_sum(t), x)
        check(lambda t: ad.reduce_mean(t), x)
        axes = tuple(i for i in range(len(shape)) if rng.random() < 0.5)
        if axes and len(axes) < len(shape):
            out_shape = tuple(s for i, s in enumerate(shape) if i not in axes)
            w = well_scaled(rng, out_shape)
            check(lambda t: weighted_sum(ad.reduce_sum(t, axes=axes), w), x)
            check(lambda t: weighted_sum(ad.reduce_mean(t, axes=axes), w), x)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_softmax(self, seed):
        rng = np.random.default_rng(seed)
        shape = rand_shape(rng)
        x = ad.Tensor(rng.standard_normal(shape), requires_grad=True)
        w = well_scaled(rng, shape)
        check(lambda t: weighted_sum(ad.softmax_lastaxis(t), w), x)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_layernorm(self, seed):
        rng = np.random.default_rng(seed)
        shape = rand_shape(rng)
        # with 2 channels the normalized output is nearly input-invariant and
        # the true input gradient drops to finite-difference noise level
        shape = shape[:-1] + (max(3, shape[-1]),)
        c = shape[-1]
        x = ad.Tensor(rng.standard_normal(shape), requires_grad=True)
        gamma = ad.Tensor(well_scaled(rng, (c,)), requires_grad=True)
        beta = ad.Tensor(well_scaled(rng, (c,)), requires_grad=True)
        w = well_scaled(rng, shape)
        check(lambda t: weighted_sum(layernorm_lastaxis(t, gamma, beta), w), x)
        check(lambda t: weighted_sum(layernorm_lastaxis(x, t, beta), w), gamma)
        check(lambda t: weighted_sum(layernorm_lastaxis(x, gamma, t), w), beta)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_causal_conv(self, seed):
        rng = np.random.default_rng(seed)
        b, l, c = (int(rng.integers(1, 7)) for _ in range(3))
        width = int(rng.integers(1, 5))
        x = ad.Tensor(well_scaled(rng, (b, l, c)), requires_grad=True)
        k = ad.Tensor(well_scaled(rng, (c, width)), requires_grad=True)
        w = well_scaled(rng, (b, l, c))
        check(lambda t: weighted_sum(depthwise_causal_conv1d(t, k), w), x)
        check(lambda t: weighted_sum(depthwise_causal_conv1d(x, t), w), k)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_broadcast(self, seed):
        rng = np.random.default_rng(seed)
        target = rand_shape(rng, min_axes=2)
        source = tuple(1 if rng.random() < 0.5 else s for s in target)
        x = ad.Tensor(rng.standard_normal(source), requires_grad=True)
        w = well_scaled(rng, target)
        check(lambda t: weighted_sum(broadcast_to(t, target), w), x)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_slice_concat(self, seed):
        rng = np.random.default_rng(seed)
        shape = rand_shape(rng)
        axis = int(rng.integers(0, len(shape)))
        n = shape[axis]
        start = int(rng.integers(0, n))
        stop = int(rng.integers(start + 1, n + 1))
        x = ad.Tensor(rng.standard_normal(shape), requires_grad=True)
        out_shape = list(shape)
        out_shape[axis] = stop - start
        ws = well_scaled(rng, tuple(out_shape))
        check(lambda t: weighted_sum(ad.slice_axis(t, axis, start, stop), ws), x)

        other = ad.Tensor(rng.standard_normal(shape), requires_grad=True)
        cat_shape = list(shape)
        cat_shape[axis] *= 2
        w = well_scaled(rng, tuple(cat_shape))
        check(lambda t: weighted_sum(ad.concat([t, other], axis), w), x)
        check(lambda t: weighted_sum(ad.concat([x, t], axis), w), other)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_topk_mask(self, seed):
        rng = np.random.default_rng(seed)
        shape = rand_shape(rng)
        x = ad.Tensor(spaced_values(rng, shape), requires_grad=True)
        k = int(rng.integers(1, shape[-1] + 1))
        w = well_scaled(rng, shape)
        # exp turns the -inf fill into an exact 0 so the objective stays finite
        check(lambda t: weighted_sum(ad.exp(ad.topk_mask(t, k)), w), x)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_take_rows(self, seed):
        rng = np.random.default_rng(seed)
        shape = rand_shape(rng)
        rows = rng.integers(0, shape[0], size=int(rng.integers(1, 2 * shape[0] + 2)))
        x = ad.Tensor(rng.standard_normal(shape), requires_grad=True)
        w = well_scaled(rng, (len(rows),) + shape[1:])
        check(lambda t: weighted_sum(ad.take_rows(t, rows), w), x)


class TestFrozenDerivatives:
    def test_silu_derivative_at_zero(self):
        x = ad.Tensor(np.zeros(1), requires_grad=True)
        with ad.Tape():
            ad.backward(ad.reduce_mean(silu(x)))
        assert x.grad == pytest.approx(0.5, abs=1e-15)

    def test_softplus_at_zero_is_log_two(self):
        out = softplus(ad.Tensor(np.zeros(()))).item()
        assert out == pytest.approx(np.log(2.0), abs=1e-15)

    def test_matmul_example_shapes(self):
        a = ad.Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
        b = ad.Tensor(np.arange(6, dtype=np.float64).reshape(3, 2))
        out = ad.matmul(a, b)
        assert out.shape == (2, 2)
        np.testing.assert_allclose(out.data, a.data @ b.data)


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
            assert same_bits(ad._sigmoid(x), where_sigmoid(x))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_sigmoid_bit_identical_to_sign_form(self, dtype):
        # around exp's underflow (±88.7, ±104, ±750), signed zeros,
        # subnormals and infinities; NaN maps to NaN
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-45, -1e-45, 88.7, -88.7, 104.0,
                   -104.0, 750.0, -750.0, 1e30, -1e30]
        x = np.concatenate([np.random.default_rng(4).uniform(-120.0, 120.0, 200_000),
                            special]).astype(dtype)
        got, want = ad._sigmoid(x), sign_sigmoid(x)
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


class TestTapeMechanics:
    def test_active_tape_is_the_innermost_entered_tape(self):
        assert ad.active_tape() is None
        with ad.Tape() as outer:
            assert ad.active_tape() is outer
            with ad.Tape() as inner:
                assert ad.active_tape() is inner
            assert ad.active_tape() is outer
        assert ad.active_tape() is None

    def test_tape_subclass_with_its_own_slots_records(self):
        # an instrumented tape (a profiler, a tracer) subclasses Tape with
        # slots of its own and rewraps each node's backward closure
        class Instrumented(ad.Tape):
            __slots__ = ("serial",)

        x = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with Instrumented() as tape:
            tape.serial = 7
            y = ad.mul(x, x)
            loss = ad.reduce_sum(y)
            assert y.tape is tape and loss.tape is tape
            assert [node.output for node in tape.nodes] == [y, loss]
            seen = []
            for node in tape.nodes:
                def wrapped(g, closure=node.backward, op=node.op):
                    seen.append(op)
                    return closure(g)
                node.backward = wrapped
            ad.backward(loss)
        assert ad.active_tape() is None
        assert seen == ["reduce_sum", "mul"]
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_topological_order(self):
        rng = np.random.default_rng(0)
        x = ad.Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        with ad.Tape() as tape:
            y = ad.add(x, x)
            z = ad.mul(y, y)
            ad.backward(ad.reduce_sum(ad.tanh(z)))
        produced = {}
        for idx, node in enumerate(tape.nodes):
            for inp in node.inputs:
                if inp.tid in produced:
                    assert produced[inp.tid] < idx
            produced[node.output.tid] = idx

    def test_each_node_visited_once(self):
        x = ad.Tensor(np.ones(4), requires_grad=True)
        with ad.Tape() as tape:
            y = ad.mul(x, x)
            z = ad.add(y, y)   # fan-out on y
            loss = ad.reduce_sum(ad.add(z, y))
            calls = {}
            for i, node in enumerate(tape.nodes):
                original = node.backward
                def counted(g, i=i, original=original):
                    calls[i] = calls.get(i, 0) + 1
                    return original(g)
                node.backward = counted
            ad.backward(loss)
        assert all(count == 1 for count in calls.values())
        # d/dx sum(3 * x^2) = 6x
        np.testing.assert_allclose(x.grad, 6.0 * np.ones(4))

    def test_fanout_accumulates(self):
        x = ad.Tensor(np.array([3.0]), requires_grad=True)
        with ad.Tape():
            ad.backward(ad.reduce_sum(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, [6.0])

    def test_backward_of_sum_equals_sum_of_backwards(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((4, 2))

        def loss_a(t):
            return ad.reduce_sum(silu(t))

        def loss_b(t):
            return ad.reduce_mean(ad.mul(t, t))

        x = ad.Tensor(base.copy(), requires_grad=True)
        with ad.Tape():
            ad.backward(ad.add(loss_a(x), loss_b(x)))
        combined = x.grad.copy()

        xa = ad.Tensor(base.copy(), requires_grad=True)
        with ad.Tape():
            ad.backward(loss_a(xa))
        xb = ad.Tensor(base.copy(), requires_grad=True)
        with ad.Tape():
            ad.backward(loss_b(xb))
        np.testing.assert_allclose(combined, xa.grad + xb.grad, rtol=1e-12)

    def test_gradient_check_tapes_are_freed_without_the_cyclic_collector(self, monkeypatch):
        tapes = []

        class WatchedTape(ad.Tape):
            def __enter__(self):
                tapes.append(weakref.ref(self))
                return super().__enter__()

        monkeypatch.setattr(ad, "Tape", WatchedTape)
        x = ad.Tensor(np.array([0.5, -1.0, 2.0]))
        p = ad.Tensor(np.array([[1.0, 2.0], [3.0, -4.0]]), requires_grad=True)
        enabled = gc.isenabled()
        gc.disable()
        try:
            ad.finite_difference_check(lambda t: ad.reduce_sum(ad.mul(t, t)), x)
            assert len(tapes) == 1 and tapes[0]() is None
            directional_derivative_check(lambda: ad.reduce_sum(ad.mul(p, p)), [p])
            assert len(tapes) == 2 and tapes[1]() is None
        finally:
            if enabled:
                gc.enable()

    def test_backward_frees_what_only_the_tape_held(self):
        # no tape.nodes.clear(): the backward releases each node it spends
        x = ad.Tensor(np.arange(4.0), requires_grad=True)
        with ad.Tape() as tape:
            y = ad.tanh(ad.mul(x, x))
            alive = weakref.ref(y.data)
            loss = ad.reduce_sum(y)
            del y
            assert alive() is not None  # the tape holds the intermediate
            ad.backward(loss)
        assert alive() is None
        assert [node.op for node in tape.nodes] == ["mul", "tanh", "reduce_sum"]
        np.testing.assert_allclose(x.grad, 2.0 * x.data * (1.0 - np.tanh(x.data ** 2) ** 2))

    def test_a_second_backward_raises_a_typed_error(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with ad.Tape():
            loss = ad.reduce_sum(ad.mul(x, x))
            ad.backward(loss)
            with pytest.raises(ad.AutodiffError, match="reduce_sum"):
                ad.backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])

    def test_a_gradient_count_mismatch_names_the_op(self):
        a = ad.Tensor(np.ones(2), requires_grad=True)
        b = ad.Tensor(np.ones(2), requires_grad=True)
        with ad.Tape():
            out = ad.record("short_op", (a, b), a.data + b.data, lambda g: (g,))
            with pytest.raises(ad.AutodiffError, match="short_op.* 1 gradients for 2 inputs"):
                ad.backward(ad.reduce_sum(out))

    def test_detached_loss_raises(self):
        x = ad.Tensor(np.ones(()), requires_grad=True)
        loss = ad.reduce_sum(x)  # no active tape
        with pytest.raises(ad.AutodiffError, match="detached"):
            ad.backward(loss)

    def test_non_scalar_loss_raises(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with ad.Tape():
            y = ad.mul(x, x)
            with pytest.raises(ad.AutodiffError, match="scalar"):
                ad.backward(y)

    def test_unknown_primitive_raises(self):
        with pytest.raises(ad.AutodiffError, match="unknown primitive"):
            ad.apply_primitive("convolve_fft", (ad.Tensor(np.ones(2)),))

    @pytest.mark.parametrize("name", list(ORACLE_OPS))
    def test_an_oracle_op_records_one_node_under_its_name(self, name):
        # criterion 01 counts each oracle op as covered under this name
        args = {"reverse_axis": (1,), "layernorm_lastaxis": (_t(3), _t(3)),
                "depthwise_causal_conv1d": (_t(3, 2),), "broadcast": ((2, 4, 3),)}
        with ad.Tape() as tape:
            ORACLE_OPS[name](ad.Tensor(np.ones((1, 4, 3)), requires_grad=True), *args.get(name, ()))
        assert [node.op for node in tape.nodes] == [name]

    def test_shape_mismatch_raises(self):
        a = ad.Tensor(np.ones((2, 3)))
        b = ad.Tensor(np.ones((4, 5)))
        with pytest.raises(ad.ShapeError):
            ad.matmul(a, b)
        with pytest.raises(ad.ShapeError):
            ad.add(a, b)
        with pytest.raises(ad.ShapeError, match="reshape"):
            ad.reshape(a, (4, -1))

    @pytest.mark.parametrize("name, call", list(BAD_OPERANDS.values()),
                             ids=list(BAD_OPERANDS))
    def test_bad_operands_raise_a_shape_error_naming_the_primitive(self, name, call):
        with pytest.raises(ad.ShapeError, match=f"^{name}\\b"):
            call()

    def test_take_rows_accumulates_repeated_rows(self):
        x = ad.Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
        rows = np.array([2, 0, 2, 3, 2])
        w = ad.Tensor(np.arange(10.0).reshape(5, 2))
        with ad.Tape():
            out = ad.take_rows(x, rows)
            ad.backward(ad.reduce_sum(ad.mul(out, w)))
        np.testing.assert_array_equal(out.data, x.data[rows])
        # row 2 is taken three times, row 1 never
        np.testing.assert_array_equal(x.grad, [[2.0, 3.0], [0.0, 0.0],
                                               [0.0 + 4.0 + 8.0, 1.0 + 5.0 + 9.0],
                                               [6.0, 7.0]])

    @pytest.mark.parametrize("rows", [np.array([[0, 1]]), np.array([0.0, 1.0]),
                                      np.array([True, False, True]), np.array([0, 3]),
                                      np.array([-1]), np.array(1)])
    def test_take_rows_rejects_bad_rows(self, rows):
        with pytest.raises(ad.ShapeError, match="take_rows"):
            ad.take_rows(ad.Tensor(np.ones((3, 2))), rows)

    def test_take_rows_rejects_scalar_input(self):
        with pytest.raises(ad.ShapeError, match="take_rows"):
            ad.take_rows(ad.Tensor(np.float64(1.0)), np.array([0]))

    def test_reshape_infers_one_axis(self):
        x = ad.Tensor(np.arange(12.0).reshape(2, 6), requires_grad=True)
        with ad.Tape():
            out = ad.reshape(x, (-1, 2, 3))
            ad.backward(ad.reduce_sum(out))
        assert out.shape == (2, 2, 3)
        np.testing.assert_array_equal(x.grad, np.ones((2, 6)))

    def test_no_grad_leaf_never_differentiated(self):
        x = ad.Tensor(np.ones(2), requires_grad=True)
        frozen = ad.Tensor(np.ones(2), requires_grad=False)
        with ad.Tape():
            grads = ad.backward(ad.reduce_sum(ad.mul(x, frozen)))
        assert frozen not in grads and frozen.grad is None
        assert x in grads

    def test_requires_grad_propagates(self):
        x = ad.Tensor(np.ones(2), requires_grad=True)
        y = ad.Tensor(np.ones(2))
        assert ad.add(x, y).requires_grad
        assert not ad.add(y, y).requires_grad


class TestStructuralIdentities:
    def test_transpose_involution(self):
        rng = np.random.default_rng(1)
        x = ad.Tensor(rng.standard_normal((2, 3, 4)))
        back = ad.transpose(ad.transpose(x, 0, 2), 0, 2)
        np.testing.assert_array_equal(back.data, x.data)

    def test_reverse_involution(self):
        rng = np.random.default_rng(2)
        x = ad.Tensor(rng.standard_normal((5, 4)))
        back = reverse_axis(reverse_axis(x, 1), 1)
        np.testing.assert_array_equal(back.data, x.data)

    def test_slice_concat_roundtrip(self):
        rng = np.random.default_rng(3)
        x = ad.Tensor(rng.standard_normal((3, 7)))
        parts = [ad.slice_axis(x, 1, 0, 2), ad.slice_axis(x, 1, 2, 7)]
        np.testing.assert_array_equal(ad.concat(parts, 1).data, x.data)

    def test_topk_values_and_ties(self):
        logits = ad.Tensor(np.array([[2.0, 1.0, 0.0, -1.0]]))
        out = ad.topk_mask(logits, 2)
        np.testing.assert_array_equal(out.data, [[2.0, 1.0, -np.inf, -np.inf]])
        tied = ad.Tensor(np.array([[1.0, 5.0, 5.0, 5.0]]))
        out = ad.topk_mask(tied, 2)
        # ties break toward the lowest index
        np.testing.assert_array_equal(out.data, [[-np.inf, 5.0, 5.0, -np.inf]])

    def test_broadcast_matches_numpy(self):
        x = ad.Tensor(np.arange(3, dtype=np.float64).reshape(1, 3))
        out = broadcast_to(x, (4, 3))
        np.testing.assert_array_equal(out.data, np.broadcast_to(x.data, (4, 3)))

    def test_dtype_switch(self):
        ad.set_default_dtype(np.float32)
        try:
            assert ad.Tensor(np.zeros(2)).data.dtype == np.float32
        finally:
            ad.set_default_dtype(np.float64)
        assert ad.Tensor(np.zeros(2)).data.dtype == np.float64

    def test_fd_check_rejects_float32(self):
        x = ad.Tensor(np.zeros(2), requires_grad=True, dtype=np.float32)
        with pytest.raises(ad.AutodiffError, match="float64"):
            ad.finite_difference_check(lambda t: ad.reduce_sum(t), x)
