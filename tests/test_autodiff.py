"""Engine tests: every primitive against central finite differences on
randomized shapes, plus tape bookkeeping invariants, typed shape errors and
structural identities.  The finite-difference cases are criterion 01's table,
``oracles.primitive_cases``; here each (op, seed) is its own test, so a
failure names its case."""

import gc
import weakref

import numpy as np
import pytest

from motionmoe import autodiff as ad
from oracles import (ORACLE_OPS, broadcast_to, directional_derivative_check, primitive_cases,
                     reverse_axis, silu, softplus, transpose)

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
    @pytest.mark.parametrize("name", [*ad.primitive_names(), *ORACLE_OPS])
    def test_finite_differences(self, name, seed):
        for f, leaf in primitive_cases(name, np.random.default_rng(seed)):
            check(f, leaf)

    @pytest.mark.parametrize("value", [-1.3, 0.0, 0.7])
    @pytest.mark.parametrize("name", ["softplus", "silu"])
    def test_elementwise_unary_zero_d(self, name, value):
        x = ad.Tensor(np.array(value), requires_grad=True)
        check(lambda t: ad.mul(ORACLE_OPS[name](t), ad.Tensor(np.array(1.5))), x)


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

    @pytest.mark.parametrize("name", [*ad.primitive_names(), *ORACLE_OPS])
    def test_an_oracle_op_records_one_node_under_its_name(self, name):
        # criterion 01 counts each registered and oracle op as covered under
        # this name
        op = ORACLE_OPS.get(name) or getattr(ad, {"slice": "slice_axis"}.get(name, name))
        args = {"add": (_t(3),), "sub": (_t(3),), "mul": (_t(3),), "matmul": (_t(3, 2),),
                "transpose": (0, 2), "reshape": ((4, 3),), "slice": (1, 0, 2),
                "take_rows": ([0, 0],), "topk_mask": (2,), "reverse_axis": (1,),
                "layernorm_lastaxis": (_t(3), _t(3)), "depthwise_causal_conv1d": (_t(3, 2),),
                "broadcast": ((2, 4, 3),)}
        x = ad.Tensor(np.ones((1, 4, 3)), requires_grad=True)
        with ad.Tape() as tape:
            if name == "concat":
                op([x, _t(1, 4, 3)], 0)
            else:
                op(x, *args.get(name, ()))
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
        back = transpose(transpose(x, 0, 2), 0, 2)
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
