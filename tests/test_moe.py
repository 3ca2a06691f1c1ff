"""Routing tests: the top-k softmax gate, expert compositions over shared
blocks, and sparse-versus-dense mixture agreement."""

import numpy as np
import pytest

from motionmoe import autodiff as ad
from motionmoe import ssm
from motionmoe.model import ModelConfig, MotionMoE
from motionmoe.moe import (EXPERT_KINDS, RouterParams,
                           expert_outputs, gate, init_router,
                           moe_layer_forward)
from motionmoe.ssm import init_bi_block
from oracles import layernorm_lastaxis, mamba_op, relu, reverse_axis, transpose


def make_router(logit_rows, k):
    """Router rigged so the gate logits equal the given rows exactly: zero
    weight matrix, bias = logits, constant zero features."""
    rows = np.asarray(logit_rows, dtype=np.float64)
    n = rows.shape[1]
    return RouterParams(
        gate_weight=ad.Tensor(np.zeros((3, n)), requires_grad=True),
        gate_bias=ad.Tensor(rows[0].copy(), requires_grad=True),
        k=k,
    )


def rigged_gate(logit_rows, k):
    rows = np.asarray(logit_rows, dtype=np.float64)
    router = make_router(rows, k)
    out = []
    for row in rows:
        router.gate_bias.data[:] = row
        out.append(gate(router, ad.Tensor(np.zeros((1, 3, 2)))))
    return out


def pin_routing(router, x_data, picks):
    """Make batch row i of ``x_data`` keep exactly the experts ``picks[i]``:
    the gate reads its first N feature channels through an identity, and
    those channels get a temporal mean that ranks the picked experts first."""
    n = router.n_experts
    router.gate_weight.data[:] = 0.0
    router.gate_weight.data[:n, :n] = np.eye(n)
    router.gate_bias.data[:] = 0.0
    logits = np.full((len(picks), n), -1.0)
    for i, kept in enumerate(picks):
        logits[i, list(kept)] = 1.0 + 0.25 * np.arange(len(kept))
    pinned = x_data - x_data.mean(axis=2, keepdims=True)
    pinned[:, :n, :] += logits[:, :, None]
    return pinned


class TestGate:
    def test_frozen_two_of_four_example(self):
        (decision,) = rigged_gate([[2.0, 1.0, 0.0, -1.0]], k=2)
        np.testing.assert_array_equal(decision.kept, [[0, 1]])
        np.testing.assert_allclose(
            decision.weights.data,
            [[0.73105858, 0.26894142, 0.0, 0.0]], atol=1e-8)

    def test_ties_keep_lowest_index(self):
        (decision,) = rigged_gate([[1.0, 3.0, 3.0, 3.0]], k=2)
        np.testing.assert_array_equal(decision.kept, [[1, 2]])
        assert decision.weights.data[0, 3] == 0.0

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_weight_laws(self, k):
        rng = np.random.default_rng(k)
        rows = rng.standard_normal((6, 4))
        decisions = rigged_gate(rows, k)
        for row, decision in zip(rows, decisions):
            w = decision.weights.data[0]
            assert (w == 0.0).sum() == 4 - k
            assert w.sum() == pytest.approx(1.0, abs=1e-6)
            assert decision.kept.shape == (1, k)
            # kept indices are exactly the nonzero columns
            np.testing.assert_array_equal(np.flatnonzero(w != 0.0), decision.kept[0])

    def test_keep_all_matches_plain_softmax(self):
        rng = np.random.default_rng(9)
        rows = rng.standard_normal((5, 4))
        decisions = rigged_gate(rows, k=4)
        for row, decision in zip(rows, decisions):
            expected = np.exp(row - row.max())
            expected /= expected.sum()
            np.testing.assert_allclose(decision.weights.data[0], expected, atol=1e-12)

    def test_constant_logit_shift_is_invariant(self):
        rng = np.random.default_rng(11)
        rows = rng.standard_normal((4, 4))
        for shift in (-50.0, 3.0, 200.0):
            base = rigged_gate(rows, k=2)
            moved = rigged_gate(rows + shift, k=2)
            for d0, d1 in zip(base, moved):
                np.testing.assert_array_equal(d0.kept, d1.kept)
                assert np.abs(d0.weights.data - d1.weights.data).max() < 1e-9

    def test_gradient_reaches_gate_parameters(self):
        rng = np.random.default_rng(1)
        router = init_router(rng, pose_dim=5, n_experts=4, k=2)
        features = ad.Tensor(rng.standard_normal((3, 5, 7)), requires_grad=True)
        with ad.Tape():
            decision = gate(router, features)
            grads = ad.backward(ad.reduce_sum(ad.mul(decision.weights,
                                                     ad.Tensor(rng.standard_normal((3, 4))))))
        assert router.gate_weight in grads
        assert router.gate_bias in grads
        assert features in grads

    def test_k_out_of_range_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="outside"):
            init_router(rng, pose_dim=4, n_experts=4, k=5)
        with pytest.raises(ValueError, match="outside"):
            init_router(rng, pose_dim=4, n_experts=4, k=0)

    def test_report_lines(self):
        (decision,) = rigged_gate([[2.0, 1.0, 0.0, -1.0]], k=2)
        (line,) = decision.to_lines(sample_offset=7, layer=2)
        assert line.startswith("sample=7 layer=2 logits=2.000000,")
        assert "kept=0,1" in line and "weights=0.731059," in line


class TestExperts:
    @pytest.fixture()
    def shared_blocks(self):
        rng = np.random.default_rng(0)
        d, t = 6, 8
        shared_s = init_bi_block(rng, channels=t, expand=2, state_dim=4, conv_width=3)
        shared_t = init_bi_block(rng, channels=d, expand=2, state_dim=4, conv_width=3, axis=2)
        return d, t, shared_s, shared_t

    @pytest.mark.parametrize("kind", EXPERT_KINDS)
    def test_every_kind_preserves_shape(self, kind, shared_blocks):
        d, t, shared_s, shared_t = shared_blocks
        x = ad.Tensor(np.random.default_rng(1).standard_normal((3, d, t)))
        assert expert_outputs((kind,), shared_s, shared_t, x)[kind].shape == (3, d, t)

    def test_compositions_are_stage_products(self, shared_blocks):
        d, t, shared_s, shared_t = shared_blocks
        x = ad.Tensor(np.random.default_rng(2).standard_normal((2, d, t)))

        from motionmoe.ssm import bidirectional_forward
        s_out = bidirectional_forward(shared_s, x)
        t_out = bidirectional_forward(shared_t, x)

        st = expert_outputs(("ST",), shared_s, shared_t, x)["ST"].data
        ts = expert_outputs(("TS",), shared_s, shared_t, x)["TS"].data
        exp_st = bidirectional_forward(shared_t, s_out).data
        exp_ts = bidirectional_forward(shared_s, t_out).data
        np.testing.assert_array_equal(st, exp_st)
        np.testing.assert_array_equal(ts, exp_ts)

    def test_a_temporal_stage_records_one_block_op(self, shared_blocks):
        # the temporal block scans the features' last axis itself: no
        # transposed copy on either side of it
        d, t, shared_s, shared_t = shared_blocks
        x = ad.Tensor(np.random.default_rng(3).standard_normal((2, d, t)), requires_grad=True)
        with ad.Tape() as tape:
            expert_outputs(("TT",), shared_s, shared_t, x)
        assert [node.op for node in tape.nodes] == ["bi_block", "bi_block"]

    def test_unknown_kind_rejected(self, shared_blocks):
        d, t, shared_s, shared_t = shared_blocks
        with pytest.raises(ValueError, match="expert kind"):
            expert_outputs(("XX",), shared_s, shared_t, ad.Tensor(np.zeros((1, d, t))))


class TestMixture:
    def make_layer(self, seed, d=5, t=6, k=4, pool=EXPERT_KINDS):
        rng = np.random.default_rng(seed)
        router = init_router(rng, d, len(pool), k)
        shared_s = init_bi_block(rng, channels=t, expand=2, state_dim=3, conv_width=2)
        shared_t = init_bi_block(rng, channels=d, expand=2, state_dim=3, conv_width=2, axis=2)
        return router, shared_s, shared_t, pool

    def test_dense_mixture_matches_manual_sum(self):
        router, shared_s, shared_t, pool = self.make_layer(0)
        x = ad.Tensor(np.random.default_rng(1).standard_normal((3, 5, 6)))
        out, decision = moe_layer_forward(router, shared_s, shared_t, pool, x)
        expected = np.zeros_like(out.data)
        for e, kind in enumerate(pool):
            expert = expert_outputs((kind,), shared_s, shared_t, x)[kind].data
            expected += decision.weights.data[:, e][:, None, None] * expert
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sparse_equals_dense_with_masked_weights(self, k):
        router, shared_s, shared_t, pool = self.make_layer(2, k=k)
        x = ad.Tensor(np.random.default_rng(3).standard_normal((4, 5, 6)))
        out, decision = moe_layer_forward(router, shared_s, shared_t, pool, x)
        dense = np.zeros_like(out.data)
        for e, kind in enumerate(pool):
            col = decision.weights.data[:, e]
            if not col.any():
                continue
            expert = expert_outputs((kind,), shared_s, shared_t, x)[kind].data
            dense += col[:, None, None] * expert
        np.testing.assert_allclose(out.data, dense, atol=1e-12)

    def test_homogeneous_pool_collapses_to_one_expert(self):
        router, shared_s, shared_t, _ = self.make_layer(4, k=4)
        x = ad.Tensor(np.random.default_rng(5).standard_normal((2, 5, 6)))
        out, decision = moe_layer_forward(router, shared_s, shared_t,
                                          ("ST", "ST", "ST", "ST"), x)
        single = expert_outputs(("ST",), shared_s, shared_t, x)["ST"].data
        # weights sum to 1, so N copies of one expert reduce to that expert
        np.testing.assert_allclose(out.data, single, atol=1e-12)
        assert decision.weights.data.sum(axis=1) == pytest.approx(1.0, abs=1e-12)

    def test_dropped_experts_get_no_gate_gradient(self):
        # k=2 of 4 (with k=1 even the kept weight is the constant 1 and every
        # gate gradient vanishes); distinct per-expert coefficients stand in
        # for distinct expert outputs
        router = make_router([[2.0, 1.0, 0.0, -1.0]], k=2)
        coeffs = ad.Tensor(np.array([[3.0, -1.0, 2.0, 5.0]]))
        with ad.Tape():
            decision = gate(router, ad.Tensor(np.zeros((1, 3, 2))))
            grads = ad.backward(ad.reduce_sum(ad.mul(decision.weights, coeffs)))
        gb = grads[router.gate_bias].data
        np.testing.assert_array_equal(decision.kept, [[0, 1]])
        assert gb[0] != 0.0 and gb[1] != 0.0
        assert gb[2] == 0.0 and gb[3] == 0.0

    def test_pool_router_width_mismatch(self):
        router, shared_s, shared_t, _ = self.make_layer(8)
        with pytest.raises(ad.ShapeError, match="pool"):
            moe_layer_forward(router, shared_s, shared_t, ("ST", "TT"),
                              ad.Tensor(np.zeros((1, 5, 6))))


def unshared_block(params, x, scan_mode):
    """A bidirectional block as two separate Mamba calls, one per direction,
    followed by the LN/FFN head."""
    out = None
    if scan_mode in ("bidirectional", "forward"):
        out = mamba_op(params.mamba, x)
    if scan_mode in ("bidirectional", "backward"):
        rev = reverse_axis(mamba_op(params.mamba, reverse_axis(x, 1)), 1)
        out = rev if out is None else ad.add(out, rev)
    core = ad.add(out, x)
    inner = layernorm_lastaxis(core, params.ln_inner_gamma, params.ln_inner_beta)
    hidden = relu(ad.add(ad.matmul(inner, params.ffn_w1), params.ffn_b1))
    ffn_out = ad.add(ad.matmul(hidden, params.ffn_w2), params.ffn_b2)
    return layernorm_lastaxis(ad.add(inner, ffn_out),
                              params.ln_outer_gamma, params.ln_outer_beta)


def unshared_mixture(router, shared_s, shared_t, pool, x, scan_mode):
    """The mixture with every expert composed from scratch: no stage is
    shared between experts and no block stacks its two directions."""
    def spatial(f):
        return unshared_block(shared_s, f, scan_mode)

    def temporal(f):
        return transpose(unshared_block(shared_t, transpose(f, 1, 2), scan_mode), 1, 2)

    stages = {"S": spatial, "T": temporal}
    decision = gate(router, x)
    out = None
    for e, kind in enumerate(pool):
        if not decision.weights.data[:, e].any():
            continue
        w_col = ad.reshape(ad.slice_axis(decision.weights, axis=1, start=e, stop=e + 1),
                           (x.shape[0], 1, 1))
        term = ad.mul(stages[kind[1]](stages[kind[0]](x)), w_col)
        out = term if out is None else ad.add(out, term)
    return out


class TestSharedComputation:
    def make_layer(self, pool, k, scan_mode="bidirectional"):
        rng = np.random.default_rng(20)
        d, t = 5, 7
        router = init_router(rng, d, len(pool), k)
        shared_s = init_bi_block(rng, channels=t, expand=2, state_dim=3, conv_width=2,
                                 scan_mode=scan_mode)
        shared_t = init_bi_block(rng, channels=d, expand=2, state_dim=3, conv_width=2,
                                 scan_mode=scan_mode, axis=2)
        params = [router.gate_weight, router.gate_bias,
                  *shared_s.parameters().values(), *shared_t.parameters().values()]
        return router, shared_s, shared_t, params

    @pytest.mark.parametrize("pool,k,scan_mode", [
        (EXPERT_KINDS, 4, "bidirectional"),
        (EXPERT_KINDS, 2, "bidirectional"),
        (("TS",), 1, "bidirectional"),
        (("SS", "ST", "SS"), 3, "bidirectional"),
        (EXPERT_KINDS, 4, "forward"),
        (EXPERT_KINDS, 4, "backward"),
    ])
    def test_matches_unshared_composition(self, pool, k, scan_mode):
        router, shared_s, shared_t, params = self.make_layer(pool, k, scan_mode)
        rng = np.random.default_rng(21)
        x_data = rng.standard_normal((4, 5, 7))
        w_data = rng.standard_normal((4, 5, 7))
        self.assert_matches_unshared(router, shared_s, shared_t, params, pool, x_data,
                                     w_data, scan_mode)

    @pytest.mark.parametrize("picks", [
        # T first serves row 2 alone (TT); S first serves every row
        [(0, 3), (0, 3), (0, 1), (0, 3)],
        # S first serves row 0 alone (SS); T first serves every row
        [(2, 3), (1, 2), (1, 2), (1, 2)],
    ])
    def test_single_row_first_stage_matches_unshared(self, picks):
        router, shared_s, shared_t, params = self.make_layer(EXPERT_KINDS, 2)
        rng = np.random.default_rng(24)
        x_data = pin_routing(router, rng.standard_normal((4, 5, 7)), picks)
        w_data = rng.standard_normal((4, 5, 7))
        decision = gate(router, ad.Tensor(x_data))
        np.testing.assert_array_equal(decision.kept, picks)
        self.assert_matches_unshared(router, shared_s, shared_t, params, EXPERT_KINDS,
                                     x_data, w_data, "bidirectional")

    @staticmethod
    def assert_matches_unshared(router, shared_s, shared_t, params, pool, x_data,
                                w_data, scan_mode):
        """The layer reads the scan setting from its blocks, the oracle from
        the arguments."""
        w = ad.Tensor(w_data)

        def run(mixture):
            for p in params:
                p.zero_grad()
            x = ad.Tensor(x_data, requires_grad=True)
            with ad.Tape():
                out = mixture(router, shared_s, shared_t, pool, x)
                grads = ad.backward(ad.reduce_sum(ad.mul(out, w)))
            return out.data, [grads[p].data for p in params] + [grads[x].data]

        out, grads = run(lambda *args: moe_layer_forward(*args)[0])
        ref_out, ref_grads = run(lambda *args: unshared_mixture(*args, scan_mode))

        assert np.abs(out - ref_out).max() <= 1e-12 * np.abs(ref_out).max()
        # some entries are sums that cancel to orders below the rest (the
        # temporal block's last LN shift feeding a spatial stage), so the
        # gradient is compared against the scale of the whole gradient
        scale = max(np.abs(ref).max() for ref in ref_grads)
        assert len(grads) == len(params) + 1
        for g, ref in zip(grads, ref_grads):
            assert np.abs(g - ref).max() <= 1e-12 * scale

    @pytest.mark.parametrize("pool,calls", [(EXPERT_KINDS, [6, 6, 12, 12]), (("ST",), [6, 6]),
                                            (("ST", "ST", "TT", "ST"), [6, 6, 12])])
    def test_block_and_mamba_calls_per_layer(self, pool, calls, monkeypatch):
        router, shared_s, shared_t, _ = self.make_layer(pool, len(pool))
        counted = []
        original = ssm._mamba_block

        def counting(params, xd, keep):
            counted.append(xd.shape[0])
            return original(params, xd, keep)

        monkeypatch.setattr(ssm, "_mamba_block", counting)
        x = ad.Tensor(np.random.default_rng(22).standard_normal((3, 5, 7)))
        moe_layer_forward(router, shared_s, shared_t, pool, x)
        # one call per first stage on 3 rows, both directions at once; the
        # kinds ending in the same stage stack their 3 + 3 rows into one
        # call, since its chunk buffer fits one tile
        assert counted == calls

    def test_recorded_layer_stacks_each_second_stage(self, monkeypatch):
        router, shared_s, shared_t, _ = self.make_layer(EXPERT_KINDS, 4)
        names = {id(shared_s.mamba): "S", id(shared_t.mamba): "T"}
        calls = []
        original = ssm._mamba_block

        def counting(params, xd, keep):
            calls.append((names[id(params)], xd.shape[0]))
            return original(params, xd, keep)

        monkeypatch.setattr(ssm, "_mamba_block", counting)
        x = ad.Tensor(np.random.default_rng(22).standard_normal((3, 5, 7)))
        with ad.Tape():
            moe_layer_forward(router, shared_s, shared_t, EXPERT_KINDS, x)
        # the block parameters put every stage on the tape: S first and T
        # first on 3 rows, then the costlier second stage's backward scratch
        # first, S second on TS's and SS's 3 + 3 rows (12 rows * q = 4 *
        # E*C = 14, q = ceil(sqrt(3 * 5))) before T second on ST's and TT's
        # (12 * 5 * 10, q = ceil(sqrt(3 * 7))), each call with both
        # directions stacked
        assert calls == [("S", 6), ("T", 6), ("S", 12), ("T", 12)]

    @pytest.mark.parametrize("k,picks", [
        (4, None),
        (2, [(0, 1), (0, 3), (1, 2), (0, 1)]),
        (2, [(2, 3), (1, 2), (1, 2), (1, 2)]),
    ])
    def test_recorded_forward_matches_tape_free(self, k, picks):
        router, shared_s, shared_t, _ = self.make_layer(EXPERT_KINDS, k)
        x_data = np.random.default_rng(27).standard_normal((4, 5, 7))
        if picks is not None:
            x_data = pin_routing(router, x_data, picks)
        free = moe_layer_forward(router, shared_s, shared_t, EXPERT_KINDS,
                                 ad.Tensor(x_data))[0].data
        with ad.Tape():
            recorded = moe_layer_forward(router, shared_s, shared_t, EXPERT_KINDS,
                                         ad.Tensor(x_data, requires_grad=True))[0].data
        assert np.abs(recorded - free).max() <= 1e-12 * np.abs(free).max()

    def test_float32_recorded_layer_matches_float64(self):
        # the same float32 values run in both dtypes; the output and every
        # gradient agree within 1e-5 of their float64 scale
        def run(dtype, values=None):
            ad.set_default_dtype(dtype)
            try:
                router, shared_s, shared_t, _ = self.make_layer(EXPERT_KINDS, 2)
                rng = np.random.default_rng(28)
                x = ad.Tensor(rng.standard_normal((4, 5, 7)), requires_grad=True)
                w = ad.Tensor(rng.uniform(0.5, 1.5, (4, 5, 7)))
                named = {"x": x, **router.parameters(),
                         **{f"s/{k}": v for k, v in shared_s.parameters().items()},
                         **{f"t/{k}": v for k, v in shared_t.parameters().items()}}
                if values is not None:
                    for name, t in named.items():
                        t.data = values[name].astype(dtype)
                with ad.Tape():
                    out, decision = moe_layer_forward(router, shared_s, shared_t,
                                                      EXPERT_KINDS, x)
                    ad.backward(ad.reduce_sum(ad.mul(out, w)))
            finally:
                ad.set_default_dtype(np.float64)
            return (out.data, decision.kept, {name: t.data for name, t in named.items()},
                    {name: t.grad for name, t in named.items()})

        out32, kept32, values, g32 = run(np.float32)
        out64, kept64, _, g64 = run(np.float64, values)
        np.testing.assert_array_equal(kept32, kept64)
        assert out32.dtype == np.float32
        assert np.abs(out32 - out64).max() <= 1e-5 * np.abs(out64).max()
        for name, g in g64.items():
            assert g32[name].dtype == np.float32, name
            err = np.abs(g32[name] - g).max() / np.abs(g).max()
            assert err <= 1e-5, f"{name}: {err:.3e}"

    def test_unused_first_stage_is_not_computed(self, monkeypatch):
        # k=1 with logits rigged to pick SS only: the temporal block never runs
        router, shared_s, shared_t, _ = self.make_layer(EXPERT_KINDS, 1)
        router.gate_weight.data[:] = 0.0
        router.gate_bias.data[:] = [0.0, 0.0, 0.0, 1.0]
        blocks = []
        original = ssm._mamba_block

        def counting(params, xd, keep):
            blocks.append(params)
            return original(params, xd, keep)

        monkeypatch.setattr(ssm, "_mamba_block", counting)
        x = ad.Tensor(np.random.default_rng(23).standard_normal((2, 5, 7)))
        moe_layer_forward(router, shared_s, shared_t, EXPERT_KINDS, x)
        assert blocks == [shared_s.mamba, shared_s.mamba]


class TestRowDispatch:
    def make_layer(self, k):
        return TestSharedComputation().make_layer(EXPERT_KINDS, k)[:3]

    def block_calls(self, router, shared_s, shared_t, x_data, monkeypatch):
        """(block, rows) of each stacked Mamba call of one mixture layer."""
        names = {id(shared_s.mamba): "S", id(shared_t.mamba): "T"}
        calls = []
        original = ssm._mamba_block

        def counting(params, xd, keep):
            calls.append((names[id(params)], xd.shape[0]))
            return original(params, xd, keep)

        monkeypatch.setattr(ssm, "_mamba_block", counting)
        moe_layer_forward(router, shared_s, shared_t, EXPERT_KINDS, ad.Tensor(x_data))
        return calls

    def test_each_stage_runs_on_its_routed_rows(self, monkeypatch):
        router, shared_s, shared_t = self.make_layer(2)
        # rows 0 and 3 keep ST and TT, row 1 ST and SS, row 2 TT and TS
        x_data = pin_routing(router, np.random.default_rng(25).standard_normal((4, 5, 7)),
                             [(0, 1), (0, 3), (1, 2), (0, 1)])
        calls = self.block_calls(router, shared_s, shared_t, x_data, monkeypatch)
        # each call stacks both directions, so it gets 2x the routed rows:
        # S first on rows {0, 1, 3}, T first on {0, 2, 3}, then the stacked
        # second stages, larger chunk buffer first: ST's rows {0, 1, 3} and
        # TT's {0, 2, 3} in the temporal block, TS's {2} and SS's {1} in the
        # spatial block
        assert calls == [("S", 6), ("T", 6), ("T", 12), ("S", 4)]

    def test_first_stage_no_routed_kind_needs_is_never_called(self, monkeypatch):
        router, shared_s, shared_t = self.make_layer(1)
        x_data = pin_routing(router, np.random.default_rng(26).standard_normal((3, 5, 7)),
                             [(0,), (3,), (0,)])
        calls = self.block_calls(router, shared_s, shared_t, x_data, monkeypatch)
        # S first on every row, ST's temporal stage on rows {0, 2}, SS's
        # spatial stage on row 1; no kind starting with T is routed
        assert calls == [("S", 6), ("T", 4), ("S", 2)]

    def test_full_pool_records_no_gather(self):
        # a train_overfit-shaped forward with k == n: every stage's rows are
        # the whole batch, so the tape holds the dense layer's nodes exactly
        # (four block calls, each second stage on its two kinds' stacked
        # rows; 60 nodes while each temporal stage recorded a transpose on
        # either side of its block)
        model = MotionMoE(ModelConfig(joints=3, history_frames=5, total_frames=8,
                                      active_experts=4, moe_layers=1, dropout=0.0, seed=0))
        hist = np.random.default_rng(0).standard_normal((8, 9, 5)) * 30.0
        with ad.Tape() as tape:
            model.forward(ad.Tensor(hist), train_mode=True, rng=np.random.default_rng(0))
        assert len(tape.nodes) == 56
        assert "take_rows" not in {node.op for node in tape.nodes}
