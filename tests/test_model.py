"""Whole-model tests: shape contracts, determinism, the frozen default
parameter budget, and the expert-pool sharing law."""

import tracemalloc

import numpy as np
import pytest

from motionmoe import autodiff as ad
from motionmoe import model as model_module
from motionmoe import moe, ssm
from motionmoe.dct import dct_forward
from motionmoe.model import ModelConfig, MotionMoE, audit_parameters
from oracles import directional_derivative_check, primitive_bi_block

MICRO = dict(joints=3, history_frames=5, total_frames=8, state_dim=4,
             conv_width=2, codec_hidden=12, dropout=0.0)


def micro_model(seed=0, **overrides):
    cfg = ModelConfig(**{**MICRO, **overrides, "seed": seed})
    return MotionMoE(cfg)


class TestConfig:
    def test_defaults_round_trip(self):
        cfg = ModelConfig()
        assert cfg.pose_dim == 45
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_validation(self):
        with pytest.raises(ValueError, match="history_frames"):
            ModelConfig(history_frames=75, total_frames=75)
        with pytest.raises(ValueError, match="active_experts"):
            ModelConfig(active_experts=5)
        # the expert count is the pool's length, so a pool shorter than k is refused
        with pytest.raises(ValueError, match=r"active_experts must be in \[1, 2\]"):
            ModelConfig(expert_pool=("ST", "TT"))
        with pytest.raises(ValueError, match="expert kind"):
            ModelConfig(expert_pool=("ST", "TT", "TS", "QQ"))
        with pytest.raises(ValueError, match="scan_mode"):
            ModelConfig(scan_mode="sideways")
        with pytest.raises(ValueError, match="dropout"):
            ModelConfig(dropout=1.0)

    def test_the_expert_count_is_the_pool_length(self):
        assert ModelConfig().n_experts == len(ModelConfig().expert_pool) == 4
        assert ModelConfig(expert_pool=("TS",), active_experts=1).n_experts == 1
        assert "n_experts" not in ModelConfig().to_dict()

    @pytest.mark.parametrize("legacy,error", [
        ({"n_experts": 4, "flip_back": True}, None),
        ({"n_experts": 3}, "n_experts"), ({"n_experts": 4.0}, "n_experts"),
        ({"flip_back": False}, "flip_back"), ({"flip_back": 1}, "flip_back"),
    ])
    def test_from_dict_drops_the_keys_of_0_2_1_only_at_their_one_value(self, legacy, error):
        d = {**ModelConfig().to_dict(), **legacy}
        if error is None:
            assert ModelConfig.from_dict(d) == ModelConfig()
        else:
            with pytest.raises(ValueError, match=error):
                ModelConfig.from_dict(d)

    def test_scene_persons_widen_pose(self):
        cfg = ModelConfig(joints=15, scene_persons=2)
        assert cfg.pose_dim == 90


class TestForward:
    def test_output_shape_and_decisions(self):
        model = micro_model()
        x = ad.Tensor(np.random.default_rng(1).standard_normal((4, 9, 5)))
        pred, decisions = model.forward(x)
        assert pred.shape == (4, 9, 8)
        assert len(decisions) == model.config.moe_layers
        assert decisions[0].weights.shape == (4, 4)

    def test_eval_forward_is_deterministic(self):
        model = micro_model()
        x = np.random.default_rng(2).standard_normal((2, 9, 5))
        a, _ = model.forward(ad.Tensor(x))
        b, _ = model.forward(ad.Tensor(x))
        np.testing.assert_array_equal(a.data, b.data)

    def test_same_seed_same_model(self):
        x = np.random.default_rng(3).standard_normal((2, 9, 5))
        a, _ = micro_model(seed=7).forward(ad.Tensor(x))
        b, _ = micro_model(seed=7).forward(ad.Tensor(x))
        np.testing.assert_array_equal(a.data, b.data)
        c, _ = micro_model(seed=8).forward(ad.Tensor(x))
        assert np.abs(a.data - c.data).max() > 0.0

    def test_wrong_history_length_raises(self):
        model = micro_model()
        with pytest.raises(ad.ShapeError, match="history"):
            model.forward(ad.Tensor(np.zeros((1, 9, 6))))
        with pytest.raises(ad.ShapeError):
            model.forward(ad.Tensor(np.zeros((1, 8, 5))))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_history_names_rows(self, bad):
        model = micro_model()
        x = np.random.default_rng(4).standard_normal((4, 9, 5))
        x[1, 3, 2] = bad
        x[3, 0, 4] = bad
        with pytest.raises(ValueError, match=r"non-finite history in batch row\(s\) 1, 3$"):
            model.forward(ad.Tensor(x))

    def test_train_mode_needs_rng_only_with_dropout(self):
        model = micro_model(dropout=0.2)
        x = ad.Tensor(np.zeros((1, 9, 5)))
        with pytest.raises(ValueError, match="rng"):
            model.forward(x, train_mode=True)
        model.forward(x, train_mode=True, rng=np.random.default_rng(0))
        micro_model(dropout=0.0).forward(x, train_mode=True)

    @pytest.mark.parametrize("mode", ["bidirectional", "forward", "backward"])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_mode_and_depth_sweep(self, mode, layers):
        model = micro_model(scan_mode=mode, moe_layers=layers)
        x = ad.Tensor(np.random.default_rng(4).standard_normal((2, 9, 5)))
        pred, decisions = model.forward(x)
        assert pred.shape == (2, 9, 8)
        assert len(decisions) == layers

    @pytest.mark.parametrize("mode", ["bidirectional", "forward", "backward"])
    def test_blocks_carry_the_config_scan_setting(self, mode):
        model = micro_model(scan_mode=mode, moe_layers=2)
        for layer in model.layers:
            for block in (layer.spatial, layer.temporal):
                assert block.scan_mode == mode

    @pytest.mark.parametrize("recorded,block_calls", [(True, 4), (False, 4)])
    def test_forward_reaches_the_module_globals(self, recorded, block_calls, monkeypatch):
        # perfbench's tracer times its moe.layer and ssm.block spans by
        # wrapping these names where the model and the mixture bind them;
        # each block call runs the Mamba kernel once, by its module global
        counts = {"layer": 0, "block": 0, "mamba": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(model_module, "moe_layer_forward",
                            counting("layer", model_module.moe_layer_forward))
        monkeypatch.setattr(moe, "bidirectional_forward",
                            counting("block", moe.bidirectional_forward))
        monkeypatch.setattr(ssm, "_mamba_block", counting("mamba", ssm._mamba_block))
        model = micro_model(moe_layers=2)
        x = ad.Tensor(np.random.default_rng(4).standard_normal((3, 9, 5)))
        if recorded:
            with ad.Tape():
                model.forward(x)
        else:
            model.forward(x)
        assert counts == {"layer": 2, "block": 2 * block_calls, "mamba": 2 * block_calls}

    @pytest.mark.parametrize("scan_mode", ["bidirectional", "forward"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fused_blocks_train_bit_for_bit_as_their_primitive_composition(
            self, dtype, scan_mode, monkeypatch):
        # each block's input also feeds ops recorded after the block (the
        # residual around the layers, the other stages): the fused spatial
        # block must add its shares of that input's adjoint in the order the
        # primitive composition does, or the last bits move.  The oracle
        # runs the temporal block on a transposed copy of its input, whose
        # adjoint sums the shares first, (core + forward) + reversed, and
        # the fused temporal block must hand over that one sum; a forward
        # scan has two shares

        def step():
            ad.set_default_dtype(dtype)
            try:
                model = micro_model(dropout=0.1, moe_layers=2, scan_mode=scan_mode)
                rng = np.random.default_rng(11)
                x = ad.Tensor(rng.standard_normal((4, 9, 5)))
                w = ad.Tensor(rng.standard_normal((4, 9, 8)))
                params = model.parameters()
                with ad.Tape():
                    pred, _ = model.forward(x, train_mode=True, rng=np.random.default_rng(12))
                    loss = ad.reduce_sum(ad.mul(pred, w))
                    grads = ad.backward(loss)
            finally:
                ad.set_default_dtype(np.float64)
            return [loss.data] + [grads[params[name]].data for name in sorted(params)]

        fused = step()
        monkeypatch.setattr(moe, "bidirectional_forward", primitive_bi_block)
        oracle = step()
        assert len(fused) == len(oracle) > 40
        for got, want in zip(fused, oracle):
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()

    def test_fused_blocks_train_bit_for_bit_at_the_default_shapes(self, monkeypatch):
        # numpy's GEMMs round by operand layout at these shapes, not at the
        # micro model's: a float64 step on one row moved 52 of its arrays'
        # last bits while the temporal block stacked a transposed view of
        # its input without putting it in C order
        def step():
            model = MotionMoE(ModelConfig(dropout=0.0))
            cfg = model.config
            rng = np.random.default_rng(11)
            x = ad.Tensor(rng.standard_normal((1, cfg.pose_dim, cfg.history_frames)))
            w = ad.Tensor(rng.standard_normal((1, cfg.pose_dim, cfg.total_frames)))
            params = model.parameters()
            with ad.Tape():
                pred, _ = model.forward(x)
                loss = ad.reduce_sum(ad.mul(pred, w))
                grads = ad.backward(loss)
            return [loss.data] + [grads[params[name]].data for name in sorted(params)]

        fused = step()
        monkeypatch.setattr(moe, "bidirectional_forward", primitive_bi_block)
        oracle = step()
        assert len(fused) == len(oracle) > 40
        for got, want in zip(fused, oracle):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_active_expert_sweep(self, k):
        model = micro_model(active_experts=k)
        x = ad.Tensor(np.random.default_rng(5).standard_normal((3, 9, 5)))
        pred, (decision,) = model.forward(x)
        assert pred.shape == (3, 9, 8)
        assert ((decision.weights.data != 0.0).sum(axis=1) == k).all()

    def test_history_frames_are_reconstructed_not_copied(self):
        model = micro_model()
        x = np.random.default_rng(6).standard_normal((2, 9, 5))
        pred, _ = model.forward(ad.Tensor(x))
        assert np.abs(pred.data[:, :, :5] - x).max() > 1e-3

    def test_end_to_end_gradient(self):
        model = micro_model()
        rng = np.random.default_rng(7)
        x = ad.Tensor(rng.standard_normal((2, 9, 5)), requires_grad=True)
        w = rng.uniform(0.5, 1.5, (2, 9, 8))

        def f(t):
            pred, _ = model.forward(t)
            return ad.reduce_sum(ad.mul(pred, ad.Tensor(w)))

        assert ad.finite_difference_check(f, x) < 1e-4

    def test_encode_is_numpy_pad_then_dct_then_codec(self):
        model = micro_model()
        x = np.random.default_rng(9).standard_normal((3, 9, 5))
        padded = np.concatenate([x, np.repeat(x[..., -1:], 3, axis=-1)], axis=-1)
        expected = model.codec.encode(dct_forward(ad.Tensor(padded), model.basis)).data
        np.testing.assert_array_equal(model.encode(x).data, expected)

    def test_gradient_reaches_last_history_frame(self):
        model = micro_model()
        rng = np.random.default_rng(10)
        x = ad.Tensor(rng.standard_normal((2, 9, 5)), requires_grad=True)
        w = rng.uniform(0.5, 1.5, (2, 9, 8))

        def f(t):
            return ad.reduce_sum(ad.mul(model.encode(t), ad.Tensor(w)))

        assert ad.finite_difference_check(f, x) < 1e-6
        # the last frame collects the gradient of the three frames padded from it
        padded = ad.Tensor(np.concatenate([x.data, np.repeat(x.data[..., -1:], 3, axis=-1)],
                                          axis=-1), requires_grad=True)
        with ad.Tape():
            ad.backward(f(x))
            coeffs = dct_forward(padded, model.basis)
            ad.backward(ad.reduce_sum(ad.mul(model.codec.encode(coeffs), ad.Tensor(w))))
        np.testing.assert_allclose(x.grad[..., :-1], padded.grad[..., :4], rtol=1e-12)
        np.testing.assert_allclose(x.grad[..., -1], padded.grad[..., 4:].sum(axis=-1),
                                   rtol=1e-12)

    def test_directional_derivative_over_parameters(self):
        model = micro_model()
        x = ad.Tensor(np.random.default_rng(8).standard_normal((2, 9, 5)))

        def f():
            pred, _ = model.forward(x)
            return ad.reduce_mean(ad.mul(pred, pred))

        err = directional_derivative_check(f, list(model.parameters().values()), seed=0)
        assert err < 1e-6


class TestTrainStepMemory:
    """The traced peak of a float32 ``ModelConfig()`` step (forward, sum of
    squares, backward), as ``tools/peak.py`` prints it.

    Each recorded block's Mamba kernel keeps y and the chunk starts after
    the first, and its backward rebuilds the rest, the conv's pre-activation
    and in_proj's halves and A^T included.  The backward releases each tape
    node once it has run, and the costlier second-stage calls are recorded
    first, so their backwards run last, once the other blocks' arrays are
    gone.  Stacked, each second stage's chunk buffer would exceed one tile,
    so each kind runs its own call.  A temporal stage is one block op on the
    (batch, D, T) features, and the chunks are q = ceil(sqrt(3L)) steps
    long, the step's optimum."""

    @staticmethod
    def step_peak(rows):
        ad.set_default_dtype(np.float32)
        try:
            model = MotionMoE(ModelConfig())
            cfg = model.config
            x = ad.Tensor(np.random.default_rng(0).standard_normal(
                (rows, cfg.pose_dim, cfg.history_frames)))
            tracemalloc.start()
            try:
                with ad.Tape():
                    pred, _ = model.forward(x, train_mode=True, rng=np.random.default_rng(1))
                    ad.backward(ad.reduce_sum(ad.mul(pred, pred)))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        finally:
            ad.set_default_dtype(np.float64)

    def test_a_float32_default_step_on_8_rows_peaks_under_15_mb(self):
        # measured: 14.38 MB; 16.55 MB while each call kept the conv's
        # pre-activation; 18.7 MB with a transposed copy on either side of
        # each temporal block, per-call copies of in_proj's halves and
        # q = ceil(sqrt(L)); 22.6 MB with the two kinds of each second
        # stage stacked into one call; 27.7 MB when spent nodes kept their
        # tensors, the stages ran in pool order and chunk 0's zero start was
        # kept; 34.6 MB while the kernel also kept the conv's sigmoid,
        # delta's pre-activation and silu(z)'s sigmoid
        peak = self.step_peak(8)
        assert peak < 15e6, f"{peak / 1e6:.2f} MB"

    def test_a_float32_default_step_on_32_rows_peaks_under_60_mb(self):
        # the default regime's batch (measured: 56.60 MB; 65.24 MB while
        # each call kept the conv's pre-activation)
        peak = self.step_peak(32)
        assert peak < 60e6, f"{peak / 1e6:.2f} MB"


class TestSecondStageStacking:
    """The kinds that end in the same stage run it as one call while that
    call's scan-gradient chunk buffer fits one tile, on and off the tape."""

    def block_calls(self, rows, recorded, monkeypatch):
        """(block, rows) of each Mamba call of a float32 ModelConfig()
        forward, and the model."""
        calls = []
        original = ssm._mamba_block
        ad.set_default_dtype(np.float32)
        try:
            model = MotionMoE(ModelConfig())
            cfg = model.config

            def counting(params, xd, keep):
                calls.append(("S" if xd.shape[1] == cfg.pose_dim else "T", xd.shape[0]))
                return original(params, xd, keep)

            monkeypatch.setattr(ssm, "_mamba_block", counting)
            x = ad.Tensor(np.random.default_rng(0).standard_normal(
                (rows, cfg.pose_dim, cfg.history_frames)))
            if recorded:
                with ad.Tape():
                    model.forward(x, train_mode=True, rng=np.random.default_rng(1))
            else:
                model.forward(x)
        finally:
            ad.set_default_dtype(np.float64)
        return calls, model

    @pytest.mark.parametrize("recorded", [True, False])
    def test_a_stack_within_one_tile_runs_as_one_call(self, recorded, monkeypatch):
        calls, model = self.block_calls(1, recorded, monkeypatch)
        # each stack holds 2 kind-rows: S second's buffer is 2 directions *
        # 2 rows * 12 steps (ceil(sqrt(3 * 45))) * 16 states * 150 channels
        # * 4 bytes, under half a tile, T second's 2 * 2 * 15 * 16 * 90 * 4
        # (were 268,800 and 207,360 bytes at q = ceil(sqrt(L)), 7 and 9)
        layer = model.layers[0]
        assert ssm._scan_chunk_bytes(layer.spatial, 2, 45, np.float32) == 460_800
        assert ssm._scan_chunk_bytes(layer.temporal, 2, 75, np.float32) == 345_600
        assert calls == [("S", 2), ("T", 2), ("S", 4), ("T", 4)]

    @pytest.mark.parametrize("recorded", [True, False])
    def test_a_stack_over_one_tile_runs_per_kind(self, recorded, monkeypatch):
        calls, model = self.block_calls(8, recorded, monkeypatch)
        # stacked, each second stage would hold 16 kind-rows: 3.69 and
        # 2.76 MB (2 * 16 * 12 * 16 * 150 * 4 and 2 * 16 * 15 * 16 * 90 * 4
        # bytes; 2.15 and 1.66 MB at q = 7 and 9), over the 1.05 MB tile, so
        # each kind runs its own call, TS and SS before ST and TT
        layer = model.layers[0]
        assert ssm._scan_chunk_bytes(layer.spatial, 16, 45, np.float32) == 3_686_400
        assert ssm._scan_chunk_bytes(layer.temporal, 16, 75, np.float32) == 2_764_800
        assert ssm._TILE_BYTES == 1 << 20
        assert calls == [("S", 16), ("T", 16)] + [("S", 16)] * 2 + [("T", 16)] * 2


class TestRecordOrder:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [2, 4])
    def test_the_costlier_second_stage_is_recorded_first_bit_for_bit(self, k, dtype,
                                                                     monkeypatch):
        # at ModelConfig() shapes, S second's scan-gradient chunk buffer is
        # kind-rows * 12 * 150 (L = 45, q = ceil(sqrt(3 * 45)), E*C = 150)
        # against T second's kind-rows * 15 * 90 (L = 75), so the S-ending
        # stack is recorded first on one row: 2 kind-rows per stack with
        # every kind routed, 1 (ST and TS) at k = 2.  Each stack's buffer
        # fits one tile in both dtypes (float64, 2 kind-rows: 2 directions
        # * 2 * 12 * 16 * 150 * 8 = 0.92 MB; 3 rows at k = 2, as before the
        # chunk rule, stack 3 kind-rows, 1.38 MB, and run per kind), so each
        # second stage is one call, and each first-stage output has at most
        # two consumers, whose adjoints add to the same bits in either
        # order: the step matches a recording in pool order byte for byte.
        # Per-kind calls give the shared blocks' weights three consumers,
        # and there the order moves last bits
        cfg = ModelConfig(active_experts=k)
        rows = 1
        calls = []
        original = ssm._mamba_block

        def counting(params, xd, keep):
            calls.append("S" if xd.shape[1] == cfg.pose_dim else "T")
            return original(params, xd, keep)

        monkeypatch.setattr(ssm, "_mamba_block", counting)

        def step():
            calls.clear()
            ad.set_default_dtype(dtype)
            try:
                model = MotionMoE(cfg)
                rng = np.random.default_rng(0)
                x = ad.Tensor(rng.standard_normal((rows, cfg.pose_dim, cfg.history_frames)))
                w = ad.Tensor(rng.standard_normal((rows, cfg.pose_dim, cfg.total_frames)))
                with ad.Tape():
                    pred, _ = model.forward(x, train_mode=True, rng=np.random.default_rng(4))
                    loss = ad.reduce_sum(ad.mul(pred, w))
                    ad.backward(loss)
            finally:
                ad.set_default_dtype(np.float64)
            grads = [p.grad for _, p in sorted(model.parameters().items())]
            return list(calls), [loss.data] + [g for g in grads if g is not None]

        order, arrays = step()
        # every call fits and ties: one call per stage, in pool order
        monkeypatch.setattr(moe, "_scan_chunk_bytes", lambda *args: 0)
        pool_order, want = step()
        assert order == ["S", "T", "S", "T"]
        assert pool_order == ["S", "T", "T", "S"]
        assert len(arrays) == len(want) > 40
        for got, expected in zip(arrays, want):
            assert got.dtype == expected.dtype == dtype
            assert got.tobytes() == expected.tobytes()


class TestParameterBudget:
    def test_default_config_total_is_frozen(self):
        audit = audit_parameters(MotionMoE(ModelConfig()))
        assert audit.total == 132472
        assert audit.sharing_ok and not audit.duplicates

    def test_expert_pool_size_does_not_change_block_budget(self):
        n4 = audit_parameters(micro_model(expert_pool=("ST", "TT", "TS", "SS")))
        n1 = audit_parameters(micro_model(active_experts=1, expert_pool=("ST",)))
        blocks4 = n4.per_module["layer0/spatial"] + n4.per_module["layer0/temporal"]
        blocks1 = n1.per_module["layer0/spatial"] + n1.per_module["layer0/temporal"]
        assert blocks4 == blocks1
        # only the router's one linear layer grows with the pool
        router_diff = n4.per_module["layer0/router"] - n1.per_module["layer0/router"]
        assert router_diff == 3 * (9 + 1)

    def test_homogeneous_pools_cost_the_same(self):
        audits = [audit_parameters(micro_model(expert_pool=(kind,) * 4))
                  for kind in ("ST", "TT", "TS", "SS")]
        totals = {a.total for a in audits}
        assert len(totals) == 1

    def test_layers_scale_linearly(self):
        a1 = audit_parameters(micro_model(moe_layers=1))
        a2 = audit_parameters(micro_model(moe_layers=2))
        a3 = audit_parameters(micro_model(moe_layers=3))
        per_layer = a2.total - a1.total
        assert a3.total - a2.total == per_layer
        assert per_layer == sum(count for module, count in a2.per_module.items()
                                if module.startswith("layer1/"))

    def test_parameter_names_cover_all_modules(self):
        model = micro_model(moe_layers=2)
        names = set(model.parameters())
        assert any(n.startswith("codec/enc0/") for n in names)
        assert any(n.startswith("layer0/router/") for n in names)
        assert any(n.startswith("layer1/spatial/mamba/") for n in names)
        assert any(n.startswith("layer1/temporal/ffn") or
                   n.startswith("layer1/temporal/") for n in names)

    def test_parameter_names_and_shapes_in_checkpoint_order(self):
        # the names and order that .stmc files store parameters under: a
        # rename or a reorder makes existing checkpoints unreadable.  D = 9
        # pose coordinates, T = 8 frames, hidden 12, N = 4 states, conv
        # width 2, dt rank 1, 4 experts
        codec = [(f"codec/{side}{i}/{leaf}", shape)
                 for side in ("enc", "dec")
                 for i, (c_in, c_out) in enumerate([(8, 12), (12, 12), (12, 8)])
                 for leaf, shape in [("adjacency", (9, 9)), ("weight", (c_in, c_out)),
                                     ("bias", (c_out,))]]

        def block(c):
            e = 2 * c
            return [("mamba/in_proj", (c, 2 * e)), ("mamba/conv_kernel", (e, 2)),
                    ("mamba/conv_bias", (e,)), ("mamba/x_proj", (e, 1 + 2 * 4)),
                    ("mamba/dt_proj", (1, e)), ("mamba/dt_bias", (e,)),
                    ("mamba/A_log", (e, 4)), ("mamba/out_proj", (e, c)),
                    ("ln_inner_gamma", (c,)), ("ln_inner_beta", (c,)),
                    ("ln_outer_gamma", (c,)), ("ln_outer_beta", (c,)),
                    ("ffn_w1", (c, 2 * c)), ("ffn_b1", (2 * c,)),
                    ("ffn_w2", (2 * c, c)), ("ffn_b2", (c,))]

        layers = [(f"layer{i}/{name}", shape)
                  for i in range(2)
                  for name, shape in [("router/gate_weight", (9, 4)), ("router/gate_bias", (4,)),
                                      *[(f"spatial/{n}", s) for n, s in block(8)],
                                      *[(f"temporal/{n}", s) for n, s in block(9)]]]
        model = micro_model(moe_layers=2)
        assert [(name, p.shape) for name, p in model.parameters().items()] == codec + layers
