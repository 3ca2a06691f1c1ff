"""Acceptance suite: eleven go/no-go checks, one test per criterion.

Each test prints a single ``criterion NN PASS/FAIL`` line (visible with
``pytest -s``) and pins its tolerances inline.  Run order follows the
numbering; the slow experiments sit at the end.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np

from motionmoe import autodiff as ad
from motionmoe import ssm
from motionmoe.cli import main
from motionmoe.data import GeneratorSpec, read_dataset, synth_generate, write_dataset
from motionmoe.dct import DctBasis, dct_forward, dct_inverse
from motionmoe.model import ModelConfig, MotionMoE, audit_parameters
from motionmoe.moe import RouterParams, expert_outputs, gate, moe_layer_forward
from motionmoe.objectives import (ape, jpe, spatial_loss,
                                  temporal_consistency_loss)
from motionmoe.training import (AdamState, TrainSettings, evaluate, fit,
                                load_checkpoint, run_epoch, save_checkpoint)
from oracles import (ORACLE_OPS, directional_derivative_check, mamba_op, primitive_cases,
                     reverse_axis, selective_scan_reference, weighted_sum)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL: {label}", flush=True)
        raise
    print(f"criterion {number:02d} PASS: {label}", flush=True)


MICRO_MODEL = dict(joints=3, history_frames=5, total_frames=8, state_dim=4,
                   conv_width=2, codec_hidden=12, dropout=0.0)


def overfit_problem():
    """The scaled-down experiment: 32 two-person sequences, 8 frames."""
    config = ModelConfig(joints=3, history_frames=5, total_frames=8,
                         active_experts=4, moe_layers=1, dropout=0.0, seed=0)
    data = synth_generate(GeneratorSpec(sequences=32, persons=2, frames=8,
                                        joints=3, scale=30.0, seed=0))
    settings = TrainSettings(epochs=200, batch_size=4, base_lr=0.01,
                             horizons=(0.04, 0.12), seed=0)
    return config, data, settings


def test_criterion_01_gradient_suite():
    with criterion(1, "finite differences: primitives < 1e-6, composites < 1e-4, "
                      "suite < 5 min"):
        started = time.perf_counter()
        covered = set()
        worst = 0.0
        # the registered primitives and the oracle ones, 22 ops in all
        for name in (*ad.primitive_names(), *ORACLE_OPS):
            for seed in range(5):
                rng = np.random.default_rng(seed)
                for f, leaf in primitive_cases(name, rng):
                    err = ad.finite_difference_check(f, leaf)
                    worst = max(worst, err)
                    assert err < 1e-6, f"{name} seed {seed}: {err:.3e}"
            covered.add(name)
        assert covered == {*ad.primitive_names(), *ORACLE_OPS} and len(covered) == 22

        block = ssm.init_mamba_block(np.random.default_rng(0), channels=4,
                                     expand=2, state_dim=3, conv_width=2, dt_rank=2)
        rng = np.random.default_rng(1)
        x = ad.Tensor(rng.standard_normal((2, 5, 4)), requires_grad=True)
        w = rng.uniform(0.5, 1.5, (2, 5, 4))
        err = ad.finite_difference_check(
            lambda t: weighted_sum(mamba_op(block, t), w), x)
        assert err < 1e-4, f"mamba block: {err:.3e}"

        wrapper = ssm.init_bi_block(np.random.default_rng(2), channels=4,
                                    expand=2, state_dim=3, conv_width=2)
        x2 = ad.Tensor(rng.standard_normal((2, 6, 4)), requires_grad=True)
        w2 = rng.uniform(0.5, 1.5, (2, 6, 4))
        err = ad.finite_difference_check(
            lambda t: weighted_sum(ssm.bidirectional_forward(wrapper, t), w2), x2)
        assert err < 1e-4, f"bidirectional wrapper: {err:.3e}"

        model = MotionMoE(ModelConfig(**MICRO_MODEL, seed=0))
        gt = ad.Tensor(rng.standard_normal((2, 3, 3, 8)))
        hist = ad.Tensor(rng.standard_normal((2, 9, 5)), requires_grad=True)

        def micro_loss(t):
            pred, _ = model.forward(t)
            pred4 = ad.reshape(pred, (2, 3, 3, 8))
            return ad.add(spatial_loss(pred4, gt, 5),
                          temporal_consistency_loss(pred4, gt))

        err = ad.finite_difference_check(micro_loss, hist)
        assert err < 1e-4, f"end-to-end loss: {err:.3e}"

        err = directional_derivative_check(lambda: micro_loss(hist),
                                           list(model.parameters().values()),
                                           seed=3)
        assert err < 1e-4, f"end-to-end parameter direction: {err:.3e}"

        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"suite took {elapsed:.1f}s"


def test_criterion_02_scan_oracle():
    with criterion(2, "scan kernel == naive recurrence within 1e-6 "
                      "relative, 20 seeds"):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            bsz = int(rng.integers(1, 4))
            length = int(rng.integers(1, 33))
            inner = int(rng.integers(1, 9))
            n = int(rng.integers(1, 9))
            delta = rng.uniform(0.05, 1.0, (bsz, length, inner))
            a = -rng.uniform(0.1, 3.0, (inner, n))
            b = rng.standard_normal((bsz, length, n))
            c = rng.standard_normal((bsz, length, n))
            u = rng.standard_normal((bsz, length, inner))
            fused = ssm._scan_forward(delta, np.ascontiguousarray(a.T), b, c, u, keep=False)[0]
            # the oracle gets the discretization computed separately
            a_bar = np.exp(delta[..., None] * a)
            b_bar = delta[..., None] * b[:, :, None, :]
            naive = selective_scan_reference(a_bar, b_bar, c, u)
            bound = 1e-6 * max(1.0, float(np.abs(naive).max()))
            assert np.abs(fused - naive).max() <= bound, f"seed {seed}"


def test_criterion_03_dct_round_trip():
    with criterion(3, "DCT inverse(forward) identity and energy preservation "
                      "within 1e-10 on (4, 45, 75)"):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 45, 75))
        basis = DctBasis(75)
        coeffs = dct_forward(ad.Tensor(x), basis)
        back = dct_inverse(coeffs, basis)
        assert np.abs(back.data - x).max() < 1e-10
        energy_in = np.sum(x ** 2, axis=-1)
        energy_out = np.sum(coeffs.data ** 2, axis=-1)
        assert np.abs(energy_out - energy_in).max() < 1e-10


def test_criterion_04_routing_laws():
    with criterion(4, "top-k weights: N-k zeros, sum 1e-6, dense oracle 1e-6, "
                      "shift invariance 1e-9"):
        rng = np.random.default_rng(0)
        logit_rows = rng.standard_normal((8, 4))

        def decisions_for(rows, k):
            router = RouterParams(gate_weight=ad.Tensor(np.zeros((3, 4))),
                                  gate_bias=ad.Tensor(np.zeros(4)), k=k)
            out = []
            for row in rows:
                router.gate_bias.data[:] = row
                out.append(gate(router, ad.Tensor(np.zeros((1, 3, 2)))))
            return out

        for k in (1, 2, 3, 4):
            for decision in decisions_for(logit_rows, k):
                w = decision.weights.data[0]
                assert (w == 0.0).sum() == 4 - k
                assert abs(w.sum() - 1.0) < 1e-6

        for shift in (-50.0, 37.5, 200.0):
            for base, moved in zip(decisions_for(logit_rows, 2),
                                   decisions_for(logit_rows + shift, 2)):
                np.testing.assert_array_equal(base.kept, moved.kept)
                assert np.abs(base.weights.data - moved.weights.data).max() < 1e-9

        from motionmoe.moe import init_router
        from motionmoe.ssm import init_bi_block
        router = init_router(rng, pose_dim=5, n_experts=4, k=4)
        shared_s = init_bi_block(rng, channels=6, expand=2, state_dim=3, conv_width=2)
        shared_t = init_bi_block(rng, channels=5, expand=2, state_dim=3, conv_width=2, axis=2)
        pool = ("ST", "TT", "TS", "SS")
        x = ad.Tensor(rng.standard_normal((3, 5, 6)))
        out, decision = moe_layer_forward(router, shared_s, shared_t, pool, x)
        dense = np.zeros_like(out.data)
        for e, kind in enumerate(pool):
            dense += (decision.weights.data[:, e][:, None, None]
                      * expert_outputs((kind,), shared_s, shared_t, x)[kind].data)
        assert np.abs(out.data - dense).max() < 1e-6


def test_criterion_05_sharing_audit():
    with criterion(5, "expert-pool parameter count identical for N=1 and N=4 "
                      "pools (exact)"):
        hetero = audit_parameters(MotionMoE(ModelConfig(
            **MICRO_MODEL, active_experts=4,
            expert_pool=("ST", "TT", "TS", "SS"))))
        homo = audit_parameters(MotionMoE(ModelConfig(
            **MICRO_MODEL, active_experts=1, expert_pool=("ST",))))
        pool_hetero = (hetero.per_module["layer0/spatial"]
                       + hetero.per_module["layer0/temporal"])
        pool_homo = (homo.per_module["layer0/spatial"]
                     + homo.per_module["layer0/temporal"])
        assert pool_hetero == pool_homo
        assert hetero.sharing_ok and homo.sharing_ok


def test_criterion_06_bidirectional_equivariance():
    with criterion(6, "block(reverse(x)) == reverse(block(x)) within 1e-12, "
                      "10 parameterizations"):
        for seed in range(10):
            params = ssm.init_bi_block(np.random.default_rng(seed), channels=6,
                                       expand=2, state_dim=4, conv_width=3)
            x = ad.Tensor(np.random.default_rng(100 + seed).standard_normal((2, 9, 6)))
            lhs = ssm.bidirectional_forward(params, reverse_axis(x, 1)).data
            rhs = reverse_axis(ssm.bidirectional_forward(params, x), 1).data
            assert np.abs(lhs - rhs).max() < 1e-12, f"seed {seed}"


def test_criterion_07_loss_metric_identities():
    with criterion(7, "zero identities, APE shift invariance 1e-9, "
                      "3-4-5 joint error exactly 5"):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 3, 8))
        same = ad.Tensor(x)
        assert spatial_loss(same, ad.Tensor(x.copy()), 5).item() == 0.0
        assert temporal_consistency_loss(same, ad.Tensor(x.copy())).item() == 0.0
        frame = x[..., 0]
        assert jpe(frame, frame.copy()) == 0.0
        assert ape(frame, frame.copy()) == 0.0

        pred = rng.standard_normal((3, 6, 3))
        gt = rng.standard_normal((3, 6, 3))
        shift = rng.standard_normal((3, 1, 3)) * 100.0
        assert abs(ape(pred + shift, gt) - ape(pred, gt)) < 1e-9

        displaced_gt = np.zeros((1, 1, 3))
        displaced = np.array([[[3.0, 4.0, 0.0]]])
        assert jpe(displaced, displaced_gt) == 5.0


def test_criterion_08_overfit_experiment():
    with criterion(8, "200-epoch overfit: loss < 10% of epoch 1, Avg JPE < 5, "
                      "< 10 min, bit-exact rerun"):
        assert ad.get_default_dtype() == np.float64

        def run():
            config, data, settings = overfit_problem()
            model = MotionMoE(config)
            log = fit(model, data, None, settings)
            report = evaluate(model, data, settings)
            return model, log, report

        started = time.perf_counter()
        model, log, report = run()
        elapsed = time.perf_counter() - started

        first, last = log[0]["train_loss"], log[-1]["train_loss"]
        assert len(log) == 200
        assert last < 0.10 * first, f"loss ratio {last / first:.3f}"
        assert report.avg_jpe < 5.0, f"Avg JPE {report.avg_jpe:.2f}"
        assert elapsed < 600.0, f"run took {elapsed:.0f}s"

        model2, log2, report2 = run()
        assert [r["train_loss"] for r in log] == [r["train_loss"] for r in log2]
        assert report.avg_jpe == report2.avg_jpe
        for name, p in model.parameters().items():
            np.testing.assert_array_equal(p.data, model2.parameters()[name].data)


def test_criterion_09_ablation_matrix_smoke():
    with criterion(9, "scan modes x k x depth x pools: 180 configs run one "
                      "train + eval epoch"):
        data = synth_generate(GeneratorSpec(sequences=8, persons=1, frames=8,
                                            joints=3, scale=30.0, seed=0))
        pools = [("ST", "TT", "TS", "SS")] + [(kind,) * 4 for kind in
                                              ("ST", "TT", "TS", "SS")]
        settings = TrainSettings(epochs=1, batch_size=8, base_lr=0.01,
                                 horizons=(0.04,), seed=0)
        combos = list(itertools.product(ssm.SCAN_MODES, (1, 2, 3, 4),
                                        (1, 2, 3), pools))
        assert len(combos) == 180
        for mode, k, depth, pool in combos:
            model = MotionMoE(ModelConfig(**MICRO_MODEL, scan_mode=mode,
                                          active_experts=k, moe_layers=depth,
                                          expert_pool=pool))
            log = fit(model, data, None, settings)
            assert len(log) == 1 and np.isfinite(log[0]["train_loss"])
            report = evaluate(model, data, settings)
            assert np.isfinite(report.avg_jpe)
            pred, decisions = model.forward(ad.Tensor(
                np.random.default_rng(1).standard_normal((2, 9, 5))))
            assert pred.shape == (2, 9, 8)
            assert len(decisions) == depth


def test_criterion_10_complexity_exponent(tmp_path):
    with criterion(10, "scan-path time growth exponent < 1.3 over lengths "
                       "32..256"):
        out = tmp_path / "bench.tsv"
        code = main(["bench", "--lengths", "32,64,128,256", "--channels", "32",
                     "--batch", "4", "--repeats", "3", "--out", str(out)])
        assert code == 0
        last = out.read_text().strip().splitlines()[-1]
        label, value = last.split("\t")
        assert label == "exponent"
        assert float(value) < 1.3, f"exponent {value}"


def test_criterion_11_persistence(tmp_path):
    with criterion(11, "MMP1 and checkpoint round trips bit-exact; 3+2 resume "
                       "== 5 straight"):
        data = synth_generate(GeneratorSpec(sequences=8, persons=1, frames=8,
                                            joints=3, scale=30.0, seed=0))
        path_a, path_b = tmp_path / "a.mmp1", tmp_path / "b.mmp1"
        write_dataset(data, path_a)
        write_dataset(read_dataset(path_a), path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

        config = ModelConfig(**MICRO_MODEL, seed=0)
        settings = TrainSettings(epochs=1, batch_size=4, base_lr=0.01,
                                 horizons=(0.04,), seed=0)
        model = MotionMoE(config)
        optim = AdamState()
        rng = np.random.default_rng(0)
        run_epoch(model, data, settings, optim, rng, 0)
        ck_a, ck_b = tmp_path / "a.stmc", tmp_path / "b.stmc"
        save_checkpoint(ck_a, model, optim, 1, rng)
        ckpt = load_checkpoint(ck_a)
        from motionmoe.training import model_from_checkpoint
        save_checkpoint(ck_b, model_from_checkpoint(ckpt), ckpt.optim_state(),
                        ckpt.epoch, ckpt.rng())
        assert ck_a.read_bytes() == ck_b.read_bytes()

        def straight():
            model = MotionMoE(ModelConfig(**MICRO_MODEL, seed=0))
            fit(model, data, None, TrainSettings(epochs=5, batch_size=4,
                                                 base_lr=0.01, horizons=(0.04,)))
            return model

        def split():
            model = MotionMoE(ModelConfig(**MICRO_MODEL, seed=0))
            first = TrainSettings(epochs=3, batch_size=4, base_lr=0.01,
                                  horizons=(0.04,), out_dir=str(tmp_path))
            fit(model, data, None, first)
            ckpt = load_checkpoint(tmp_path / "checkpoint_00003.stmc")
            resumed = MotionMoE(ModelConfig(**MICRO_MODEL, seed=0))
            fit(resumed, data, None,
                TrainSettings(epochs=5, batch_size=4, base_lr=0.01,
                              horizons=(0.04,)), resume=ckpt)
            return resumed

        reference, resumed = straight(), split()
        for name, p in reference.parameters().items():
            np.testing.assert_array_equal(p.data, resumed.parameters()[name].data,
                                          err_msg=name)
