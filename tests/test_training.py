"""Trainer tests: the decayed learning-rate schedule, Adam against hand
values, deterministic runs, checkpoint round trips and bit-exact resume."""

import gc
import json
import struct
import weakref

import numpy as np
import pytest

from motionmoe import autodiff as ad
from motionmoe import data, training
from motionmoe.data import (DataError, GeneratorSpec, flatten_poses, synth_generate,
                            write_dataset)
from motionmoe.model import ModelConfig, MotionMoE
from motionmoe.training import (AdamState, TrainingError, TrainSettings,
                                adam_step, evaluate, fit, load_checkpoint,
                                lr_at_epoch, model_from_checkpoint,
                                restore_into, run_epoch, save_checkpoint,
                                scene_batches)

MICRO_MODEL = dict(joints=3, history_frames=5, total_frames=8, state_dim=4,
                   conv_width=2, codec_hidden=12, dropout=0.0)
MICRO_DATA = dict(sequences=8, persons=1, frames=8, joints=3, seed=0, scale=30.0)


def micro_setup(model_seed=0, data_seed=0, **settings_overrides):
    model = MotionMoE(ModelConfig(**MICRO_MODEL, seed=model_seed))
    seqs = synth_generate(GeneratorSpec(**{**MICRO_DATA, "seed": data_seed}))
    settings = TrainSettings(**{"epochs": 2, "batch_size": 4, "base_lr": 0.01,
                                "horizons": (0.04, 0.12), **settings_overrides})
    return model, seqs, settings


def restamped(raw: bytes, edit) -> bytes:
    """The version-2 checkpoint ``raw`` with ``edit`` applied to its header
    dict, re-checksummed, so that only the edited header is wrong."""
    head = struct.Struct("<4sIQ")
    magic, version, head_len = head.unpack_from(raw)
    header = json.loads(raw[head.size:head.size + head_len])
    edit(header)
    head_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return b"".join(data.with_crc([head.pack(magic, version, len(head_bytes)), head_bytes,
                                   raw[head.size + head_len:-4]]))


class TestSchedule:
    def test_decade_per_fifty_epochs(self):
        assert lr_at_epoch(0.01, 0) == 0.01
        assert lr_at_epoch(0.01, 50) == pytest.approx(0.001, rel=1e-12)
        assert lr_at_epoch(0.01, 100) == pytest.approx(0.0001, rel=1e-12)
        assert lr_at_epoch(0.01, 25) == pytest.approx(0.01 * 10 ** -0.5, rel=1e-12)

    def test_monotone_decay(self):
        values = [lr_at_epoch(0.01, e) for e in range(0, 200, 10)]
        assert all(a > b for a, b in zip(values, values[1:]))


def per_parameter_adam(state, params, grads, lr):
    """Adam one parameter at a time: the oracle that the flat update must
    match bit for bit."""
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


def random_gradients(params, rng, leave_out=()):
    return {name: (rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 2)).astype(p.data.dtype)
            for name, p in params.items() if name not in leave_out}


def bits(arrays):
    return {name: (a.dtype.str, a.shape, a.tobytes()) for name, a in arrays.items()}


class TestAdam:
    def test_constant_gradient_moves_by_lr(self):
        # with g constant, bias correction makes every step exactly
        # lr * g / (|g| + eps') with both moments' corrections cancelling
        p = ad.Tensor(np.zeros(3), requires_grad=True)
        state = AdamState()
        g = np.ones(3)
        for step in range(1, 6):
            adam_step(state, {"p": p}, {"p": g}, lr=0.1)
            expected = -step * 0.1 / (1.0 + 1e-8)
            np.testing.assert_allclose(p.data, expected, rtol=1e-12)
        assert state.step == 5

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        p = ad.Tensor(rng.standard_normal(4), requires_grad=True)
        ref = p.data.copy()
        m = np.zeros(4)
        v = np.zeros(4)
        state = AdamState(beta1=0.9, beta2=0.999, eps=1e-8)
        for step in range(1, 8):
            g = rng.standard_normal(4)
            adam_step(state, {"p": p}, {"p": g.copy()}, lr=0.05)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mhat = m / (1 - 0.9 ** step)
            vhat = v / (1 - 0.999 ** step)
            ref = ref - 0.05 * mhat / (np.sqrt(vhat) + 1e-8)
            np.testing.assert_allclose(p.data, ref, rtol=1e-12)

    def test_missing_gradient_leaves_parameter(self):
        p = ad.Tensor(np.ones(2), requires_grad=True)
        q = ad.Tensor(np.ones(2), requires_grad=True)
        adam_step(AdamState(), {"p": p, "q": q}, {"p": np.ones(2)}, lr=0.1)
        assert np.abs(p.data - 1.0).max() > 0
        np.testing.assert_array_equal(q.data, np.ones(2))

    def test_nonfinite_gradient_names_parameter(self):
        p = ad.Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(TrainingError, match="codec/bad"):
            adam_step(AdamState(), {"codec/bad": p},
                      {"codec/bad": np.array([1.0, np.inf])}, lr=0.1)

    def test_nonfinite_gradient_changes_nothing(self):
        p = ad.Tensor(np.ones(2), requires_grad=True)
        q = ad.Tensor(np.ones(2), requires_grad=True)
        state = AdamState()
        with pytest.raises(TrainingError, match="'q'"):
            adam_step(state, {"p": p, "q": q}, {"p": np.ones(2), "q": np.array([1.0, np.inf])}, 0.1)
        np.testing.assert_array_equal(p.data, np.ones(2))
        assert state.step == 0 and state.m == {} and state.v == {}
        # and after a good step, a bad one leaves its moments alone too
        adam_step(state, {"p": p, "q": q}, {"p": np.ones(2), "q": np.ones(2)}, 0.1)
        before = bits({"p": p.data, "q": q.data, **state.m}), bits(state.v)
        with pytest.raises(TrainingError, match="'p'"):
            adam_step(state, {"p": p, "q": q}, {"p": np.array([np.nan, 0.0]), "q": np.ones(2)}, 0.1)
        assert (bits({"p": p.data, "q": q.data, **state.m}), bits(state.v)) == before
        assert state.step == 1

    def test_first_bad_parameter_named_across_dtypes(self):
        params = {name: ad.Tensor(np.ones(3), requires_grad=True, dtype=dtype)
                  for name, dtype in (("a", np.float64), ("b", np.float32), ("c", np.float64))}
        grads = {"a": np.ones(3), "b": np.array([1.0, np.inf, 1.0], dtype=np.float32),
                 "c": np.array([np.nan, 1.0, 1.0])}
        with pytest.raises(TrainingError, match="'b'"):
            adam_step(AdamState(), params, grads, lr=0.1)

    def test_missing_gradient_keeps_its_moments(self):
        p = ad.Tensor(np.ones(2), requires_grad=True)
        q = ad.Tensor(np.ones(2), requires_grad=True)
        state = AdamState()
        adam_step(state, {"p": p, "q": q}, {"p": np.ones(2), "q": np.full(2, 3.0)}, 0.1)
        kept = bits({"q": q.data, "m": state.m["q"], "v": state.v["q"]})
        adam_step(state, {"p": p, "q": q}, {"p": np.ones(2)}, 0.1)
        assert bits({"q": q.data, "m": state.m["q"], "v": state.v["q"]}) == kept

    @pytest.mark.parametrize("dtypes", [(np.float64,), (np.float32,), (np.float64, np.float32)])
    def test_flat_update_matches_per_parameter_oracle(self, dtypes):
        shapes = {"w": (3, 4), "b": (5,), "k": (2, 3, 2), "one": (1,), "s": ()}
        rng = np.random.default_rng(7)
        init = {name: rng.standard_normal(shape) for name, shape in shapes.items()}

        def make():
            return {name: ad.Tensor(v, requires_grad=True, dtype=dtypes[i % len(dtypes)])
                    for i, (name, v) in enumerate(init.items())}

        flat, oracle = make(), make()
        state, reference = AdamState(), AdamState()
        for step in range(6):
            # step 2 leaves "b" out, step 4 leaves out "w" and "s"
            grads = random_gradients(flat, rng, {2: ("b",), 4: ("w", "s")}.get(step, ()))
            norm = adam_step(state, flat, grads, lr=0.01 * (step + 1))
            per_parameter_adam(reference, oracle, grads, lr=0.01 * (step + 1))
            assert norm == pytest.approx(
                np.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads.values())),
                rel=1e-5)
            assert bits({n: p.data for n, p in flat.items()}) == \
                bits({n: p.data for n, p in oracle.items()}), step
            assert bits(state.m) == bits(reference.m) and bits(state.v) == bits(reference.v), step
        assert state.step == reference.step == 6
        if len(dtypes) == 2:  # a buffer never mixes dtypes
            assert state.m["w"].dtype == np.float64 and state.m["b"].dtype == np.float32
            assert not np.shares_memory(state.m["w"], state.m["b"])

    def test_checkpoint_and_resume_match_the_oracle(self, tmp_path):
        config = ModelConfig(**MICRO_MODEL, seed=0)
        model, twin = MotionMoE(config), MotionMoE(config)
        params, twin_params = model.parameters(), twin.parameters()
        leave_out = next(iter(params))
        state, reference = AdamState(), AdamState()
        rng = np.random.default_rng(1)
        for step in range(3):
            grads = random_gradients(params, rng, (leave_out,) if step == 1 else ())
            adam_step(state, params, grads, lr=0.01)
            per_parameter_adam(reference, twin_params, grads, lr=0.01)
        save_checkpoint(tmp_path / "flat.stmc", model, state, 1, np.random.default_rng(0))
        save_checkpoint(tmp_path / "oracle.stmc", twin, reference, 1, np.random.default_rng(0))
        assert (tmp_path / "flat.stmc").read_bytes() == (tmp_path / "oracle.stmc").read_bytes()

        # a resumed state adopts the loaded moments
        ckpt = load_checkpoint(tmp_path / "flat.stmc")
        resumed, resumed_state = model_from_checkpoint(ckpt), ckpt.optim_state()
        resumed_params = resumed.parameters()
        for step in range(3):
            grads = random_gradients(params, rng, (leave_out,) if step == 0 else ())
            adam_step(resumed_state, resumed_params, grads, lr=0.005)
            per_parameter_adam(reference, twin_params, grads, lr=0.005)
        save_checkpoint(tmp_path / "flat.stmc", resumed, resumed_state, 2, np.random.default_rng(0))
        save_checkpoint(tmp_path / "oracle.stmc", twin, reference, 2, np.random.default_rng(0))
        assert (tmp_path / "flat.stmc").read_bytes() == (tmp_path / "oracle.stmc").read_bytes()

    def test_clipping_scales_by_the_returned_norm(self):
        rng = np.random.default_rng(3)
        grads = {"a": rng.standard_normal((4, 3)), "b": rng.standard_normal(5)}
        given = bits(grads)
        clipped = {name: ad.Tensor(np.ones(g.shape), requires_grad=True) for name, g in grads.items()}
        scaled = {name: ad.Tensor(np.ones(g.shape), requires_grad=True) for name, g in grads.items()}
        norm = adam_step(AdamState(), clipped, grads, lr=0.1, max_norm=0.5)
        assert norm == pytest.approx(np.sqrt(sum((g * g).sum() for g in grads.values())), rel=1e-14)
        assert norm > 0.5
        adam_step(AdamState(), scaled, {n: g * (0.5 / norm) for n, g in grads.items()}, lr=0.1)
        assert bits({n: p.data for n, p in clipped.items()}) == \
            bits({n: p.data for n, p in scaled.items()})
        assert bits(grads) == given  # the caller's gradients are not scaled


class TestEpochs:
    def test_loss_decreases_on_micro_problem(self):
        model, seqs, settings = micro_setup(epochs=20)
        log = fit(model, seqs, None, settings)
        assert len(log) == 20
        assert log[-1]["train_loss"] < log[0]["train_loss"]

    def test_run_is_deterministic(self):
        losses = []
        for _ in range(2):
            model, seqs, settings = micro_setup(epochs=3)
            log = fit(model, seqs, None, settings)
            losses.append([r["train_loss"] for r in log])
        assert losses[0] == losses[1]

    def test_validation_metrics_logged(self):
        model, seqs, settings = micro_setup(epochs=1)
        log = fit(model, seqs, seqs, settings)
        assert set(log[0]) == {"epoch", "lr", "train_loss", "val_jpe", "val_ape",
                               "step_time_s", "samples_per_s", "grad_norm", "step_time_max_s"}
        assert log[0]["val_jpe"] > 0

    def test_epoch_reports_gradient_norm_and_slowest_step(self):
        # one step per epoch: the mean norm is that step's, and the step's
        # unclipped gradients are still on the parameters
        runs = []
        for stats in (None, {}):
            model, seqs, settings = micro_setup(batch_size=8)
            rng = np.random.default_rng(0)
            loss = run_epoch(model, seqs, settings, AdamState(), rng, 0, stats)
            runs.append((loss, rng.bit_generator.state))
        assert runs[0] == runs[1]  # reporting draws nothing from the RNG
        grads = [p.grad for p in model.parameters().values() if p.grad is not None]
        assert stats["grad_norm"] == pytest.approx(
            np.sqrt(sum(float((g * g).sum()) for g in grads)), rel=1e-12)
        assert stats["step_time_max_s"] > 0

        model, seqs, settings = micro_setup(epochs=1, grad_clip=1e-4)
        record = fit(model, seqs, None, settings)[0]
        assert record["grad_norm"] > 1e-4  # logged before clipping
        assert record["step_time_max_s"] > 0

    def test_gradient_clip_changes_updates(self):
        runs = {}
        for clip in (0.0, 1e-4):
            model, seqs, settings = micro_setup(epochs=1, grad_clip=clip)
            runs[clip] = fit(model, seqs, None, settings)[0]["train_loss"]
        assert runs[0.0] != runs[1e-4]

    def test_epoch_rng_drives_shuffle(self):
        model, seqs, settings = micro_setup(epochs=1)
        optim = AdamState()
        rng = np.random.default_rng(0)
        first = run_epoch(model, seqs, settings, optim, rng, epoch=0)
        assert np.isfinite(first)
        assert optim.step == 2  # 8 sequences / batch_size 4

    def test_step_tapes_are_freed_without_the_cyclic_collector(self, monkeypatch):
        tapes = []

        class WatchedTape(ad.Tape):
            def __enter__(self):
                tapes.append(weakref.ref(self))
                return super().__enter__()

        monkeypatch.setattr(training, "Tape", WatchedTape)
        model, seqs, settings = micro_setup(epochs=1)
        enabled = gc.isenabled()
        gc.disable()
        try:
            run_epoch(model, seqs, settings, AdamState(), np.random.default_rng(0), epoch=0)
            assert len(tapes) == 2 and all(ref() is None for ref in tapes)
        finally:
            if enabled:
                gc.enable()

    def test_a_train_step_records_every_registered_primitive_but_exp(self, monkeypatch):
        # the registry holds what production records; an op that only an
        # oracle needs is defined in tests/oracles.py
        assert ad.primitive_names() == (
            "add", "sub", "mul", "matmul", "exp", "tanh", "reshape", "reduce_mean", "reduce_sum",
            "softmax_lastaxis", "slice", "concat", "take_rows", "topk_mask")
        tapes = []

        class KeptTape(ad.Tape):
            def __enter__(self):
                tapes.append(self)
                return super().__enter__()

        monkeypatch.setattr(training, "Tape", KeptTape)
        seqs = synth_generate(GeneratorSpec(**MICRO_DATA))
        for k in (2, 4):  # take_rows gathers routed rows only while k < N
            model = MotionMoE(ModelConfig(**{**MICRO_MODEL, "dropout": 0.1}, active_experts=k))
            run_epoch(model, seqs, TrainSettings(epochs=1, batch_size=8), AdamState(),
                      np.random.default_rng(0), epoch=0)
        assert len(tapes) == 2
        recorded = {node.op for tape in tapes for node in tape.nodes}
        assert set(ad.primitive_names()) - recorded == {"exp"}

    def test_an_epoch_leaves_no_cyclic_garbage(self):
        # a spent tape and its tensors no longer point at each other, so
        # reference counting frees every step without clearing the tape
        model, seqs, settings = micro_setup(epochs=1)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            run_epoch(model, seqs, settings, AdamState(), np.random.default_rng(0), epoch=0)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_evaluate_is_read_only_and_deterministic(self):
        model, seqs, settings = micro_setup()
        before = {n: p.data.copy() for n, p in model.parameters().items()}
        r1 = evaluate(model, seqs, settings)
        r2 = evaluate(model, seqs, settings)
        assert r1.avg_jpe == r2.avg_jpe and r1.avg_ape == r2.avg_ape
        for n, p in model.parameters().items():
            np.testing.assert_array_equal(p.data, before[n])


class TestScenes:
    def test_a_scene_holds_the_persons_of_one_sequence(self):
        cfg = ModelConfig(**MICRO_MODEL, scene_persons=2)
        seqs = synth_generate(GeneratorSpec(**{**MICRO_DATA, "sequences": 5, "persons": 4}))
        scenes = {}
        for hist, target in scene_batches(cfg, seqs, 2, shuffle_seed=3):
            assert hist.shape[1:] == (18, 5) and target.shape[1:] == (18, 8)
            for h, g in zip(hist, target):
                scenes[g.tobytes()] = h
        # sequence i gives scenes (persons 0, 1) and (persons 2, 3), in any order
        assert len(scenes) == 10
        for seq in seqs:
            flat = flatten_poses(seq.positions.astype(np.float64))
            for pair in (flat[:2], flat[2:]):
                scene = pair.reshape(18, 8)
                np.testing.assert_array_equal(scenes[scene.tobytes()], scene[:, :5])

    def test_persons_not_dividing_into_scenes_raise_before_a_step(self):
        # with batch_size 2 the 6 person rows of a batch would divide into
        # scenes of 2, pairing persons of different sequences
        model = MotionMoE(ModelConfig(**MICRO_MODEL, scene_persons=2))
        seqs = synth_generate(GeneratorSpec(**{**MICRO_DATA, "persons": 3}))
        before = {n: p.data.copy() for n, p in model.parameters().items()}
        settings = TrainSettings(epochs=1, batch_size=2, horizons=(0.04,))
        with pytest.raises(DataError, match=r"sequence 0 has 3 person\(s\), not a multiple"):
            fit(model, seqs, None, settings)
        for n, p in model.parameters().items():
            np.testing.assert_array_equal(p.data, before[n])

    @pytest.mark.parametrize("spec,error", [
        (dict(joints=4), "4 joints, the model 3"),
        (dict(persons=3), r"3 person\(s\), not a multiple of scene_persons=2"),
        (dict(frames=7), "7 frames, needs >= 8"),
    ], ids=["joints", "persons", "frames"])
    def test_validation_data_the_model_cannot_read_raises_before_a_step(self, spec, error,
                                                                        monkeypatch):
        model = MotionMoE(ModelConfig(**MICRO_MODEL, scene_persons=2))
        seqs = synth_generate(GeneratorSpec(**{**MICRO_DATA, "persons": 2}))
        val = synth_generate(GeneratorSpec(**{**MICRO_DATA, "persons": 2, **spec}))
        steps = []
        monkeypatch.setattr(training, "run_epoch", lambda *args, **kwargs: steps.append(args))
        with pytest.raises(DataError, match=error):
            fit(model, seqs, val, TrainSettings(epochs=1, batch_size=2, horizons=(0.04,)))
        assert steps == []

    def test_other_joint_count_raises(self):
        model, _, settings = micro_setup()
        seqs = synth_generate(GeneratorSpec(**{**MICRO_DATA, "joints": 4}))
        with pytest.raises(DataError, match="4 joints, the model 3"):
            evaluate(model, seqs, settings)


class TestCheckpoints:
    def test_save_load_round_trip(self, tmp_path):
        model, seqs, settings = micro_setup(epochs=2)
        settings.out_dir = str(tmp_path)
        fit(model, seqs, None, settings)
        path = tmp_path / "checkpoint_00002.stmc"
        assert path.exists()

        ckpt = load_checkpoint(path)
        assert ckpt.epoch == 2
        assert ckpt.config == model.config
        for name, p in model.parameters().items():
            np.testing.assert_array_equal(ckpt.tensors[f"param/{name}"], p.data)

    def test_save_is_byte_deterministic(self, tmp_path):
        model, seqs, settings = micro_setup(epochs=1)
        optim = AdamState()
        rng = np.random.default_rng(3)
        run_epoch(model, seqs, settings, optim, rng, 0)
        save_checkpoint(tmp_path / "a.stmc", model, optim, 1, rng)
        save_checkpoint(tmp_path / "b.stmc", model, optim, 1, rng)
        assert (tmp_path / "a.stmc").read_bytes() == (tmp_path / "b.stmc").read_bytes()

    def test_load_save_is_byte_identical(self, tmp_path):
        model, seqs, settings = micro_setup(epochs=1)
        settings.out_dir = str(tmp_path)
        fit(model, seqs, None, settings)
        path = tmp_path / "checkpoint_00001.stmc"
        ckpt = load_checkpoint(path)
        clone = model_from_checkpoint(ckpt)
        save_checkpoint(tmp_path / "again.stmc", clone, ckpt.optim_state(),
                        ckpt.epoch, ckpt.rng())
        assert path.read_bytes() == (tmp_path / "again.stmc").read_bytes()

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        model, seqs, settings = micro_setup(epochs=5)
        straight = fit(model, seqs, None, settings)

        model2, _, settings2 = micro_setup(epochs=3)
        settings2.out_dir = str(tmp_path)
        first_leg = fit(model2, seqs, None, settings2)
        ckpt = load_checkpoint(tmp_path / "checkpoint_00003.stmc")

        model3 = MotionMoE(ModelConfig(**MICRO_MODEL, seed=0))
        for p in model3.parameters().values():
            p.data += 123.0  # stomped values must be overwritten by the restore
        settings3 = TrainSettings(epochs=5, batch_size=4, base_lr=0.01,
                                  horizons=(0.04, 0.12))
        second_leg = fit(model3, seqs, None, settings3, resume=ckpt)

        resumed = [r["train_loss"] for r in first_leg + second_leg]
        reference = [r["train_loss"] for r in straight]
        assert resumed == reference
        for name, p in model3.parameters().items():
            np.testing.assert_array_equal(p.data, model.parameters()[name].data)

    def test_float32_resume_matches_uninterrupted_run(self, tmp_path):
        previous = ad.get_default_dtype()
        ad.set_default_dtype(np.float32)
        try:
            model, seqs, settings = micro_setup(epochs=5)
            straight = fit(model, seqs, None, settings)
            model2, _, settings2 = micro_setup(epochs=3)
            settings2.out_dir = str(tmp_path)
            first_leg = fit(model2, seqs, None, settings2)
            ckpt = load_checkpoint(tmp_path / "checkpoint_00003.stmc")
            model3, _, settings3 = micro_setup(epochs=5)
            second_leg = fit(model3, seqs, None, settings3, resume=ckpt)
        finally:
            ad.set_default_dtype(previous)
        assert all(arr.dtype == np.float32 for arr in ckpt.tensors.values())
        resumed = [r["train_loss"] for r in first_leg + second_leg]
        assert resumed == [r["train_loss"] for r in straight]
        for name, p in model3.parameters().items():
            assert p.data.dtype == np.float32
            np.testing.assert_array_equal(p.data, model.parameters()[name].data)

    @pytest.mark.parametrize("k", [4, 2])
    def test_a_float32_checkpoint_is_served_in_float32(self, tmp_path, k):
        # built under a float64 default, the served model's parameters and
        # constants are float32, and its forecast has the bits of one served
        # under a float32 default; k = 2 scatters partly routed experts back
        # through a zero row
        config = ModelConfig(**{**MICRO_MODEL, "active_experts": k})
        history = np.random.default_rng(1).standard_normal((6, 9, 5))
        previous = ad.get_default_dtype()
        ad.set_default_dtype(np.float32)
        try:
            save_checkpoint(tmp_path / "f32.stmc", MotionMoE(config), AdamState(), 0,
                            np.random.default_rng(0))
            want = model_from_checkpoint(load_checkpoint(tmp_path / "f32.stmc")).forward(
                history)[0].data
        finally:
            ad.set_default_dtype(previous)
        ad.set_default_dtype(np.float64)
        try:
            model = model_from_checkpoint(load_checkpoint(tmp_path / "f32.stmc"))
            assert ad.get_default_dtype() == np.float64
            pred, decisions = model.forward(history)
            features = model.encode(ad.Tensor(history))
        finally:
            ad.set_default_dtype(previous)
        constants = {"pad": model.pad, "dct": model.basis._forward,
                     "idct": model.basis._inverse}
        for name, t in {**model.parameters(), **constants}.items():
            assert t.data.dtype == np.float32, name
        assert features.data.dtype == np.float32
        assert pred.data.dtype == decisions[0].weights.data.dtype == np.float32
        assert pred.data.tobytes() == want.tobytes()

    def test_mixed_parameter_dtypes_raise_training_error(self, tmp_path):
        model, _, _ = micro_setup()
        ckpt_path = tmp_path / "mixed.stmc"
        save_checkpoint(ckpt_path, model, AdamState(), 0, np.random.default_rng(0))
        ckpt = load_checkpoint(ckpt_path)
        name = next(iter(ckpt.tensors))
        ckpt.tensors[name] = ckpt.tensors[name].astype(np.float32)
        with pytest.raises(TrainingError, match="float32, float64"):
            ckpt.param_dtype()
        with pytest.raises(TrainingError, match="float32, float64"):
            model_from_checkpoint(ckpt)
        assert ad.get_default_dtype() == np.float64

    def test_config_mismatch_names_fields(self, tmp_path):
        model, seqs, settings = micro_setup(epochs=1)
        settings.out_dir = str(tmp_path)
        fit(model, seqs, None, settings)
        ckpt = load_checkpoint(tmp_path / "checkpoint_00001.stmc")
        other = MotionMoE(ModelConfig(**{**MICRO_MODEL, "state_dim": 8}))
        with pytest.raises(TrainingError, match="state_dim"):
            restore_into(other, ckpt)

    def test_expected_config_guard(self, tmp_path):
        model, seqs, settings = micro_setup(epochs=1)
        settings.out_dir = str(tmp_path)
        fit(model, seqs, None, settings)
        path = tmp_path / "checkpoint_00001.stmc"
        load_checkpoint(path, expected_config=model.config)
        with pytest.raises(TrainingError, match="mismatch"):
            load_checkpoint(path,
                            expected_config=ModelConfig(**{**MICRO_MODEL, "state_dim": 8}))

    def test_corrupt_payload_detected(self, tmp_path):
        model, seqs, settings = micro_setup(epochs=1)
        settings.out_dir = str(tmp_path)
        fit(model, seqs, None, settings)
        path = tmp_path / "checkpoint_00001.stmc"
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(TrainingError, match="magic"):
            load_checkpoint(path)

    def test_damaged_files_raise_training_error(self, tmp_path):
        model, seqs, settings = micro_setup(epochs=1)
        settings.out_dir = str(tmp_path)
        fit(model, seqs, None, settings)
        raw = (tmp_path / "checkpoint_00001.stmc").read_bytes()
        head = struct.Struct("<4sIQ")
        magic, version, head_len = head.unpack_from(raw)
        base = head.size + head_len
        damaged = tmp_path / "damaged.stmc"
        # cuts inside the header JSON, then inside the payload
        for offset in (head.size + 1, head.size + head_len // 2, base - 1,
                       base + 1, (base + len(raw)) // 2, len(raw) - 1):
            damaged.write_bytes(raw[:offset])
            with pytest.raises(TrainingError, match="truncated|past the end"):
                load_checkpoint(damaged)

        # an entry pointing past the end of an otherwise whole file
        header = json.loads(raw[head.size:base])
        header["tensors"][-1]["offset"] = len(raw)
        head_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        damaged.write_bytes(head.pack(magic, version, len(head_bytes)) + head_bytes
                            + raw[base:])
        with pytest.raises(TrainingError, match="past the end"):
            load_checkpoint(damaged)

        # a header whose JSON is cut although its length field was patched to fit
        cut = raw[head.size:base - 5]
        damaged.write_bytes(head.pack(magic, version, len(cut)) + cut + raw[base:])
        with pytest.raises(TrainingError, match="JSON"):
            load_checkpoint(damaged)

    def test_flipped_bytes_fail_the_checksum(self, tmp_path):
        model, seqs, settings = micro_setup(epochs=1)
        settings.out_dir = str(tmp_path)
        fit(model, seqs, None, settings)
        raw = (tmp_path / "checkpoint_00001.stmc").read_bytes()
        head = struct.Struct("<4sIQ")
        assert head.unpack_from(raw)[1] == training.CKPT_VERSION == 2
        base = head.size + head.unpack_from(raw)[2]
        epoch_digit = raw.index(b'"epoch":1') + len(b'"epoch":')
        damaged = tmp_path / "damaged.stmc"
        # a digit of the header JSON that still parses, then payload bytes
        for offset in (epoch_digit, base, (base + len(raw)) // 2, len(raw) - 5):
            flipped = bytearray(raw)
            flipped[offset] ^= 0x02
            damaged.write_bytes(bytes(flipped))
            with pytest.raises(TrainingError, match="checksum"):
                load_checkpoint(damaged)
        # a flip that renames a tensor entry's key ("offset" -> "odfset")
        flipped = bytearray(raw)
        flipped[raw.index(b'"offset"') + 2] ^= 0x02
        damaged.write_bytes(bytes(flipped))
        with pytest.raises(TrainingError, match="malformed"):
            load_checkpoint(damaged)

    def test_version_1_files_still_load(self, tmp_path):
        model, seqs, settings = micro_setup(epochs=1)
        settings.out_dir = str(tmp_path)
        fit(model, seqs, None, settings)
        raw = (tmp_path / "checkpoint_00001.stmc").read_bytes()
        head = struct.Struct("<4sIQ")
        magic, _, head_len = head.unpack_from(raw)
        header = json.loads(raw[head.size:head.size + head_len])
        header["version"] = 1
        head_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        # version 1: no checksum after the payload
        payload = raw[head.size + head_len:-4]
        old = tmp_path / "v1.stmc"
        old.write_bytes(head.pack(magic, 1, len(head_bytes)) + head_bytes + payload)
        ckpt = load_checkpoint(old)
        assert ckpt.epoch == 1
        for name, p in model.parameters().items():
            np.testing.assert_array_equal(ckpt.tensors[f"param/{name}"], p.data)

    @pytest.mark.parametrize("key,value", [("expand", 0), ("seed", -1), ("n_experts", 3),
                                           ("flip_back", False)])
    def test_an_invalid_stored_config_raises_training_error(self, tmp_path, key, value):
        model, seqs, settings = micro_setup(epochs=1)
        settings.out_dir = str(tmp_path)
        fit(model, seqs, None, settings)
        damaged = tmp_path / "damaged.stmc"
        damaged.write_bytes(restamped((tmp_path / "checkpoint_00001.stmc").read_bytes(),
                                      lambda header: header["config"].update({key: value})))
        with pytest.raises(TrainingError, match=f"invalid config: .*{key}"):
            load_checkpoint(damaged)

    @pytest.mark.parametrize("stored", [[], None, "ST,TT"])
    def test_a_stored_config_that_is_not_an_object_raises_training_error(self, tmp_path,
                                                                         stored):
        model, _, _ = micro_setup()
        path = tmp_path / "ckpt.stmc"
        save_checkpoint(path, model, AdamState(), 1, np.random.default_rng(0))
        path.write_bytes(restamped(path.read_bytes(),
                                   lambda header: header.update(config=stored)))
        with pytest.raises(TrainingError, match="invalid config: .*mapping"):
            load_checkpoint(path)

    def test_a_header_written_up_to_0_2_1_loads(self, tmp_path):
        # such a header's config also holds n_experts, the pool's length, and
        # flip_back = true
        model, _, _ = micro_setup()
        path = tmp_path / "current.stmc"
        save_checkpoint(path, model, AdamState(), 3, np.random.default_rng(0))
        old = tmp_path / "old.stmc"
        old.write_bytes(restamped(path.read_bytes(), lambda header: header["config"].update(
            n_experts=4, flip_back=True)))
        ckpt, want = load_checkpoint(old, expected_config=model.config), load_checkpoint(path)
        assert (ckpt.config, ckpt.epoch, ckpt.adam_meta) == (want.config, 3, want.adam_meta)
        assert ckpt.config.n_experts == 4
        assert ckpt.tensors.keys() == want.tensors.keys()
        for name, arr in want.tensors.items():
            assert ckpt.tensors[name].tobytes() == arr.tobytes()

    @pytest.mark.parametrize("field", ["epoch", "adam", "adam.step", "adam.beta1",
                                       "adam.beta2", "adam.eps", "rng_state"])
    def test_a_header_without_a_resume_field_raises_training_error(self, tmp_path, field):
        model, _, _ = micro_setup()
        path = tmp_path / "ckpt.stmc"
        save_checkpoint(path, model, AdamState(), 1, np.random.default_rng(0))

        def drop(header):
            *parents, last = field.split(".")
            for key in parents:
                header = header[key]
            del header[last]

        path.write_bytes(restamped(path.read_bytes(), drop))
        with pytest.raises(TrainingError, match=f"lacks the field '{field}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("entry,message", [
        *[(entry, "malformed tensor entry: 'param/codec/enc0/adjacency' has dtype")
          for entry in ({"shape": [-2]}, {"shape": [3, -1]}, {"dtype": "object"},
                        {"dtype": "int64"}, {"dtype": ">f8"})],
        # a size that wraps to 0 in int64 must not pass the bounds check
        ({"shape": [2 ** 32, 2 ** 32]}, "'param/codec/enc0/adjacency' runs past the end")])
    def test_a_malformed_tensor_entry_raises_training_error(self, tmp_path, entry, message):
        model, _, _ = micro_setup()
        path = tmp_path / "ckpt.stmc"
        save_checkpoint(path, model, AdamState(), 1, np.random.default_rng(0))
        path.write_bytes(restamped(path.read_bytes(),
                                   lambda header: header["tensors"][0].update(entry)))
        with pytest.raises(TrainingError, match=message):
            load_checkpoint(path)

    def test_a_zero_size_tensor_entry_loads_and_fails_the_shape_check(self, tmp_path):
        model, _, _ = micro_setup()
        path = tmp_path / "ckpt.stmc"
        save_checkpoint(path, model, AdamState(), 1, np.random.default_rng(0))
        path.write_bytes(restamped(path.read_bytes(),
                                   lambda header: header["tensors"][0].update(shape=[0])))
        ckpt = load_checkpoint(path)
        assert ckpt.tensors["param/codec/enc0/adjacency"].shape == (0,)
        with pytest.raises(TrainingError, match="'codec/enc0/adjacency' has shape \\(0,\\)"):
            model_from_checkpoint(ckpt)

    @pytest.mark.parametrize("field,value", [
        ("epoch", "1"), ("epoch", -1), ("epoch", True), ("epoch", 1.0), ("adam.step", "3"),
        ("adam.step", -1), ("adam.beta1", 1.0), ("adam.beta1", "0.9"), ("adam.beta2", -0.1),
        ("adam.beta2", False), ("adam.eps", 0), ("adam.eps", float("inf")), ("adam.eps", "1e-8"),
        ("rng_state", {}), ("rng_state", "PCG64"),
        ("rng_state", {"bit_generator": "PCG64", "state": {"state": -1, "inc": 1},
                       "has_uint32": 0, "uinteger": 0})])
    def test_a_header_field_a_resume_cannot_use_raises_training_error(self, tmp_path, field,
                                                                      value):
        model, _, _ = micro_setup()
        path = tmp_path / "ckpt.stmc"
        save_checkpoint(path, model, AdamState(), 1, np.random.default_rng(0))

        def replace(header):
            *parents, last = field.split(".")
            for key in parents:
                header = header[key]
            header[last] = value

        path.write_bytes(restamped(path.read_bytes(), replace))
        with pytest.raises(TrainingError, match=f"header field '{field}' must be "):
            load_checkpoint(path)

    @pytest.mark.parametrize("writer", ["checkpoint", "dataset"])
    def test_failed_write_leaves_no_partial_target(self, tmp_path, monkeypatch, writer):
        model, seqs, _ = micro_setup()
        target = tmp_path / "target.bin"

        def write():
            if writer == "checkpoint":
                save_checkpoint(target, model, AdamState(), 0, np.random.default_rng(0))
            else:
                write_dataset(seqs, target)

        class FailingFile:
            """Writes its first chunk, then fails like a full disk."""

            def __init__(self, path, mode):
                self.fh = open(path, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, chunk):
                if self.fh.tell():
                    raise OSError("disk full")
                return self.fh.write(chunk)

        write()
        whole = target.read_bytes()
        with monkeypatch.context() as patch:
            patch.setattr(data, "open", FailingFile, raising=False)
            target.unlink()
            with pytest.raises(OSError, match="disk full"):
                write()
            assert list(tmp_path.iterdir()) == []
            target.write_bytes(whole)
            with pytest.raises(OSError, match="disk full"):
                write()
        # an existing file is left whole, and no temporary file stays behind
        assert [p.name for p in tmp_path.iterdir()] == ["target.bin"]
        assert target.read_bytes() == whole

    def test_periodic_checkpoints(self, tmp_path):
        model, seqs, settings = micro_setup(epochs=4, checkpoint_every=2)
        settings.out_dir = str(tmp_path)
        fit(model, seqs, None, settings)
        names = sorted(p.name for p in tmp_path.glob("*.stmc"))
        assert names == ["checkpoint_00002.stmc", "checkpoint_00004.stmc"]
