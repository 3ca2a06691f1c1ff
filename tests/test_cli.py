"""Command-line tests driven through main(argv): exit codes, artifacts on
disk, and the printed summaries."""

import gc
import json
import os
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

from motionmoe import autodiff as ad
from motionmoe import cli, training
from motionmoe.cli import main, read_feature_export
from motionmoe.data import MAGIC, DataError, batch_iter, flatten_poses, read_dataset
from motionmoe.dct import dct_forward
from motionmoe.model import ModelConfig, MotionMoE
from motionmoe.moe import expert_outputs
from motionmoe.training import (AdamState, load_checkpoint, model_from_checkpoint,
                                save_checkpoint)
from test_training import restamped

MICRO_SET = ["--set", "joints=3", "--set", "history_frames=5",
             "--set", "total_frames=8", "--set", "state_dim=4",
             "--set", "conv_width=2", "--set", "codec_hidden=12",
             "--set", "dropout=0.0", "--set", "batch_size=4",
             "--set", "horizons=0.04,0.12"]


def synth(tmp_path, name="data.mmp1", **overrides):
    values = {"sequences": 6, "persons": 1, "frames": 8, "joints": 3,
              "scale": 30.0, **overrides}
    path = tmp_path / name
    argv = ["synth", "--out", str(path)]
    for key, value in values.items():
        argv += ["--set", f"{key}={value}"]
    assert main(argv) == 0
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny training run shared by the checkpoint-consuming commands."""
    root = tmp_path_factory.mktemp("clirun")
    data = synth(root)
    out_dir = root / "run"
    code = main(["train", *MICRO_SET,
                 "--set", f"train_data={data}",
                 "--set", f"out_dir={out_dir}",
                 "--set", "epochs=2"])
    assert code == 0
    return {"data": data, "out": out_dir,
            "checkpoint": out_dir / "checkpoint_00002.stmc"}


@pytest.fixture(scope="module")
def scene_trained(tmp_path_factory):
    """A tiny run with scene_persons=2 on two-person data: each model sample
    is one scene of both persons."""
    root = tmp_path_factory.mktemp("scenerun")
    data = synth(root, persons=2)
    out_dir = root / "run"
    assert main(["train", *MICRO_SET, "--set", "scene_persons=2",
                 "--set", f"train_data={data}", "--set", f"out_dir={out_dir}",
                 "--set", "epochs=1"]) == 0
    return {"data": data, "checkpoint": out_dir / "checkpoint_00001.stmc",
            "three": synth(root, "three.mmp1", persons=3)}


class TestSynth:
    def test_writes_dataset(self, tmp_path):
        path = synth(tmp_path, sequences=4)
        seqs = read_dataset(path)
        assert len(seqs) == 4
        assert seqs[0].positions.shape == (1, 8, 3, 3)
        assert path.read_bytes()[:4] == MAGIC

    def test_spec_file(self, tmp_path):
        spec = tmp_path / "gen.cfg"
        spec.write_text("sequences = 3\npersons = 2\nframes = 10\njoints = 4\n")
        out = tmp_path / "fromspec.mmp1"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
        seqs = read_dataset(out)
        assert len(seqs) == 3 and seqs[0].positions.shape == (2, 10, 4, 3)

    def test_unknown_key_exits_2(self, tmp_path):
        assert main(["synth", "--set", "bodies=3",
                     "--out", str(tmp_path / "x.mmp1")]) == 2

    def test_invalid_spec_value_exits_2(self, tmp_path):
        assert main(["synth", "--set", "scale=0",
                     "--out", str(tmp_path / "x.mmp1")]) == 2

    @pytest.mark.parametrize("setting", ["mix=walk:nan", "mix=walk:-1,turn:2", "fps=nan",
                                         "scale=inf"])
    def test_non_finite_or_negative_spec_value_exits_2_before_writing(self, tmp_path, capsys,
                                                                      setting):
        out = tmp_path / "x.mmp1"
        assert main(["synth", "--set", setting, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()


class TestTrain:
    def test_artifacts(self, trained):
        out = trained["out"]
        assert trained["checkpoint"].exists()
        resolved = (out / "resolved.cfg").read_text()
        assert "joints = 3" in resolved and "epochs = 2" in resolved
        log_lines = (out / "train_log.jsonl").read_text().strip().splitlines()
        assert len(log_lines) == 2
        record = json.loads(log_lines[0])
        assert {"epoch", "lr", "train_loss"} <= set(record)

    def test_every_log_record_times_its_epoch(self, trained):
        for line in (trained["out"] / "train_log.jsonl").read_text().strip().splitlines():
            record = json.loads(line)
            assert record["step_time_s"] > 0 and record["samples_per_s"] > 0

    def test_every_log_record_has_gradient_norm_and_slowest_step(self, trained):
        for line in (trained["out"] / "train_log.jsonl").read_text().strip().splitlines():
            record = json.loads(line)
            assert record["grad_norm"] > 0 and record["step_time_max_s"] > 0

    def test_missing_train_data_exits_2(self, tmp_path):
        assert main(["train", "--set", f"out_dir={tmp_path}"]) == 2

    def test_missing_dataset_file_exits_1(self, tmp_path):
        assert main(["train", *MICRO_SET,
                     "--set", f"train_data={tmp_path / 'absent.mmp1'}",
                     "--set", f"out_dir={tmp_path}"]) == 1

    @pytest.mark.parametrize("dataset", ["train_data", "val_data"])
    @pytest.mark.parametrize("spec, message", [
        ({"joints": 4}, "sequence 0 has 4 joints, the model 3"),
        ({"persons": 3}, "sequence 0 has 3 person(s), not a multiple of scene_persons=2"),
        ({"frames": 7}, "sequence 0 has 7 frames, needs >= 8"),
    ])
    def test_data_the_model_cannot_read_exits_1_before_writing(self, tmp_path, capsys,
                                                                dataset, spec, message):
        good = synth(tmp_path, "good.mmp1", persons=2)
        bad = synth(tmp_path, "bad.mmp1", **{"persons": 2, **spec})
        data = {"train_data": good, "val_data": good, dataset: bad}
        out_dir = tmp_path / "run"
        capsys.readouterr()
        assert main(["train", *MICRO_SET, "--set", "scene_persons=2",
                     "--set", f"train_data={data['train_data']}",
                     "--set", f"val_data={data['val_data']}",
                     "--set", f"out_dir={out_dir}"]) == 1
        assert capsys.readouterr().err == f"error: {dataset} {bad}: {message}\n"
        assert not out_dir.exists()

    def test_config_file_plus_override(self, tmp_path):
        data = synth(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("joints = 3\nhistory_frames = 5\ntotal_frames = 8\n"
                       "state_dim = 4\nconv_width = 2\ncodec_hidden = 12\n"
                       "dropout = 0.0\nbatch_size = 4\nhorizons = 0.04,0.12\n"
                       f"train_data = {data}\nepochs = 3\n"
                       f"out_dir = {tmp_path / 'run'}\n")
        assert main(["train", "--config", str(cfg), "--set", "epochs=1"]) == 0
        log = (tmp_path / "run" / "train_log.jsonl").read_text().strip().splitlines()
        assert len(log) == 1

    def test_resume_continues(self, tmp_path, trained):
        out2 = tmp_path / "resumed"
        code = main(["train", *MICRO_SET,
                     "--set", f"train_data={trained['data']}",
                     "--set", f"out_dir={out2}",
                     "--set", "epochs=3",
                     "--resume", str(trained["checkpoint"])])
        assert code == 0
        log = [json.loads(line) for line in
               (out2 / "train_log.jsonl").read_text().strip().splitlines()]
        assert [r["epoch"] for r in log] == [2]

    @pytest.mark.parametrize("stop_after", [1, 3])
    def test_a_stopped_run_keeps_one_record_per_finished_epoch(self, tmp_path, trained,
                                                               monkeypatch, stop_after):
        class Stop(Exception):
            pass

        def stopping_fit(*args, hooks=(), **kwargs):
            def stop(model, record):
                if record["epoch"] + 1 == stop_after:
                    raise Stop

            return training.fit(*args, hooks=(*hooks, stop), **kwargs)

        monkeypatch.setattr(cli, "fit", stopping_fit)
        out = tmp_path / "stopped"
        with pytest.raises(Stop):
            main(["train", *MICRO_SET, "--set", f"train_data={trained['data']}",
                  "--set", f"out_dir={out}", "--set", "epochs=5"])
        log = [json.loads(line) for line in
               (out / "train_log.jsonl").read_text().strip().splitlines()]
        assert [r["epoch"] for r in log] == list(range(stop_after))

    @pytest.mark.parametrize("saved,run", [("float32", "float64"), ("float64", "float32")])
    def test_resume_in_another_dtype_exits_2_before_epoch_1(self, tmp_path, monkeypatch,
                                                            capsys, saved, run):
        data = synth(tmp_path)
        first = tmp_path / "first"
        assert main(["train", *MICRO_SET, "--set", f"train_data={data}",
                     "--set", f"out_dir={first}", "--set", "epochs=1",
                     "--set", f"dtype={saved}"]) == 0

        def no_training(*args, **kwargs):
            raise AssertionError("fit ran")

        monkeypatch.setattr(cli, "fit", no_training)
        assert main(["train", *MICRO_SET, "--set", f"train_data={data}",
                     "--set", f"out_dir={tmp_path / 'resumed'}", "--set", "epochs=3",
                     "--set", f"dtype={run}",
                     "--resume", str(first / "checkpoint_00001.stmc")]) == 2
        assert not (tmp_path / "resumed").exists()
        err = capsys.readouterr().err
        assert "config error: --resume" in err
        assert f"holds {saved} parameters" in err and f"dtype is {run}" in err

    @pytest.mark.parametrize("setting", ["eps=0.5", "beta1=0.5", "beta2=0.5"])
    def test_resume_under_other_adam_settings_exits_2_before_writing(self, tmp_path,
                                                                      capsys, setting):
        # the resumed run would keep the checkpoint's Adam settings while
        # resolved.cfg stated the new ones
        data = synth(tmp_path)
        out = tmp_path / "run"
        run = ["train", *MICRO_SET, "--set", f"train_data={data}", "--set", f"out_dir={out}"]
        assert main([*run, "--set", "epochs=1"]) == 0
        resolved = (out / "resolved.cfg").read_bytes()
        capsys.readouterr()
        assert main([*run, "--set", "epochs=2", "--set", setting,
                     "--resume", str(out / "checkpoint_00001.stmc")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --resume")
        assert f"holds Adam {setting.split('=')[0]} " in err and "is 0.5" in err
        assert (out / "resolved.cfg").read_bytes() == resolved
        assert sorted(p.name for p in out.glob("*.stmc")) == ["checkpoint_00001.stmc"]

    @pytest.mark.parametrize("field,value", [("epoch", "1"), ("rng_state", {})])
    def test_resume_from_a_header_field_of_the_wrong_type_exits_1_before_writing(
            self, tmp_path, trained, capsys, field, value):
        damaged = tmp_path / "damaged.stmc"
        damaged.write_bytes(restamped(trained["checkpoint"].read_bytes(),
                                      lambda header: header.update({field: value})))
        out = tmp_path / "resumed"
        assert main(["train", *MICRO_SET, "--set", f"train_data={trained['data']}",
                     "--set", f"out_dir={out}", "--set", "epochs=3",
                     "--resume", str(damaged)]) == 1
        assert capsys.readouterr().err.startswith(f"error: checkpoint header field '{field}'")
        assert not (out / "resolved.cfg").exists() and not list(out.glob("*.stmc"))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_train_leaves_the_callers_default_dtype(self, tmp_path, trained, dtype):
        run = ["train", *MICRO_SET, "--set", f"train_data={trained['data']}",
               "--set", "epochs=1", "--set", f"dtype={dtype}"]
        for caller in (np.float64, np.float32):
            ad.set_default_dtype(caller)
            try:
                assert main([*run, "--set", f"out_dir={tmp_path / 'ok'}"]) == 0
                assert ad.get_default_dtype() is caller
                # and after a run that fails once the run's dtype is set
                assert main([*run, "--set", f"out_dir={tmp_path / 'bad'}",
                             "--set", f"val_data={tmp_path / 'absent.mmp1'}"]) == 1
                assert ad.get_default_dtype() is caller
            finally:
                ad.set_default_dtype(np.float64)

    def test_resume_from_mixed_dtype_checkpoint_exits_1_before_writing(
            self, tmp_path, trained, monkeypatch, capsys):
        ckpt = load_checkpoint(trained["checkpoint"])
        name = next(n for n in ckpt.tensors if n.startswith("param/"))
        ckpt.tensors[name] = ckpt.tensors[name].astype(np.float32)
        monkeypatch.setattr(cli, "load_checkpoint", lambda *args, **kwargs: ckpt)
        out = tmp_path / "resumed"
        assert main(["train", *MICRO_SET, "--set", f"train_data={trained['data']}",
                     "--set", f"out_dir={out}", "--set", "epochs=3",
                     "--resume", str(trained["checkpoint"])]) == 1
        assert "checkpoint parameters must share one dtype" in capsys.readouterr().err
        assert not out.exists()


class TestEval:
    def test_table_output(self, trained, tmp_path, capsys):
        out = tmp_path / "metrics.tsv"
        code = main(["eval", "--checkpoint", str(trained["checkpoint"]),
                     "--data", str(trained["data"]),
                     "--horizons", "0.04,0.12", "--out", str(out)])
        assert code == 0
        table = out.read_text()
        assert table.splitlines()[0] == "metric\t0.04s\t0.12s\tAvg"
        assert table.count("\n") == 3
        assert table.rstrip("\n") in capsys.readouterr().out

    def test_a_checkpoint_written_up_to_0_2_1_gives_the_same_table(self, trained, tmp_path,
                                                                   capsys):
        # such a header's config also holds n_experts, the pool's length, and
        # flip_back = true
        old = tmp_path / "old.stmc"
        old.write_bytes(restamped(trained["checkpoint"].read_bytes(),
                                  lambda header: header["config"].update(n_experts=4,
                                                                         flip_back=True)))
        tables = []
        for ckpt in (trained["checkpoint"], old):
            assert main(["eval", "--checkpoint", str(ckpt), "--data", str(trained["data"]),
                         "--horizons", "0.04,0.12"]) == 0
            tables.append(capsys.readouterr().out)
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("key,value", [("flip_back", False), ("n_experts", 3)])
    def test_a_removed_key_off_its_one_value_exits_1_naming_it(self, trained, tmp_path,
                                                               capsys, key, value):
        old = tmp_path / "old.stmc"
        old.write_bytes(restamped(trained["checkpoint"].read_bytes(),
                                  lambda header: header["config"].update({key: value})))
        assert main(["eval", "--checkpoint", str(old), "--data", str(trained["data"])]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint holds an invalid config: ") and key in err

    @pytest.mark.parametrize("entry,message", [
        ({"shape": [0]}, "checkpoint parameter 'codec/enc0/adjacency' has shape (0,)"),
        ({"shape": [-2]}, "checkpoint header has a malformed tensor entry"),
        ({"dtype": "object"}, "checkpoint header has a malformed tensor entry")])
    def test_a_malformed_tensor_entry_exits_1(self, trained, tmp_path, capsys, entry, message):
        damaged = tmp_path / "damaged.stmc"
        damaged.write_bytes(restamped(trained["checkpoint"].read_bytes(),
                                      lambda header: header["tensors"][0].update(entry)))
        assert main(["eval", "--checkpoint", str(damaged), "--data", str(trained["data"])]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_bad_checkpoint_exits_1(self, trained, tmp_path):
        bogus = tmp_path / "bogus.stmc"
        bogus.write_bytes(b"JUNKJUNKJUNK")
        assert main(["eval", "--checkpoint", str(bogus),
                     "--data", str(trained["data"])]) == 1


class TestPredict:
    def test_forecast_container(self, trained, tmp_path):
        out = tmp_path / "pred.mmp1"
        code = main(["predict", "--checkpoint", str(trained["checkpoint"]),
                     "--data", str(trained["data"]), "--out", str(out)])
        assert code == 0
        preds = read_dataset(out)
        originals = read_dataset(trained["data"])
        assert len(preds) == len(originals)
        assert preds[0].positions.shape == (1, 8, 3, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_history_exits_1(self, trained, tmp_path, monkeypatch, capsys, bad):
        # the .mmp1 reader already refuses non-finite payloads, so the bad
        # value is put into sequence 2's row of whichever batch the reader
        # has passed holds it (one person per sequence)
        def poisoned(*args, **kwargs):
            first = 0
            for hist, target in batch_iter(*args, **kwargs):
                if first <= 2 < first + len(hist):
                    hist = hist.copy()
                    hist[2 - first, 1, 1] = bad
                first += len(hist)
                yield hist, target

        monkeypatch.setattr(training, "batch_iter", poisoned)
        out = tmp_path / "pred.mmp1"
        code = main(["predict", "--checkpoint", str(trained["checkpoint"]),
                     "--data", str(trained["data"]), "--out", str(out)])
        assert code == 1
        assert "sequence 2: forward: non-finite history in batch row(s) 0" in capsys.readouterr().err
        assert not out.exists()


    def test_forecasts_sixteen_sequences_per_forward(self, trained, tmp_path, monkeypatch):
        calls = []
        forward = MotionMoE.forward

        def counted(model, hist, *args, **kwargs):
            calls.append(len(hist))
            return forward(model, hist, *args, **kwargs)

        monkeypatch.setattr(MotionMoE, "forward", counted)
        data = synth(tmp_path, "many.mmp1", sequences=20)
        out = tmp_path / "pred.mmp1"
        assert main(["predict", "--checkpoint", str(trained["checkpoint"]),
                     "--data", str(data), "--out", str(out)]) == 0
        assert calls == [16, 4]
        model = model_from_checkpoint(load_checkpoint(trained["checkpoint"]))
        for pred, seq in zip(read_dataset(out), read_dataset(data)):
            scene = flatten_poses(seq.positions.astype(np.float64))
            want, _ = forward(model, scene[:, :, :model.config.history_frames])
            persons = want.data.reshape(1, 3, 3, 8).transpose(0, 3, 1, 2)
            np.testing.assert_allclose(pred.positions, persons, rtol=1e-6, atol=1e-4)


class TestInspectRouting:
    def test_lines_and_mass_conservation(self, trained, tmp_path):
        out = tmp_path / "routing.txt"
        code = main(["inspect-routing", "--checkpoint", str(trained["checkpoint"]),
                     "--data", str(trained["data"]), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        sample_lines = [l for l in lines if l.startswith("sample=")]
        mass_lines = [l for l in lines if l.startswith("expert=")]
        assert len(sample_lines) == 6  # 6 sequences x 1 person x 1 layer
        assert len(mass_lines) == 4
        total = sum(float(l.rpartition("=")[2]) for l in mass_lines)
        assert total == pytest.approx(6.0, abs=1e-3)

    def test_row_counts_sum_to_k_per_sample_and_layer(self, trained, tmp_path):
        # an untrained top-2 model with two layers, saved without training
        model = MotionMoE(ModelConfig(joints=3, history_frames=5, total_frames=8,
                                      state_dim=4, conv_width=2, codec_hidden=12,
                                      active_experts=2, moe_layers=2, seed=1))
        ckpt = tmp_path / "top2.stmc"
        save_checkpoint(ckpt, model, AdamState(), 0, np.random.default_rng(0))
        out = tmp_path / "routing.txt"
        assert main(["inspect-routing", "--checkpoint", str(ckpt),
                     "--data", str(trained["data"]), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        kept = [l.split("kept=")[1].split()[0].split(",") for l in lines
                if l.startswith("sample=")]
        histogram = [dict(f.split("=") for f in l.split()) for l in lines
                     if l.startswith("expert=")]
        assert [h["expert"] for h in histogram] == ["ST", "TT", "TS", "SS"]
        rows = [int(h["rows"]) for h in histogram]
        assert sum(rows) == 2 * 6 * 2  # k x samples x layers
        assert rows == [sum(str(e) in picks for picks in kept) for e in range(4)]
        # mass stays the last field
        assert all(l.rpartition(" ")[2].startswith("mass=") for l in lines
                   if l.startswith("expert="))

    def test_limit(self, trained, tmp_path):
        out = tmp_path / "routing.txt"
        main(["inspect-routing", "--checkpoint", str(trained["checkpoint"]),
              "--data", str(trained["data"]), "--out", str(out), "--limit", "2"])
        sample_lines = [l for l in out.read_text().splitlines()
                        if l.startswith("sample=")]
        assert len(sample_lines) == 2


class TestExportFeatures:
    def test_header_and_row_geometry(self, trained, tmp_path):
        out = tmp_path / "features.bin"
        code = main(["export-features", "--checkpoint", str(trained["checkpoint"]),
                     "--data", str(trained["data"]), "--out", str(out),
                     "--samples", "5"])
        assert code == 0
        header, rows = read_feature_export(out)
        assert header["magic"] == "MMFX"
        assert header["samples"] == 5
        assert header["experts"] == ["ST", "TT", "TS", "SS"]
        # one pooled row per (sample, expert); width = pose dim + frames
        assert header["width"] == 9 + 8
        assert rows.shape == (20, 17)
        assert rows.dtype == np.float32
        assert np.isfinite(rows).all()

        # the rows match each expert evaluated on its own
        model = model_from_checkpoint(load_checkpoint(trained["checkpoint"]))
        cfg, layer = model.config, model.layers[0]
        hist, _ = next(batch_iter(read_dataset(trained["data"]), 16, cfg.history_frames,
                                  cfg.total_frames, shuffle_seed=None))
        padded = np.concatenate([hist[:5], np.repeat(hist[:5, :, -1:], 3, axis=-1)], axis=-1)
        features = model.codec.encode(dct_forward(ad.Tensor(padded), model.basis))
        expected = []
        for kind in cfg.expert_pool:
            out = expert_outputs((kind,), layer.spatial, layer.temporal, features)[kind].data
            expected.append(np.concatenate([out.mean(axis=2), out.mean(axis=1)], axis=1))
        np.testing.assert_allclose(rows, np.concatenate(expected).astype(np.float32),
                                   rtol=1e-6, atol=1e-6)

    @staticmethod
    def export(path, rows, magic="MMFX"):
        """A feature export of 2 samples x 1 expert of width 3 that holds ``rows`` rows."""
        header = {"magic": magic, "samples": 2, "experts": ["ST"], "width": 3}
        path.write_bytes(json.dumps(header).encode() + b"\n"
                         + np.arange(3 * rows, dtype="<f4").tobytes())
        return path

    def test_another_magic_raises_data_error(self, tmp_path):
        with pytest.raises(DataError, match="not an MMFX feature export: magic 'MMP1'"):
            read_feature_export(self.export(tmp_path / "f.bin", 2, magic="MMP1"))
        (tmp_path / "g.bin").write_bytes(b"MMP1\x00\x01\n")
        with pytest.raises(DataError, match="not an MMFX feature export: Expecting value"):
            read_feature_export(tmp_path / "g.bin")

    @pytest.mark.parametrize("rows", [0, 1, 3])
    def test_a_payload_of_other_than_samples_times_experts_rows_raises_data_error(
            self, tmp_path, rows):
        assert read_feature_export(self.export(tmp_path / "f.bin", 2))[1].shape == (2, 3)
        with pytest.raises(DataError, match=rf"{3 * rows} floats for \(2, 3\) rows"):
            read_feature_export(self.export(tmp_path / "f.bin", rows))


class TestAtomicOut:
    @pytest.mark.parametrize("command", ["eval", "inspect-routing", "bench"])
    def test_a_failed_rename_keeps_the_previous_file(self, trained, tmp_path, monkeypatch,
                                                      command):
        # --out goes through a temporary file and a rename: when the rename
        # fails, the old file stays as it was and the temporary file goes
        out = tmp_path / "previous.txt"
        out.write_bytes(b"previous contents\n")
        argv = {"eval": ["eval", "--checkpoint", str(trained["checkpoint"]),
                         "--data", str(trained["data"]), "--horizons", "0.04,0.12"],
                "inspect-routing": ["inspect-routing", "--checkpoint",
                                    str(trained["checkpoint"]), "--data", str(trained["data"])],
                "bench": ["bench", "--lengths", "8,16", "--channels", "6", "--batch", "1",
                          "--repeats", "1"]}[command]

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        assert main([*argv, "--out", str(out)]) == 1
        assert out.read_bytes() == b"previous contents\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["previous.txt"]


class TestBench:
    def test_reports_exponent(self, tmp_path, capsys):
        out = tmp_path / "bench.tsv"
        code = main(["bench", "--lengths", "8,16", "--channels", "6",
                     "--batch", "1", "--repeats", "1", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "fitted growth exponent" in printed
        assert "exponent" in out.read_text()

    def test_reports_the_backward_peak_of_an_untimed_step(self, tmp_path, capsys):
        out = tmp_path / "bench.tsv"
        assert main(["bench", "--lengths", "8,16", "--channels", "6",
                     "--batch", "1", "--repeats", "1", "--out", str(out)]) == 0
        header = capsys.readouterr().out.splitlines()[1].split("\t")
        assert header[-1] == "backward_peak_mb"
        *rows, last = out.read_text().splitlines()
        assert last.startswith("exponent\t")
        peaks = [float(row.split("\t")[header.index("backward_peak_mb")]) for row in rows]
        assert len(peaks) == 2 and 0.0 < peaks[0] < peaks[1]
        assert not tracemalloc.is_tracing()

    def test_reports_the_forward_peak_of_an_untimed_tape_free_call(self, tmp_path, capsys):
        out = tmp_path / "bench.tsv"
        assert main(["bench", "--lengths", "8,16", "--channels", "6",
                     "--batch", "1", "--repeats", "1", "--out", str(out)]) == 0
        header = capsys.readouterr().out.splitlines()[1].split("\t")
        assert header[-3:] == ["forward_peak_mb", "kept_mb", "backward_peak_mb"]
        rows = [row.split("\t") for row in out.read_text().splitlines()[:-1]]
        forward, kept, backward = ([float(row[header.index(name)]) for row in rows]
                                   for name in header[-3:])
        assert 0.0 < forward[0] < forward[1]
        assert all(f < b for f, b in zip(forward, backward))
        # what the recorded forward keeps for its backward
        assert all(0.0 < k < b for k, b in zip(kept, backward))
        assert not tracemalloc.is_tracing()

    def test_tapes_are_freed_without_the_cyclic_collector(self, monkeypatch):
        tapes = []

        class WatchedTape(ad.Tape):
            def __enter__(self):
                tapes.append(weakref.ref(self))
                return super().__enter__()

        monkeypatch.setattr(cli, "Tape", WatchedTape)
        enabled = gc.isenabled()
        gc.disable()
        try:
            assert main(["bench", "--lengths", "8,16", "--channels", "6",
                         "--batch", "1", "--repeats", "2"]) == 0
            # 2 lengths x (2 timed steps + 1 traced for the backward peak)
            assert len(tapes) == 6 and all(ref() is None for ref in tapes)
        finally:
            if enabled:
                gc.enable()

    def test_single_length_rejected(self):
        assert main(["bench", "--lengths", "32"]) == 2


class TestParser:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_command_exits_2(self, capsys):
        assert main(["dance"]) == 2
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        text = capsys.readouterr().out
        assert "run config keys" in text and "synth spec keys" in text


class TestScenes:
    """Every checkpoint-consuming command groups persons into scenes as
    training does."""

    def run(self, scene_trained, command, out, *extra, data="data"):
        return main([command, "--checkpoint", str(scene_trained["checkpoint"]),
                     "--data", str(scene_trained[data]), "--out", str(out), *extra])

    def test_eval(self, scene_trained, tmp_path):
        assert self.run(scene_trained, "eval", tmp_path / "m.tsv", "--horizons", "0.04,0.12") == 0

    def test_predict_splits_each_scene_forecast_into_persons(self, scene_trained, tmp_path):
        out = tmp_path / "pred.mmp1"
        assert self.run(scene_trained, "predict", out) == 0
        preds, originals = read_dataset(out), read_dataset(scene_trained["data"])
        assert len(preds) == len(originals)
        model = model_from_checkpoint(load_checkpoint(scene_trained["checkpoint"]))
        cfg = model.config
        for pred, seq in zip(preds, originals):
            assert pred.positions.shape == (2, 8, 3, 3)
            scene = flatten_poses(seq.positions.astype(np.float64)).reshape(1, cfg.pose_dim, 8)
            want, _ = model.forward(scene[:, :, :cfg.history_frames])
            persons = want.data.reshape(2, 3, 3, 8).transpose(0, 3, 1, 2)
            np.testing.assert_allclose(pred.positions, persons, rtol=1e-6, atol=1e-4)

    def test_inspect_routing_counts_scenes(self, scene_trained, tmp_path):
        out = tmp_path / "routing.txt"
        assert self.run(scene_trained, "inspect-routing", out) == 0
        assert sum(l.startswith("sample=") for l in out.read_text().splitlines()) == 6

    def test_export_features_counts_scenes(self, scene_trained, tmp_path):
        out = tmp_path / "features.bin"
        assert self.run(scene_trained, "export-features", out) == 0
        header, rows = read_feature_export(out)
        assert header["samples"] == 6
        assert header["width"] == 2 * 9 + 8
        assert rows.shape == (6 * 4, 26)

    def test_persons_not_dividing_into_scenes_exit_1(self, scene_trained, tmp_path, capsys):
        out = tmp_path / "pred.mmp1"
        assert self.run(scene_trained, "predict", out, data="three") == 1
        assert "3 person(s), not a multiple of scene_persons=2" in capsys.readouterr().err
        assert not out.exists()


class TestArgumentErrors:
    """Bad argument values exit 2 with a message, before any forecast."""

    @pytest.mark.parametrize("horizons", ["0.03", "abc", "0.04,1.0"])
    def test_bad_horizons_exit_2_before_forecasting(self, trained, tmp_path, monkeypatch,
                                                    capsys, horizons):
        def no_forecast(*args, **kwargs):
            raise AssertionError("evaluate ran")

        monkeypatch.setattr(cli, "evaluate", no_forecast)
        assert main(["eval", "--checkpoint", str(trained["checkpoint"]),
                     "--data", str(trained["data"]), "--horizons", horizons]) == 2
        assert "config error: --horizons" in capsys.readouterr().err

    @pytest.mark.parametrize("root_joint", ["3", "-1"])
    def test_eval_root_joint_outside_skeleton_exits_2_before_forecasting(
            self, trained, monkeypatch, capsys, root_joint):
        def no_forecast(*args, **kwargs):
            raise AssertionError("evaluate ran")

        monkeypatch.setattr(cli, "evaluate", no_forecast)
        assert main(["eval", "--checkpoint", str(trained["checkpoint"]),
                     "--data", str(trained["data"]), "--horizons", "0.04,0.12",
                     "--root-joint", root_joint]) == 2
        assert f"config error: --root-joint {root_joint}" in capsys.readouterr().err

    @pytest.mark.parametrize("fps", ["0", "nan", "inf"])
    def test_eval_fps_not_positive_and_finite_exits_2_before_forecasting(
            self, trained, monkeypatch, capsys, fps):
        def no_forecast(*args, **kwargs):
            raise AssertionError("evaluate ran")

        monkeypatch.setattr(cli, "evaluate", no_forecast)
        assert main(["eval", "--checkpoint", str(trained["checkpoint"]),
                     "--data", str(trained["data"]), "--fps", fps]) == 2
        assert "config error: fps must be > 0 and finite" in capsys.readouterr().err

    def test_train_root_joint_outside_skeleton_exits_2_before_epoch_1(
            self, trained, tmp_path, monkeypatch, capsys):
        def no_training(*args, **kwargs):
            raise AssertionError("fit ran")

        monkeypatch.setattr(cli, "fit", no_training)
        assert main(["train", *MICRO_SET, "--set", f"train_data={trained['data']}",
                     "--set", f"val_data={trained['data']}", "--set", "root_joint=7",
                     "--set", f"out_dir={tmp_path / 'run'}"]) == 2
        assert "config error: root_joint 7" in capsys.readouterr().err

    def test_train_horizon_past_the_window_exits_2_before_epoch_1(
            self, trained, tmp_path, monkeypatch, capsys):
        def no_training(*args, **kwargs):
            raise AssertionError("fit ran")

        monkeypatch.setattr(cli, "fit", no_training)
        assert main(["train", *MICRO_SET, "--set", f"train_data={trained['data']}",
                     "--set", f"val_data={trained['data']}", "--set", "horizons=0.04,0.2",
                     "--set", f"out_dir={tmp_path / 'run'}"]) == 2
        assert "config error: horizons: horizon 0.2s (frame 5) exceeds the 3-frame" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["expand=0", "state_dim=0", "conv_width=0",
                                         "codec_hidden=0", "dt_rank=-3", "model_seed=-1",
                                         "lr=0", "batch_size=0", "grad_clip=-1",
                                         "checkpoint_every=-2", "train_seed=-1", "beta1=1.5",
                                         "eps=nan", "eps=-1", "eps=0", "lr=inf", "alpha=nan",
                                         "lambda_hist=nan", "beta=inf", "fps=inf",
                                         "horizons=inf", "dtype=float16", "epochs=-1"])
    def test_train_out_of_range_key_exits_2_before_writing(self, trained, tmp_path, capsys,
                                                           setting):
        out_dir = tmp_path / "run"
        assert main(["train", *MICRO_SET, "--set", f"train_data={trained['data']}",
                     "--set", setting, "--set", f"out_dir={out_dir}"]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (out_dir / "resolved.cfg").exists()

    @pytest.mark.parametrize("setting", ["flip_back=true", "n_experts=4"])
    def test_train_removed_key_exits_2_before_writing(self, trained, tmp_path, capsys,
                                                      setting):
        out_dir = tmp_path / "run"
        assert main(["train", *MICRO_SET, "--set", f"train_data={trained['data']}",
                     "--set", setting, "--set", f"out_dir={out_dir}"]) == 2
        key = setting.split("=")[0]
        assert f"config error: --set: unknown key '{key}'" in capsys.readouterr().err
        assert not (out_dir / "resolved.cfg").exists()

    @pytest.mark.parametrize("argv, message", [
        (["--lengths", "0,8"], "two distinct lengths, each >= 1"),
        (["--lengths=-4,8"], "two distinct lengths, each >= 1"),
        (["--lengths", "8,8"], "two distinct lengths, each >= 1"),
        (["--lengths", "8,x"], "--lengths must be integers"),
        (["--batch", "0"], "--batch must be >= 1"),
        (["--channels", "0"], "--channels must be >= 1"),
        (["--repeats", "0"], "--repeats must be >= 1"),
    ], ids=["zero-length", "negative-length", "one-distinct-length", "non-integer-length",
            "zero-batch", "zero-channels", "zero-repeats"])
    def test_bad_bench_arguments_exit_2_before_any_work(self, monkeypatch, capsys, argv,
                                                        message):
        def no_block(*args, **kwargs):
            raise AssertionError("the block was built")

        monkeypatch.setattr(cli, "init_bi_block", no_block)
        assert main(["bench", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["train", "eval", "predict", "inspect-routing",
                                         "export-features"])
    def test_dataset_with_no_persons_exits_1(self, trained, tmp_path, capsys, command):
        data = tmp_path / "no_persons.mmp1"
        data.write_bytes(struct.pack("<4sIIIIIfI", MAGIC, 1, 2, 0, 8, 3, 25.0, 0))
        out = tmp_path / "out"
        if command == "train":
            argv = ["train", *MICRO_SET, "--set", f"train_data={data}",
                    "--set", f"out_dir={tmp_path / 'run'}"]
        else:
            argv = [command, "--checkpoint", str(trained["checkpoint"]), "--data", str(data)]
            argv += ["--out", str(out)] if command != "eval" else []
        assert main(argv) == 1
        assert "at least one person, frame and joint" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [("inspect-routing", "--limit"),
                                               ("export-features", "--samples")])
    def test_negative_count_exits_2(self, trained, tmp_path, capsys, command, flag):
        out = tmp_path / "out"
        assert main([command, "--checkpoint", str(trained["checkpoint"]),
                     "--data", str(trained["data"]), "--out", str(out), flag, "-1"]) == 2
        assert "must be >= 0" in capsys.readouterr().err
        assert not out.exists()
