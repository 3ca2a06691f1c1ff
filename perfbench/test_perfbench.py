"""The benchmark's own tests: tracer arithmetic and a tiny run of each workload.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from motionmoe import autodiff  # noqa: E402

import run  # noqa: E402
import worker  # noqa: E402
from tracer import PER_LAYER, Span, Tracer, backward_shares, self_times  # noqa: E402


def _span(name, start, end, parent=-1):
    span = Span(name, start, parent=parent, request=0)
    span.end = end
    return span


def test_self_time_subtracts_union_of_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 2.0, 5.0, parent=0),   # overlaps a: the union is [1, 5]
        _span("c", 6.0, 7.0, parent=0),
        _span("a.inner", 1.5, 2.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 4.0 - 1.0, 1.5, 3.0, 1.0, 0.5])


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(1, 41)]
    assert run.tail(values) == (75, 30.0)
    assert run.tail(values[:10]) == (100.0, 10.0)


def test_a_measured_run_reads_peak_rss_after_a_fixed_request_count():
    req = worker.Requests(1e-9, 10 ** 9, 3, None)
    assert [req.done() for _ in range(4)] == [False, False, False, True]  # warm-up + 3
    assert req.peak_rss_mb > 0
    assert worker.Requests(0.0, 10 ** 9, 3, None).done()  # set-up only: the warm-up ends it


def test_backward_time_and_bytes_follow_node_ranges():
    tracer = Tracer()
    tracer._active_tape = autodiff.active_tape
    tracer.request = 0
    tape_class = tracer._tape_class(autodiff.Tape)
    backward = tracer._backward(autodiff.backward)
    x = autodiff.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with tape_class() as tape:
        first = tracer.open("first.span")
        y = autodiff.mul(x, x)                       # node 0
        z = autodiff.reshape(y, (2, 3, 1, 1))         # node 1, 4-D
        tracer.close(first)
        second = tracer.open("second.span")
        w = autodiff.exp(autodiff.reshape(z, (2, 3)))  # nodes 2, 3
        tracer.close(second)
        loss = autodiff.reduce_sum(w)                 # node 4: only the step holds it
        closures = [node.backward for node in tape.nodes]
        backward(loss)
    step = tape.span
    assert [node.backward for node in tape.nodes] == closures
    assert tracer.owners(tape.serial, 5) == [first, first, second, second, step]
    spans = tracer.spans
    assert (spans[first].lo, spans[first].hi, spans[second].lo, spans[second].hi) == (0, 2, 2, 4)
    assert spans[first].out_bytes == y.data.nbytes + z.data.nbytes
    assert spans[first].state_bytes == z.data.nbytes
    assert spans[second].out_bytes == 2 * w.data.nbytes
    assert spans[step].out_bytes == loss.data.nbytes
    bwd = [s for s in spans if s.name == "autodiff.backward"][0]
    charged = spans[first].bwd_s + spans[second].bwd_s + spans[step].bwd_s
    assert min(spans[first].bwd_s, spans[second].bwd_s, spans[step].bwd_s) > 0.0
    assert bwd.count == pytest.approx(charged)
    assert charged <= bwd.duration
    # the loss node lies in no layer span, so its time stays on the step
    shares, loose, wall = backward_shares(spans)
    assert shares == {"first": spans[first].bwd_s, "second": spans[second].bwd_s}
    assert (loose, wall) == (spans[step].bwd_s, bwd.duration)
    np.testing.assert_allclose(x.grad, 2 * x.data * np.exp(x.data ** 2))


def test_install_and_uninstall_restore_the_program():
    from motionmoe import model, training

    before = (training.backward, training.Tape, model.MotionMoE.forward)
    tracer = Tracer()
    tracer.install()
    try:
        assert training.backward is not before[0]
        assert tracer.absent == []
    finally:
        tracer.uninstall()
    assert (training.backward, training.Tape, model.MotionMoE.forward) == before


def test_a_missing_function_reads_as_absent(monkeypatch):
    from motionmoe import ssm

    monkeypatch.delattr(ssm, "ssm_discretize")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["motionmoe.ssm.ssm_discretize"]
    assert not hasattr(ssm, "ssm_discretize")


def test_benchmark_json_lists_every_metric():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in PER_LAYER.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "0", "--seconds", "1",
                  "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = ({name: unit for name, (unit, _) in PER_LAYER.items()} if trace == "1"
             else run.END_TO_END_UNITS)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    report = lines[:-1]
    for name, unit in units.items():
        assert any(line.startswith(f"{workload} {name} ") and f" {unit}" in line
                   for line in report), name
    text = "\n".join(report)
    assert f"{workload} failed_share 0 ratio" in text
    if trace == "1":
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert "tracing overhead" in text
        if workload.startswith("train"):
            assert metrics["ssm.block_calls"] == 8 and metrics["ssm.mamba_calls"] == 16
            assert metrics["moe.useful_row_ratio"] == 1.0
            assert metrics["autodiff.tape_nodes"] > 0
            assert "backward closure time no layer span holds" in text
        else:
            assert metrics["autodiff.tape_nodes"] == 0
            assert metrics["autodiff.retained_mb"] == 0
            assert 0.0 < metrics["moe.useful_row_ratio"] < 1.0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", "train_overfit", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
