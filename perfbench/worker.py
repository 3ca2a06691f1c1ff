"""Run one benchmark workload in this (fresh) interpreter.

Started by ``run.py``.  It prints one JSON line with the
request timings, the output checks, the peak RSS and, with ``--trace 1``,
the per-layer metrics.  Inputs reach the program only as generated
``.mmp1`` files; datasets and checkpoints live in a temporary directory
under ``.bench_tmp/`` of the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import math
import os
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from motionmoe import autodiff, data, objectives, training  # noqa: E402
from motionmoe.model import ModelConfig, MotionMoE  # noqa: E402

from tracer import Tracer, backward_shares, layer_metrics  # noqa: E402

VARIANTS = 8           # seed % VARIANTS seeds the data, and the model and shuffling where not fixed
CHECKPOINT_EVERY = 10  # as `motionmoe train --set checkpoint_every=10`
# Output-check tolerance: the square root of the dtype's machine epsilon.
RTOL = {name: float(np.sqrt(np.finfo(name).eps)) for name in ("float64", "float32")}
# Training is chaotic: nudging every weight by 4 ulp moves train_overfit's
# loss by 6e-11 at epoch 4, 2e-9 at epoch 6 and 1e-5 at epoch 12, and
# train_default's by at most 3e-5 up to epoch 16.  So only the epochs where
# rounding noise stays 10x below RTOL are compared with the reference.
CHECKED_EPOCHS = {"train_overfit": 6, "train_default": 16}
# peak_rss_mb is ru_maxrss after this many timed requests, and a measured run
# goes on until it has made them, so the figure does not depend on how many
# requests fit in --seconds.  Retained tapes make train_default's peak rise
# in steps as the cyclic collector runs; after 16 timed epochs it sits on a
# plateau that lasts from epoch 12 to epoch 22.
RSS_REQUESTS = {"train_overfit": 16, "train_default": 16, "forecast_scene": 8}

_MICRO = dict(joints=3, history_frames=5, total_frames=8, state_dim=4,
              conv_width=2, codec_hidden=12)
_MICRO_DATA = dict(persons=2, frames=8, joints=3, scale=30.0)

# name -> size -> spec.  "full" is what the benchmark measures; "tiny" is
# the same code path at toy sizes, for the benchmark's own smoke test.
WORKLOADS = {
    "train_overfit": {
        "full": dict(kind="train", dtype="float64", batch=4, horizons=(0.04, 0.12),
                     model=dict(joints=3, history_frames=5, total_frames=8,
                                active_experts=4, moe_layers=1, dropout=0.0),
                     data=dict(sequences=32, persons=2, frames=8, joints=3, scale=30.0)),
        "tiny": dict(kind="train", dtype="float64", batch=4, horizons=(0.04,),
                     model=dict(_MICRO, dropout=0.0), data=dict(_MICRO_DATA, sequences=8)),
    },
    "train_default": {
        "full": dict(kind="train", dtype="float32", batch=4, horizons=(0.2, 0.6, 1.0),
                     model={}, data=dict(sequences=4, persons=2, frames=75)),
        "tiny": dict(kind="train", dtype="float32", batch=4, horizons=(0.04,),
                     model=dict(_MICRO, dropout=0.1), data=dict(_MICRO_DATA, sequences=4)),
    },
    # The forecast model is the same for every seed, which picks only the
    # scenes: an untrained top-2 gate's weights decide how many experts run
    # on a batch (3 or 4 of 4), so a per-seed model would make the request
    # cost jump by a quarter from seed to seed.
    "forecast_scene": {
        "full": dict(kind="forecast", dtype="float64", batch=16, horizons=(0.2, 0.6, 1.0),
                     model=dict(active_experts=2, scene_persons=2, dropout=0.0, seed=0),
                     data=dict(sequences=64, persons=2, frames=75)),
        "tiny": dict(kind="forecast", dtype="float64", batch=4, horizons=(0.04, 0.12),
                     model=dict(_MICRO, active_experts=2, scene_persons=2, dropout=0.0, seed=0),
                     data=dict(_MICRO_DATA, sequences=8)),
    },
}


class _MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]


def heap_bytes() -> int:
    """Bytes allocated through malloc, mmap'd blocks included (glibc).

    Read instead of tracemalloc, which slows train_overfit about 3.5x and
    would distort every traced time.
    """
    info = _mallinfo2()
    return info.uordblks + info.hblkhd


_mallinfo2 = ctypes.CDLL(None).mallinfo2
_mallinfo2.restype = _MallInfo2


class Stop(Exception):
    """Raised from fit's hook once the run has measured long enough."""


class Requests:
    """Closed-loop request clock.  ``done`` is called as each request
    returns; the first request is the untimed warm-up."""

    def __init__(self, seconds: float, limit: int, rss_requests: int, tracer: Tracer | None):
        self.seconds, self.limit, self.tracer = seconds, limit, tracer
        # a set-up-only run (seconds == 0) stops after the warm-up
        self.rss_requests = rss_requests if seconds > 0 else 0
        self.peak_rss_mb = None  # ru_maxrss after rss_requests timed requests
        self.first = None        # time.monotonic() when the first timed request began
        self.last = None
        self.durations: list[float] = []
        self.retained: list[int] = []

    def done(self) -> bool:
        now = time.monotonic()
        if self.first is None:
            self.first = now
        else:
            self.durations.append(now - self.last)
            if len(self.durations) == self.rss_requests:
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if self.tracer is not None:
            # bytes only the cyclic collector frees: garbage left by the
            # request.  A collection also empties the interpreter's free
            # lists, so a collection that finds no garbage counts as 0.
            before = heap_bytes()
            found = gc.collect()
            if self.durations:
                self.retained.append(before - heap_bytes() if found else 0)
            self.tracer.request += 1
        self.last = time.monotonic()
        n = len(self.durations)
        return (now - self.first >= self.seconds and n >= self.rss_requests) or n >= self.limit


def make_inputs(spec: dict, variant: int, tmp: Path):
    """Synthesize, write and read back the workload's .mmp1 dataset."""
    autodiff.set_default_dtype(np.float32 if spec["dtype"] == "float32" else np.float64)
    path = tmp / "data.mmp1"
    data.write_dataset(data.synth_generate(data.GeneratorSpec(**spec["data"], seed=variant)), path)
    return data.read_dataset(path), ModelConfig(**{"seed": variant, **spec["model"]})


def scenes(hist: np.ndarray, persons: int) -> np.ndarray:
    """(B*P, D, t) person rows -> (B, P*D, t) scenes, as training regroups them."""
    b, d, t = hist.shape
    return hist.reshape(b // persons, persons * d, t)


def run_train(spec, variant, req: Requests, tmp: Path, tracer) -> dict:
    seqs, config = make_inputs(spec, variant, tmp)
    model = MotionMoE(config)
    settings = training.TrainSettings(
        epochs=10 ** 9, batch_size=spec["batch"], horizons=spec["horizons"], seed=variant,
        checkpoint_every=CHECKPOINT_EVERY, out_dir=str(tmp))
    losses: list[float] = []
    errors: list[str] = []
    start = {name: p.data.copy() for name, p in model.parameters().items()}
    first_update = {}

    def hook(_model, record):
        losses.append(record["train_loss"])
        if start:
            # (sum, sum of magnitudes) of each tensor's warm-up-epoch update
            for name, p in model.parameters().items():
                step = p.data - start.pop(name)
                first_update[name] = [float(step.sum(dtype=np.float64)),
                                      float(np.abs(step).sum(dtype=np.float64))]
        if req.done():
            raise Stop

    try:
        training.fit(model, seqs, None, settings, hooks=(hook,))
    except Stop:
        pass
    except Exception as exc:  # a failed request ends a training run
        errors.append(f"epoch {len(losses)}: {type(exc).__name__}: {exc}")
    attempted = len(losses) + len(errors)
    failed = set(range(len(losses), attempted))

    # round-trip the last checkpoint fit wrote: it must load, match the
    # config and the epoch in its name, and hold finite parameters
    saved = sorted(tmp.glob("checkpoint_*.stmc"))
    if saved:
        epoch = int(saved[-1].stem.split("_")[1])
        try:
            ckpt = training.load_checkpoint(saved[-1], expected_config=config)
            if ckpt.epoch != epoch or not all(np.all(np.isfinite(a)) for a in ckpt.tensors.values()):
                raise ValueError(f"epoch {ckpt.epoch} or parameters do not check out")
        except Exception as exc:
            failed.add(epoch - 1)
            errors.append(f"checkpoint {saved[-1].name}: {type(exc).__name__}: {exc}")

    direct_nodes = None
    if tracer is not None:
        # the node count of one forward recorded directly, outside any span
        tracer.request = -2
        hist, _ = next(data.batch_iter(seqs, spec["batch"], config.history_frames,
                                       config.total_frames))
        with autodiff.Tape() as tape:
            model.forward(autodiff.Tensor(scenes(hist, config.scene_persons)), train_mode=True,
                          rng=np.random.default_rng(0))
        direct_nodes = len(tape.nodes)
        del tape
    rows = len(seqs) * seqs[0].persons
    return dict(attempted=attempted, failed=failed, errors=errors,
                rows=[rows] * len(req.durations),
                outputs={"train_loss": losses, "first_update": first_update},
                direct_nodes=direct_nodes)


def run_forecast(spec, variant, req: Requests, tmp: Path, tracer) -> dict:
    seqs, config = make_inputs(spec, variant, tmp)
    path = tmp / "model.stmc"
    training.save_checkpoint(path, MotionMoE(config), training.AdamState(), 0,
                             np.random.default_rng(variant))
    model = training.model_from_checkpoint(training.load_checkpoint(path, expected_config=config))
    t, total, persons = config.history_frames, config.total_frames, config.scene_persons
    n_batches = math.ceil(len(seqs) / spec["batch"])

    def batches():
        while True:
            yield from data.batch_iter(seqs, spec["batch"], t, total)

    source = batches()
    first_pass: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    failed: set[int] = set()
    errors: list[str] = []
    rows: list[int] = []
    k = 0
    while True:
        b = k % n_batches
        n_rows = 0
        try:
            hist, target = next(source)
            n_rows = hist.shape[0]
            pred, _ = model.forward(autodiff.Tensor(scenes(hist, persons)))
            out = pred.data
            if out.shape != (hist.shape[0] // persons, config.pose_dim, total):
                raise ValueError(f"forecast shape {out.shape}")
            if not np.all(np.isfinite(out)):
                raise ValueError("non-finite forecast")
            if b in first_pass:
                if not np.allclose(out, first_pass[b][0], rtol=RTOL[spec["dtype"]], atol=0.0):
                    raise ValueError(f"batch {b} forecast differs from its first pass")
            else:
                first_pass[b] = (out, target)
        except Exception as exc:
            failed.add(k)
            errors.append(f"request {k}: {type(exc).__name__}: {exc}")
        if k:
            rows.append(n_rows)
        k += 1
        if req.done():
            break

    outputs = {}
    if len(first_pass) == n_batches:
        pose4d = (-1, config.joints, 3, total)  # (persons, J, 3, T), as training scores
        pred = np.concatenate([first_pass[b][0].reshape(pose4d) for b in range(n_batches)])
        gt = np.concatenate([first_pass[b][1].reshape(pose4d) for b in range(n_batches)])
        report = objectives.report_at_horizons(pred, gt, t, 25.0, spec["horizons"])
        outputs = {"avg_jpe": report.avg_jpe, "avg_ape": report.avg_ape,
                   "forecast": [[float(first_pass[b][0].sum()), float(np.abs(first_pass[b][0]).sum())]
                                for b in range(n_batches)]}
    return dict(attempted=k, failed=failed, errors=errors, rows=rows, outputs=outputs,
                direct_nodes=None, first_pass=n_batches)


def check_outputs(name, size, spec, variant, seconds, result) -> None:
    """Compare the run's outputs with the recorded reference values; a
    mismatch fails the requests that produced the output."""
    with open(HERE / "reference.json") as fh:
        ref = json.load(fh)[f"{size}/{name}/{variant}"]
    rtol = RTOL[spec["dtype"]]
    out = result["outputs"]
    if spec["kind"] == "train":
        checked = zip(out["train_loss"][:CHECKED_EPOCHS[name]], ref["train_loss"])
        for epoch, (got, want) in enumerate(checked):
            if not math.isclose(got, want, rel_tol=rtol):
                result["failed"].add(epoch)
                result["errors"].append(f"epoch {epoch}: train_loss {got!r} != reference {want!r}")
        # The loss barely sees a wrong gradient on the slow ssm path, but the
        # update does: under a wrong-gradient change some tensor's moved by
        # >= 2.2e-2 of its update size, under a 4-ulp nudge of the weights
        # none moved by more than 1e-13 (float64) or 4.6e-6 (float32).
        for tensor, (total, size) in ref["first_update"].items():
            got_total, got_size = out["first_update"].get(tensor, (math.nan, math.nan))
            if not (abs(got_total - total) <= rtol * size and abs(got_size - size) <= rtol * size):
                result["failed"].add(0)
                result["errors"].append(f"warm-up update of {tensor} differs from the reference")
        return
    if not out:
        if seconds > 0:  # a set-up-only run makes just the warm-up request
            result["failed"].update(range(result["first_pass"]))
            result["errors"].append("run ended before one pass over the dataset")
        return
    for key in ("avg_jpe", "avg_ape"):
        if not math.isclose(out[key], ref[key], rel_tol=rtol):
            result["failed"].update(range(result["first_pass"]))
            result["errors"].append(f"{key} {out[key]!r} != reference {ref[key]!r}")
    # The untrained model forecasts near 0 against targets metres away, so
    # Avg JPE hardly sees the forecast; (sum, sum |.|) of each batch does.
    for b, ((total, size), (want_total, want_size)) in enumerate(
            zip(out["forecast"], ref["forecast"])):
        if not (abs(total - want_total) <= rtol * want_size
                and abs(size - want_size) <= rtol * want_size):
            result["failed"].add(b)
            result["errors"].append(f"batch {b} forecast differs from the reference")


def provenance() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                threads = int(fn())
                break
    return {"nproc": len(os.sched_getaffinity(0)),
            "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 1e6,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--max-requests", type=int, default=10 ** 9)
    ap.add_argument("--record", action="store_true", help="skip the reference check")
    args = ap.parse_args(argv)
    spec = WORKLOADS[args.workload][args.size]
    variant = args.seed % VARIANTS

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    req = Requests(args.seconds, args.max_requests, RSS_REQUESTS[args.workload], tracer)
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        run = run_train if spec["kind"] == "train" else run_forecast
        result = run(spec, variant, req, Path(tmp), tracer)
    if not args.record:
        check_outputs(args.workload, args.size, spec, variant, args.seconds, result)

    out = {"t_first": req.first, "durations": req.durations, "rows": result["rows"],
           "attempted": result["attempted"], "failed": len(result["failed"]),
           "errors": result["errors"], "outputs": result["outputs"],
           "peak_rss_mb": req.peak_rss_mb, "rss_requests": req.rss_requests,
           "provenance": provenance()}
    if tracer is not None:
        tracer.uninstall()
        spans_file = ROOT / ".bench_trace" / f"{args.workload}-{args.size}-seed{args.seed}.jsonl"
        spans_file.parent.mkdir(exist_ok=True)
        tracer.dump(spans_file)
        shares, loose, wall = backward_shares(tracer.spans)
        out["trace"] = {"metrics": layer_metrics(tracer.spans, len(req.durations), req.retained),
                        "absent": tracer.absent, "backward_shares": shares,
                        "backward_loose_s": loose, "backward_wall_s": wall,
                        "direct_nodes": result["direct_nodes"],
                        "spans_file": str(spans_file.relative_to(ROOT))}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
