"""motionmoe benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py                    # every workload, 30 s each
    python3 perfbench/run.py --workload train_overfit --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload forecast_scene --seed 3 --seconds 30 --trace 1
    python3 perfbench/run.py --record-reference # rewrite reference.json

Run it from the root of a checkout.  Each workload runs in fresh
interpreters (``worker.py``): with ``--trace 0`` the benchmark sets the
workload up three times and measures the last set-up for ``--seconds``, and
prints the end-to-end metrics; with ``--trace 1`` it measures once untraced
and once traced, and prints the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 0 means
every output check passed, 1 that some failed, 2 that the run could not be
made.  See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train_overfit", "train_default", "forecast_scene")
SETUPS = 3           # processes set up per untraced run; setup_s is their median
DEADLINE_SLACK_S = 100.0  # a workload's run ends within this plus its measured seconds
TAIL_BEYOND = 10     # the tail percentile leaves at least this many samples above it
UNHELD_MAX = 0.03    # share of backward closure time that may miss every layer span

END_TO_END_UNITS = {"setup_s": "s", "request_s.p50": "s", "request_s.tail": "s",
                    "samples_per_s": "rows/s", "peak_rss_mb": "MB"}

# timed requests recorded per variant by --record-reference, after the warm-up:
# the checked epochs (train) or one pass over the dataset (forecast)
RECORD_REQUESTS = {"full": {"train_overfit": 5, "train_default": 15, "forecast_scene": 3},
                   "tiny": {"train_overfit": 5, "train_default": 15, "forecast_scene": 1}}


class BenchError(Exception):
    """The benchmark could not be run: missing sources, a crashed worker."""


def spawn(workload: str, seed: int, seconds: float, trace: bool, size: str,
          deadline: float, extra: tuple[str, ...] = ()) -> dict:
    """One worker process; returns its result with ``setup_s`` added."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(int(trace)),
           "--size", size, *extra]
    env = dict(os.environ)
    env.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker did not finish before the deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["t_first"] - started
    return result


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least
    TAIL_BEYOND samples above it, or the maximum of a shorter run."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return math.floor(100.0 * (n - TAIL_BEYOND) / n), ordered[n - TAIL_BEYOND - 1]


def check_provenance(prov: dict) -> None:
    threads = prov["blas_threads"]
    if threads is not None and threads > prov["nproc"]:
        raise BenchError(f"BLAS uses {threads} threads on {prov['nproc']} CPUs")


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Run one workload, print its report lines and return the result object."""
    deadline = time.monotonic() + DEADLINE_SLACK_S + seconds * (2 if trace else 1)
    if trace:
        runs = [spawn(workload, seed, seconds, False, size, deadline),
                spawn(workload, seed, seconds, True, size, deadline)]
    else:
        runs = [spawn(workload, seed, 0.0, False, size, deadline) for _ in range(SETUPS - 1)]
        runs.append(spawn(workload, seed, seconds, False, size, deadline))
    run = runs[-1]
    prov = run["provenance"]
    check_provenance(prov)
    print(f"# {workload}: nproc={prov['nproc']} mem_total_mb={prov['mem_total_mb']:.0f} "
          f"python={prov['python']} numpy={prov['numpy']} blas={prov['blas']} "
          f"blas_threads={prov['blas_threads']} seed={seed} seconds={seconds:g}")
    if trace:
        metrics, problems = report_trace(workload, runs[0], run)
    else:
        metrics, problems = report_end_to_end(workload, run, [r["setup_s"] for r in runs]), []
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"{workload} failed_share {failed / attempted:.6g} ratio  "
          f"{failed} failed of {attempted} attempted")
    for error in [e for r in runs for e in r["errors"]][:10] + problems:
        print(f"{workload} error: {error}")
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def report_end_to_end(workload: str, run: dict, setups: list[float]) -> dict:
    durations = run["durations"]
    pct, tail_s = tail(durations)
    values = {"setup_s": statistics.median(setups),
              "request_s.p50": statistics.median(durations),
              "request_s.tail": tail_s,
              "samples_per_s": sum(run["rows"]) / sum(durations),
              "peak_rss_mb": run["peak_rss_mb"]}
    notes = {"setup_s": f"median of {len(setups)} set-ups",
             "request_s.p50": f"n={len(durations)}",
             "request_s.tail": f"p{pct:g}, n={len(durations)}"
                               + (": not above the median, too few requests" if pct <= 50 else ""),
             "peak_rss_mb": f"ru_maxrss after {run['rss_requests']} timed requests"}
    for name, value in values.items():
        print(f"{workload} {name} {value:.6g} {END_TO_END_UNITS[name]}  {notes.get(name, '')}")
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()}


def report_trace(workload: str, plain: dict, traced: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced run, plus the tracer's own checks."""
    info = traced["trace"]
    layer = info["metrics"]
    problems = []
    for name, (unit, _) in PER_LAYER.items():
        print(f"{workload} {name} {layer[name]:.6g} {unit}")
    print(f"{workload} spans written to {info['spans_file']}")
    for name in info["absent"]:
        print(f"{workload} absent span: {name} (its metrics read 0)")
    untraced = statistics.median(plain["durations"])
    with_trace = statistics.median(traced["durations"])
    print(f"{workload} tracing overhead: request_s.p50 {with_trace:.6g} s traced - "
          f"{untraced:.6g} s untraced = {with_trace - untraced:+.6g} s")
    wall = info["backward_wall_s"]
    if wall > 0:
        shares, loose = info["backward_shares"], info["backward_loose_s"]
        closures = sum(shares.values()) + loose
        for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"{workload} backward share {name}: {share / wall:.1%}")
        print(f"{workload} backward share outside node closures: {1.0 - closures / wall:.1%}")
        # attribution check: node-closure time that no layer span's node
        # range holds stays on the step span
        unheld = loose / closures if closures else 1.0
        print(f"{workload} backward closure time no layer span holds: {unheld:.2%}")
        if unheld > UNHELD_MAX:
            problems.append(f"{unheld:.2%} of backward closure time is held by no layer span")
    if info["direct_nodes"] is not None:
        nodes = layer["autodiff.tape_nodes"]
        print(f"{workload} tape nodes per forward: traced {nodes:g}, "
              f"recorded directly {info['direct_nodes']}")
        if nodes != info["direct_nodes"]:
            problems.append("traced tape-node count differs from a direct recording")
    return {name: {"value": layer[name], "unit": unit}
            for name, (unit, _) in PER_LAYER.items()}, problems


def record_reference() -> None:
    """Record every variant's outputs from the current program."""
    from worker import VARIANTS

    lines = []
    for size, budget in RECORD_REQUESTS.items():
        for workload in WORKLOADS:
            for variant in range(VARIANTS):
                run = spawn(workload, variant, 1e9, False, size, time.monotonic() + 3600,
                            ("--record", "--max-requests", str(budget[workload])))
                key = f"{size}/{workload}/{variant}"
                lines.append(f"{json.dumps(key)}: {json.dumps(run['outputs'], sort_keys=True)}")
                print(f"recorded {key}", flush=True)
    with open(HERE / "reference.json", "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")  # one line per variant


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs the same code at toy sizes (the benchmark's smoke test)")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "motionmoe" / "__init__.py").is_file():
        print(f"error: no motionmoe sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        if args.record_reference:
            record_reference()
            return 0
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        ok = True
        for workload in workloads:
            result = measure(workload, args.seed, args.seconds, bool(args.trace), args.size)
            ok = ok and result["correct"]
            print(json.dumps(result), flush=True)
        return 0 if ok else 1
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        scratch = ROOT / ".bench_tmp"
        if scratch.is_dir() and not any(scratch.iterdir()):
            scratch.rmdir()


if __name__ == "__main__":
    sys.exit(main())
