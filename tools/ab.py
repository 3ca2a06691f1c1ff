"""Paired in-process timing of one perfbench workload on two checkouts.

    python3 tools/ab.py PARENT CHANGE --workload train_default

Both trees' ``src/motionmoe`` packages are imported into this one process
(``digest.load_tree``), and each sets the workload up as perfbench's worker
does, from the spec that ``perfbench/worker.py`` holds and its variant 0
(perfbench's ``--seed 0``), on the same data file.  Each tree is imported
and set up twice, in two set-ups of opposite order: PARENT first in one,
CHANGE first in the other.  With one set-up, the tree imported and set up
second ran about 0.5% faster on ``forecast_scene`` in 7 of 8 A/A runs,
whichever tree it was, so the pairs alternate between the two set-ups and
the lean cancels.  A request is what the worker times: one training epoch,
with a checkpoint every ``CHECKPOINT_EVERY`` epochs, or one forecast of a
batch of scenes.  After one untimed warm-up request per side, the two
sides take turns: each of ``PAIRS`` pairs times ``REQUESTS`` requests per
side, one side's then the other's, and the side that starts alternates
from request to request.  The two requests of one turn run the same epoch
or batch back to back, and a pair's ratio is the median of its turns'
ratios.  The cyclic collector runs before every request, outside its time,
so that one side's garbage is not collected on the other's clock.

A ratio is CHANGE's time over PARENT's.  The report gives the
median ratio, the share of pairs that CHANGE won (ratio below 1) and the
spread (the ratios' quartiles).  Since both sides see the same load at the
same moments, the ratio resolves changes that runs in separate processes,
minutes apart, do not.  Peak RSS and set-up time cannot be paired in one
process and are not reported.  The last line of output is one JSON object.

Resolution: A/A runs (a checkout against a copy of it) read medians within
about 0.5% of 1 on ``train_overfit`` and ``train_default`` (0.998-1.005 over
six runs, BENCH_stack_rule.json) and within about 1% on
``forecast_scene`` (1.0100, 1.0000 and 1.0014, BENCH_step_holds.json), where
each run's per-pair quartiles span about +-1%.  So a median ratio within
0.5% of 1 on a training workload, or within 1% on ``forecast_scene``, shows
no difference.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from digest import load_tree, workload_specs

# Two copies of one tree read within 2% of each other, and a copy slowed by
# 10% loses at least 90% of the pairs, on every workload (BENCH_stack_rule.json;
# with the two set-ups, on forecast_scene, in BENCH_step_holds.json).
PAIRS = 20
REQUESTS = 20
SEED = 0  # perfbench's variant 0: it seeds the data, the model and the shuffling


class Side:
    """One tree's set-up of the workload; ``request()`` runs one request."""

    def __init__(self, mm, spec: dict, data_path: Path, out_dir: Path, checkpoint_every: int):
        self.mm, self.spec = mm, spec
        self.training = importlib.import_module(f"{mm.__name__}.training")
        mm.set_default_dtype(spec["dtype"])
        self.seqs = mm.read_dataset(data_path)
        config = mm.ModelConfig(**{"seed": SEED, **spec["model"]})
        self.config = config
        if spec["kind"] == "train":
            self.model = mm.MotionMoE(config)
            self.settings = mm.TrainSettings(
                epochs=10 ** 9, batch_size=spec["batch"], horizons=spec["horizons"],
                seed=SEED, checkpoint_every=checkpoint_every, out_dir=str(out_dir))
            self.optim = mm.AdamState(beta1=self.settings.beta1, beta2=self.settings.beta2,
                                      eps=self.settings.eps)
            self.rng = np.random.default_rng(self.settings.seed)
            self.epoch = 0
            self.request = self.train_request
        else:
            path = out_dir / "model.stmc"
            mm.save_checkpoint(path, mm.MotionMoE(config), mm.AdamState(), 0,
                               np.random.default_rng(SEED))
            self.model = mm.model_from_checkpoint(mm.load_checkpoint(path,
                                                                     expected_config=config))
            data = importlib.import_module(f"{mm.__name__}.data")
            self.batches = self.forever(data.batch_iter, config)
            self.request = self.forecast_request

    def forever(self, batch_iter, config):
        while True:
            yield from batch_iter(self.seqs, self.spec["batch"], config.history_frames,
                                  config.total_frames)

    def train_request(self):
        # fit's loop body: the epoch, then its periodic checkpoint
        self.training.run_epoch(self.model, self.seqs, self.settings, self.optim, self.rng,
                                self.epoch, {})
        self.epoch += 1
        if self.epoch % self.settings.checkpoint_every == 0:
            self.mm.save_checkpoint(f"{self.settings.out_dir}/checkpoint_{self.epoch:05d}.stmc",
                                    self.model, self.optim, self.epoch, self.rng)

    def forecast_request(self):
        hist, _ = next(self.batches)
        b, d, t = hist.shape
        persons = self.config.scene_persons
        self.model.forward(self.mm.Tensor(hist.reshape(b // persons, persons * d, t)))

    def timed(self) -> float:
        gc.collect()
        started = time.perf_counter()
        self.request()
        return time.perf_counter() - started


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", metavar="PARENT", help="checkout root of the baseline")
    ap.add_argument("change", metavar="CHANGE", help="checkout root of the change")
    specs = workload_specs()
    ap.add_argument("--workload", required=True, choices=sorted(specs["WORKLOADS"]))
    args = ap.parse_args(argv)
    spec = specs["WORKLOADS"][args.workload]["full"]

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        trees = (("parent", args.parent), ("change", args.change))
        data_path = tmp / "data.mmp1"
        setups = []  # [parent's side, change's side] per set-up
        for first in (0, 1):
            sides = {}
            for i in (first, 1 - first):
                name, tree = trees[i]
                mm = load_tree(tree, f"motionmoe_{name}{len(setups)}")
                mm.set_default_dtype(spec["dtype"])
                if not data_path.exists():
                    mm.write_dataset(mm.synth_generate(
                        mm.GeneratorSpec(**spec["data"], seed=SEED)), data_path)
                out_dir = tmp / mm.__name__
                out_dir.mkdir()
                sides[i] = Side(mm, spec, data_path, out_dir, specs["CHECKPOINT_EVERY"])
            setups.append([sides[0], sides[1]])
        for side in (side for sides in setups for side in sides):
            side.timed()  # warm-up
        times, ratios = [[], []], []
        turn = 0
        for pair in range(PAIRS):
            sides = setups[pair % 2]
            rounds = []
            for _ in range(REQUESTS):
                t = [0.0, 0.0]
                for i in (turn, 1 - turn):
                    t[i] = sides[i].timed()
                rounds.append(t)
                turn = 1 - turn
            for i in (0, 1):
                times[i].append(statistics.median(t[i] for t in rounds))
            ratios.append(statistics.median(c / p for p, c in rounds))
    q1, q3 = quartiles(ratios)
    for n, (p, c, r) in enumerate(zip(*times, ratios)):
        print(f"pair {n}: parent {p:.4f} s  change {c:.4f} s  ratio {r:.4f}")
    median = statistics.median(ratios)
    won = sum(r < 1.0 for r in ratios) / len(ratios)
    print(f"{args.workload}: median ratio {median:.4f}, change faster in "
          f"{won:.0%} of {len(ratios)} pairs, quartiles {q1:.4f}-{q3:.4f}")
    print(json.dumps({"workload": args.workload, "pairs": PAIRS, "requests_per_pair": REQUESTS,
                      "parent_request_s": statistics.median(times[0]),
                      "change_request_s": statistics.median(times[1]),
                      "median_ratio": median, "won": won, "ratio_q1": q1, "ratio_q3": q3,
                      "ratios": ratios}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
