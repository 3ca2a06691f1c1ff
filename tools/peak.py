"""Traced peak memory of a float32 ``ModelConfig()`` training step, per checkout.

    python3 tools/peak.py TREE [TREE]

For each TREE, the root of a checkout whose ``src/motionmoe`` is imported
under a name of its own (``digest.load_tree``), a fresh float32
``ModelConfig()`` model runs one step on 8 and on 32 rows of fixed random
input: a recorded train-mode forward, the sum of the squared forecast, and
the backward.  The peak is what ``tracemalloc`` traces from just before the
forward to the end of the backward, so it counts numpy's arrays and
Python's objects but not the interpreter or the libraries.  One line per
tree and row count, in MB (10^6 bytes).
"""

from __future__ import annotations

import argparse
import importlib
import sys
import tracemalloc

import numpy as np

from digest import load_tree

ROWS = (8, 32)


def step_peak(mm, rows: int) -> int:
    """Bytes at the traced peak of one float32 ModelConfig() step on ``rows`` rows."""
    ad = importlib.import_module(f"{mm.__name__}.autodiff")
    previous = mm.get_default_dtype()
    mm.set_default_dtype("float32")
    try:
        model = mm.MotionMoE(mm.ModelConfig())
        cfg = model.config
        x = mm.Tensor(np.random.default_rng(0).standard_normal(
            (rows, cfg.pose_dim, cfg.history_frames)))
        tracemalloc.start()
        try:
            with mm.Tape():
                pred, _ = model.forward(x, train_mode=True, rng=np.random.default_rng(1))
                mm.backward(ad.reduce_sum(ad.mul(pred, pred)))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        mm.set_default_dtype(previous)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("trees", nargs="+", metavar="TREE", help="one or two checkout roots")
    args = ap.parse_args(argv)
    if len(args.trees) > 2:
        ap.error("give one or two trees")
    for i, tree in enumerate(args.trees):
        mm = load_tree(tree, f"motionmoe_peak{i}")
        for rows in ROWS:
            print(f"{tree} {rows} rows: {step_peak(mm, rows) / 1e6:.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
