"""sha256 digests of what motionmoe computes, to show two checkouts agree bit for bit.

    python3 tools/digest.py TREE            # one digest per (config, dtype, part)
    python3 tools/digest.py PARENT CHANGE   # both trees' digests, and the parts that differ

Each TREE is the root of a checkout; its ``src/motionmoe`` is imported under
a name of its own, so two trees run in one process on the same inputs.  For
each config, in float32 and float64, from a fresh model (the config's seed)
and fixed random inputs, the parts are:

    forecast    a tape-free forecast of the fresh model
    loss        the loss of training step 1 (train mode, the config's dropout)
    grad/M      the step-1 gradients of the weights of module M (the codec,
                and each layer's router, spatial and temporal block)
    params      every weight after two Adam steps
    stmc        the bytes of a checkpoint written after those steps

The configs are ``ModelConfig()`` on 8 rows; the models of perfbench's
``train_overfit`` and ``forecast_scene`` on one batch of their scenes (8 and
16), read from ``perfbench/worker.py``; and two micro models with k = 2 and
two persons per scene on 4 scenes, one with two mixture layers and one whose
blocks scan forward only, so that a temporal block hands its input two
gradient shares rather than three.  A workload that only forecasts gets
only the forecast part, the one output it produces.  Exit code 0 means
every part matched (or one tree was given), 1 that some part differs.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import importlib
import importlib.util
import sys
import tempfile
from pathlib import Path

import numpy as np

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
DTYPES = ("float32", "float64")


def workload_specs(path: Path = WORKER) -> dict:
    """perfbench's WORKLOADS table, read from the worker's source without
    running the worker: only the assignments it is built from are run."""
    names = {"_MICRO", "_MICRO_DATA", "WORKLOADS", "CHECKPOINT_EVERY"}
    tree = ast.parse(path.read_text(), str(path))
    body = [node for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id in names for t in node.targets)]
    namespace: dict = {"__builtins__": {"dict": dict}}
    exec(compile(ast.Module(body=body, type_ignores=[]), str(path), "exec"), namespace)
    return namespace


def configs() -> dict[str, tuple[dict, int, bool]]:
    """name -> (ModelConfig overrides, batch rows, whether it trains)."""
    workloads = workload_specs()["WORKLOADS"]

    def workload(name):  # a batch of the workload's scenes
        spec = workloads[name]["full"]
        persons = spec["data"]["persons"] // spec["model"].get("scene_persons", 1)
        return spec["model"], spec["batch"] * persons, spec["kind"] == "train"

    micro = dict(joints=3, history_frames=5, total_frames=8, state_dim=4, conv_width=2,
                 codec_hidden=12, active_experts=2, scene_persons=2)
    return {
        "default": ({}, 8, True),
        "train_overfit": workload("train_overfit"),
        "forecast_scene": workload("forecast_scene"),
        "micro_k2_scenes": (dict(micro, moe_layers=2), 4, True),
        "micro_forward_k2_scenes": (dict(micro, scan_mode="forward"), 4, True),
    }


def load_tree(tree: str | Path, name: str):
    """The motionmoe package of the checkout ``tree``, imported as ``name``."""
    package = Path(tree).resolve() / "src" / "motionmoe"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {tree} has no src/motionmoe package")
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _module_of(name: str) -> str:
    parts = name.split("/")
    return parts[0] if parts[0] == "codec" else "/".join(parts[:2])


def digests(mm, overrides: dict, rows: int, train: bool, dtype: str) -> dict[str, str]:
    """part -> sha256 for one config and dtype, run by the package ``mm``;
    only the forecast unless ``train``."""
    ad = importlib.import_module(f"{mm.__name__}.autodiff")
    previous = mm.get_default_dtype()
    mm.set_default_dtype(dtype)
    try:
        model = mm.MotionMoE(mm.ModelConfig(**overrides))
        cfg = model.config
        rng = np.random.default_rng(0)
        hist = rng.standard_normal((rows, cfg.pose_dim, cfg.history_frames)) * 30.0
        target = rng.standard_normal((rows, cfg.pose_dim, cfg.total_frames)) * 30.0
        persons = (-1, cfg.joints, 3, cfg.total_frames)
        params = model.parameters()
        optim = mm.AdamState()
        dropout_rng = np.random.default_rng(1)
        training = importlib.import_module(f"{mm.__name__}.training")
        out = {"forecast": _sha(model.forward(mm.Tensor(hist))[0].data)}
        if not train:
            return out
        for step in (1, 2):
            for p in params.values():
                p.grad = None
            with mm.Tape():
                pred, _ = model.forward(mm.Tensor(hist), train_mode=True, rng=dropout_rng)
                loss = mm.total_loss(ad.reshape(pred, persons),
                                     mm.Tensor(target.reshape(persons)), cfg.history_frames)
                mm.backward(loss)
            grads = {name: p.grad for name, p in params.items() if p.grad is not None}
            if step == 1:
                out["loss"] = _sha(loss.data)
                modules: dict[str, list] = {}
                for name, g in grads.items():
                    modules.setdefault(_module_of(name), []).append(g)
                out.update({f"grad/{m}": _sha(*gs) for m, gs in modules.items()})
            training.adam_step(optim, params, grads, 0.01)
        out["params"] = _sha(*(p.data for p in params.values()))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.stmc"
            mm.save_checkpoint(path, model, optim, 2, np.random.default_rng(0))
            out["stmc"] = hashlib.sha256(path.read_bytes()).hexdigest()
        return out
    finally:
        mm.set_default_dtype(previous)


def tree_digests(mm) -> dict[tuple[str, str, str], str]:
    return {(config, dtype, part): sha
            for config, (overrides, rows, train) in configs().items()
            for dtype in DTYPES
            for part, sha in digests(mm, overrides, rows, train, dtype).items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("trees", nargs="+", metavar="TREE", help="one or two checkout roots")
    args = ap.parse_args(argv)
    if len(args.trees) > 2:
        ap.error("give one or two trees")
    runs = [tree_digests(load_tree(tree, f"motionmoe_tree{i}"))
            for i, tree in enumerate(args.trees)]
    keys = list(dict.fromkeys(key for run in runs for key in run))
    differ = []
    for key in keys:
        shas = [run.get(key, "-") for run in runs]
        if len(set(shas)) > 1:
            differ.append(key)
        print(" ".join(key), *shas)
    if len(runs) == 2:
        print(f"{len(keys) - len(differ)} of {len(keys)} parts match")
        for key in differ:
            print("differs:", " ".join(key))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
