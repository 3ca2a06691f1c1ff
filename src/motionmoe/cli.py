"""Command line entry points.

Exit codes: 0 on success, 2 for usage or configuration problems, 1 for
runtime failures (bad data files, non-finite training, I/O errors).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from .autodiff import (AutodiffError, Tape, Tensor, backward, mul,
                       reduce_sum, set_default_dtype)
from .config import (ConfigError, RUN_SCHEMA, SYNTH_SCHEMA, format_config, from_values,
                     parse_config_file, parse_config_text, parse_value, schema_help)
from .data import DataError, GeneratorSpec, MotionSequence, read_dataset, \
    synth_generate, unflatten_poses, write_atomic, write_dataset
from .model import ModelConfig, MotionMoE, audit_parameters
from .moe import expert_outputs
from .objectives import horizon_frames
from .ssm import init_bi_block, bidirectional_forward
from .training import (SERVE_BATCH, TrainingError, TrainSettings, append_log, evaluate,
                       fit, load_checkpoint, model_from_checkpoint, scene_batches)

FEATURE_MAGIC = "MMFX"


def _load_values(path, overrides: list[str], schema: dict) -> dict:
    """The config file at ``path`` (the schema's defaults when None) with
    each ``--set KEY=VALUE`` of ``overrides`` applied."""
    values = parse_config_file(path, schema) if path else parse_config_text("", schema)
    for item in overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        values[key.strip()] = parse_value(schema, key.strip(), value, "--set")
    return values


def cmd_synth(args) -> int:
    spec = from_values(GeneratorSpec, _load_values(args.spec, args.set, SYNTH_SCHEMA))
    sequences = synth_generate(spec)
    write_dataset(sequences, args.out)
    print(f"wrote {len(sequences)} sequences "
          f"({spec.persons} persons, {spec.frames} frames, {spec.joints} joints) to {args.out}")
    return 0


def _check_metrics(config: ModelConfig, settings: TrainSettings,
                   horizons: str, root_joint: str) -> None:
    """ConfigError, naming the key or flag ``horizons`` or ``root_joint``, unless
    each horizon is a frame of the forecast window and the root joint a joint."""
    try:
        horizon_frames(settings.horizons, settings.fps,
                       config.total_frames - config.history_frames)
    except ValueError as exc:
        raise ConfigError(f"{horizons}: {exc}") from None
    if not 0 <= settings.root_joint < config.joints:
        raise ConfigError(f"{root_joint} {settings.root_joint} is not a joint index "
                          f"in [0, {config.joints})")


def cmd_train(args) -> int:
    values = _load_values(args.config, args.set, RUN_SCHEMA)
    if not values["train_data"]:
        raise ConfigError("train_data is required (set it in the config or via --set)")
    set_default_dtype(values["dtype"])
    config = from_values(ModelConfig, values)
    settings = from_values(TrainSettings, values)
    _check_metrics(config, settings, "horizons", "root_joint")

    train_seqs = read_dataset(values["train_data"])
    if not train_seqs:
        raise ConfigError(f"training dataset {values['train_data']} is empty")
    val_seqs = read_dataset(values["val_data"]) if values["val_data"] else None

    resume = load_checkpoint(args.resume, expected_config=config) if args.resume else None
    # Adam's moments would stay in the checkpoint's dtype while the parameters
    # took the run's
    if resume is not None and resume.param_dtype() != values["dtype"]:
        raise ConfigError(f"--resume: checkpoint {args.resume} holds {resume.param_dtype()} "
                          f"parameters, but this run's dtype is {values['dtype']}")
    # fit goes on with the checkpoint's Adam settings, which resolved.cfg would misstate
    for key in ("beta1", "beta2", "eps"):
        if resume is not None and resume.adam_meta[key] != getattr(settings, key):
            raise ConfigError(f"--resume: checkpoint {args.resume} holds Adam {key} "
                              f"{resume.adam_meta[key]}, but this run's {key} is "
                              f"{getattr(settings, key)}")

    out_dir = Path(settings.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_atomic(out_dir / "resolved.cfg", [format_config(values, RUN_SCHEMA).encode()])

    model = MotionMoE(config)
    audit = audit_parameters(model)
    print(f"model parameters: {audit.total}")

    log_path = out_dir / "train_log.jsonl"
    started = time.perf_counter()
    # one record per epoch as it ends, so a stopped run keeps its log
    log = fit(model, train_seqs, val_seqs, settings, resume=resume,
              hooks=(lambda _model, record: append_log(log_path, [record]),))
    elapsed = time.perf_counter() - started
    if log:
        last = log[-1]
        extra = f" val_jpe={last['val_jpe']:.3f}" if "val_jpe" in last else ""
        print(f"trained {len(log)} epochs in {elapsed:.1f}s, "
              f"final loss {last['train_loss']:.6f}{extra}")
    print(f"artifacts in {out_dir}")
    return 0


def _read_eval_pair(args):
    ckpt = load_checkpoint(args.checkpoint)
    model = model_from_checkpoint(ckpt)
    sequences = read_dataset(args.data)
    if not sequences:
        raise ConfigError(f"dataset {args.data} is empty")
    return model, sequences


def cmd_eval(args) -> int:
    model, sequences = _read_eval_pair(args)
    horizons = parse_value(RUN_SCHEMA, "horizons", args.horizons, "--horizons")
    try:
        settings = TrainSettings(fps=args.fps, horizons=horizons, root_joint=args.root_joint)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    _check_metrics(model.config, settings, "--horizons", "--root-joint")
    report = evaluate(model, sequences, settings)
    table = report.to_table()
    print(table)
    if args.out:
        write_atomic(args.out, [(table + "\n").encode()])
    return 0


def cmd_predict(args) -> int:
    model, sequences = _read_eval_pair(args)
    cfg = model.config
    out_seqs = []
    for hist, _ in scene_batches(cfg, sequences, SERVE_BATCH):
        first = len(out_seqs)
        persons = [seq.persons for seq in sequences[first:first + SERVE_BATCH]]
        try:
            pred, _ = model.forward(hist)
        except ValueError:  # non-finite history: find its sequence's rows
            rows = np.cumsum([0] + persons) // cfg.scene_persons
            for i, (lo, hi) in enumerate(zip(rows[:-1], rows[1:])):
                try:
                    model.encode(hist[lo:hi])
                except ValueError as exc:
                    raise DataError(f"sequence {first + i}: {exc}") from None
            raise
        # one row per person: (M, T, J, 3) for each sequence
        poses = unflatten_poses(pred.data.reshape(-1, cfg.joints * 3, cfg.total_frames))
        for part in np.split(poses, np.cumsum(persons)[:-1]):
            out_seqs.append(MotionSequence(part.astype(np.float32), sequences[0].fps))
    write_dataset(out_seqs, args.out)
    print(f"wrote {len(out_seqs)} predicted sequences to {args.out}")
    return 0


def cmd_inspect_routing(args) -> int:
    model, sequences = _read_eval_pair(args)
    cfg = model.config
    pool = cfg.expert_pool
    lines = []
    mass = np.zeros(cfg.n_experts)
    routed = np.zeros(cfg.n_experts, dtype=int)
    count = 0
    for hist, _ in scene_batches(cfg, sequences, SERVE_BATCH):
        if args.limit and count >= args.limit:
            break
        if args.limit:
            hist = hist[:args.limit - count]
        _, decisions = model.forward(hist)
        for layer_index, decision in enumerate(decisions):
            lines.extend(decision.to_lines(sample_offset=count, layer=layer_index))
            mass += decision.weights.data.sum(axis=0)
            routed += np.count_nonzero(decision.weights.data, axis=0)
        count += hist.shape[0]
    histogram = [f"expert={kind} rows={routed[i]} mass={mass[i]:.6f}"
                 for i, kind in enumerate(pool)]
    text = "\n".join(lines + histogram) + "\n"
    write_atomic(args.out, [text.encode()])
    print("\n".join(histogram))
    print(f"routing for {count} samples x {len(model.layers)} layer(s) written to {args.out}")
    return 0


def cmd_export_features(args) -> int:
    """Per-expert pooled features for embedding plots: every expert is
    evaluated densely on the first mixture layer's input features, sharing
    first stages as the mixture layer does."""
    model, sequences = _read_eval_pair(args)
    cfg = model.config
    width = cfg.pose_dim + cfg.total_frames
    pool = cfg.expert_pool
    layer = model.layers[0]

    rows = []
    count = 0
    for hist, _ in scene_batches(cfg, sequences, SERVE_BATCH):
        if count >= args.samples:
            break
        hist = hist[:args.samples - count]
        outs = expert_outputs(pool, layer.spatial, layer.temporal, model.encode(hist))
        for kind in pool:
            out = outs[kind].data
            pooled = np.concatenate([out.mean(axis=2), out.mean(axis=1)], axis=1)
            rows.append(np.ascontiguousarray(pooled, dtype="<f4").tobytes())
        count += hist.shape[0]

    header = json.dumps({"magic": FEATURE_MAGIC, "samples": count,
                         "experts": list(pool), "width": width,
                         "layout": "batch-major, expert-minor within batch"},
                        sort_keys=True)
    write_atomic(args.out, [header.encode() + b"\n", *rows])
    print(f"wrote {count * len(pool)} feature rows of width {width} to {args.out}")
    return 0


def read_feature_export(path):
    """(header dict, rows (n, width) float32); inverse of cmd_export_features."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        payload = np.frombuffer(fh.read(), dtype="<f4")
    rows = payload.reshape(-1, header["width"])
    return header, rows


def cmd_bench(args) -> int:
    try:
        lengths = [int(x) for x in args.lengths.split(",")]
    except ValueError:
        raise ConfigError(f"--lengths must be integers, got {args.lengths!r}") from None
    if min(lengths) < 1 or len(set(lengths)) < 2:
        raise ConfigError("bench needs at least two distinct lengths, each >= 1, "
                          f"to fit a growth exponent, got {args.lengths!r}")
    for flag in ("batch", "channels", "repeats"):
        if getattr(args, flag) < 1:
            raise ConfigError(f"--{flag} must be >= 1, got {getattr(args, flag)}")
    channels, batch = args.channels, args.batch
    rng = np.random.default_rng(0)
    block = init_bi_block(rng, channels, state_dim=16, conv_width=4)
    params = list(block.parameters().values())

    def train_step(x):
        """One recorded step; returns the bytes traced after its forward,
        while the tape keeps what the backward reads."""
        for p in params:
            p.grad = None
        with Tape():
            out = bidirectional_forward(block, Tensor(x.data, requires_grad=True))
            loss = reduce_sum(mul(out, out))
            kept = tracemalloc.get_traced_memory()[0]
            backward(loss)
        return kept

    print(f"scan-dominated block: batch={batch} channels={channels} repeats={args.repeats}")
    print("length\tforward_ms\tbackward_ms\tminflt_per_fwd\tforward_peak_mb\tkept_mb"
          "\tbackward_peak_mb")
    rows = []
    fwd_times = []
    for length in lengths:
        x = Tensor(rng.standard_normal((batch, length, channels)))
        fwd = []
        both = []
        faults = []
        for _ in range(args.repeats):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            bidirectional_forward(block, x)
            fwd.append(time.perf_counter() - t0)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            t0 = time.perf_counter()
            train_step(x)
            both.append(time.perf_counter() - t0)
        # one more forward and step, untimed: tracing slows every allocation
        tracemalloc.start()
        try:
            bidirectional_forward(block, x)
            fwd_peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
            tracemalloc.reset_peak()
            kept_mb = train_step(x) / 1e6
            peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        f_ms, b_ms = 1e3 * min(fwd), 1e3 * min(both)
        fwd_times.append(min(fwd))
        rows.append(f"{length}\t{f_ms:.2f}\t{b_ms:.2f}\t{min(faults)}\t{fwd_peak_mb:.3f}"
                    f"\t{kept_mb:.3f}\t{peak_mb:.3f}")
        print(rows[-1])

    exponent = float(np.polyfit(np.log(lengths), np.log(fwd_times), 1)[0])
    print(f"fitted growth exponent: {exponent:.3f}")
    if args.out:
        write_atomic(args.out, [("\n".join(rows) + f"\nexponent\t{exponent:.4f}\n").encode()])
    return 0


def _count(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motionmoe",
        description="Multi-person motion forecasting with a shared-expert state-space mixture.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="run config keys:\n" + schema_help(RUN_SCHEMA)
               + "\n\nsynth spec keys:\n" + schema_help(SYNTH_SCHEMA))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--spec", help="generator spec file (key = value)")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--out", required=True, help="output .mmp1 path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", help="run config file (key = value)")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--fps", type=float, default=25.0)
    p.add_argument("--horizons", default="0.2,0.6,1.0")
    p.add_argument("--root-joint", type=int, default=0)
    p.add_argument("--out", help="write the metric table here as well")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="write forecast sequences for a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("inspect-routing", help="dump gate decisions and expert mass")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--limit", type=_count, default=0, help="max samples, 0 = all")
    p.set_defaults(func=cmd_inspect_routing)

    p = sub.add_parser("export-features", help="pooled per-expert features for embedding")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=_count, default=300)
    p.set_defaults(func=cmd_export_features)

    p = sub.add_parser("bench", help="time the scan-dominated block across lengths")
    p.add_argument("--lengths", default="32,64,128,256")
    p.add_argument("--channels", type=int, default=32)
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, TrainingError, AutodiffError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
