"""Flat key = value run configuration.

Lines are ``key = value`` with ``#`` comments; unknown keys are rejected,
missing keys take the default of the ``ModelConfig``, ``LossWeights``,
``TrainSettings`` or ``GeneratorSpec`` field they set (``dtype``, the paths,
``out_dir`` and synth ``frames`` have their own), and the fully resolved
configuration is echoed into the output directory so every run is
reproducible from its artifacts.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass

from .data import MOTION_KINDS, DataError, GeneratorSpec
from .model import ModelConfig
from .training import TrainSettings


class ConfigError(Exception):
    """Unknown keys, malformed values or unusable combinations."""


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _parse_pool(text: str) -> tuple[str, ...]:
    return tuple(part.strip().upper() for part in text.split(",") if part.strip())


def _parse_mix(text: str) -> dict[str, float]:
    """e.g. ``walk:2,turn:1,stop_go:1``."""
    mix = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        kind, _, weight = part.partition(":")
        kind = kind.strip()
        if kind not in MOTION_KINDS:
            raise ValueError(f"unknown motion kind {kind!r}")
        mix[kind] = float(weight) if weight else 1.0
    return mix


def _parse_dtype(text: str) -> str:
    if text not in ("float32", "float64"):
        raise ValueError(f"must be float32 or float64, got {text!r}")
    return text


# (dataclass, field) -> its run key, where that is not the field's name
_RENAMED = {(ModelConfig, "seed"): "model_seed", (TrainSettings, "seed"): "train_seed",
            (TrainSettings, "base_lr"): "lr"}


def _to_values(obj) -> dict:
    """Run key -> value of each field of dataclass ``obj``, nested ones included."""
    values = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(f.default_factory):
            values |= _to_values(value)
        else:
            values[_RENAMED.get((type(obj), f.name), f.name)] = value
    return values


def from_values(cls, values: dict):
    """Dataclass ``cls`` with each field, nested ones included, taken from its
    run key in ``values``; its ValueErrors and DataErrors become ConfigErrors."""
    kwargs = {f.name: from_values(f.default_factory, values) if is_dataclass(f.default_factory)
              else values[_RENAMED.get((cls, f.name), f.name)] for f in fields(cls)}
    try:
        return cls(**kwargs)
    except (ValueError, DataError) as exc:
        raise ConfigError(str(exc)) from None


def _schema(entries: dict, defaults: dict) -> dict:
    """key -> (parser, default, help) from key -> (parser, help)."""
    return {key: (parser, defaults[key], help_) for key, (parser, help_) in entries.items()}


RUN_SCHEMA = _schema({
    # model
    "joints": (int, "joints per person"),
    "history_frames": (int, "observed frames t"),
    "total_frames": (int, "observed + predicted frames T"),
    "n_experts": (int, "experts per mixture layer"),
    "active_experts": (int, "top-k experts kept by the gate"),
    "moe_layers": (int, "stacked mixture layers"),
    "expert_pool": (_parse_pool, "expert kinds, comma separated"),
    "scan_mode": (str, "bidirectional | forward | backward"),
    "flip_back": (_parse_bool, "re-reverse the backward scan branch"),
    "expand": (int, "state-space channel expansion factor"),
    "state_dim": (int, "states per channel"),
    "conv_width": (int, "depthwise causal conv width"),
    "dt_rank": (int, "step-size bottleneck rank, 0 = auto"),
    "codec_hidden": (int, "codec hidden width"),
    "dropout": (float, "codec dropout rate"),
    "scene_persons": (int, "persons concatenated along the pose axis"),
    "model_seed": (int, "weight initialization seed"),
    # loss
    "alpha": (float, "spatial loss weight"),
    "beta": (float, "temporal consistency loss weight"),
    "lambda_hist": (float, "history share of the spatial loss"),
    # optimization
    "epochs": (int, "training epochs"),
    "batch_size": (int, "sequences per batch"),
    "lr": (float, "base learning rate"),
    "beta1": (float, "Adam beta1"),
    "beta2": (float, "Adam beta2"),
    "eps": (float, "Adam epsilon"),
    "grad_clip": (float, "global gradient-norm clip, 0 = off"),
    "checkpoint_every": (int, "epochs between checkpoints, 0 = final only"),
    "train_seed": (int, "shuffling / dropout seed"),
    "dtype": (_parse_dtype, "float64 | float32"),
    # evaluation
    "fps": (float, "frame rate for horizon metrics"),
    "horizons": (_parse_float_list, "metric horizons in seconds"),
    "root_joint": (int, "root joint index for the aligned metric"),
    # io
    "train_data": (str, "training dataset path (.mmp1)"),
    "val_data": (str, "validation dataset path, optional"),
    "out_dir": (str, "output directory"),
}, _to_values(ModelConfig()) | _to_values(TrainSettings())
   | {"dtype": "float64", "train_data": "", "val_data": "", "out_dir": "run"})

SYNTH_SCHEMA = _schema({
    "sequences": (int, "number of sequences"),
    "persons": (int, "persons per sequence"),
    "frames": (int, "frames per sequence"),
    "joints": (int, "joints per person"),
    "fps": (float, "frame rate"),
    "seed": (int, "generator seed"),
    "mix": (_parse_mix, "kind:weight list"),
    "scale": (float, "body scale in mm"),
}, _to_values(GeneratorSpec()) | {"frames": 100})


def parse_value(schema: dict, key: str, text: str, where: str) -> object:
    """``key``'s value parsed from ``text``; an unknown key or a bad value
    raises ConfigError, prefixed with ``where``."""
    if key not in schema:
        raise ConfigError(f"{where}: unknown key {key!r}")
    try:
        return schema[key][0](text.strip())
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from None


def parse_config_text(text: str, schema: dict, source: str = "<config>") -> dict:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        values[key] = parse_value(schema, key, value, f"{source}:{lineno}")
    for key, (_, default, _) in schema.items():
        values.setdefault(key, default)
    return values


def parse_config_file(path, schema: dict) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text, schema, source=str(path))


def format_config(values: dict, schema: dict) -> str:
    lines = []
    for key in schema:
        value = values[key]
        if isinstance(value, (tuple, list)):
            rendered = ",".join(str(v) for v in value)
        elif isinstance(value, dict):
            rendered = ",".join(f"{k}:{v:g}" for k, v in value.items())
        elif isinstance(value, bool):
            rendered = "true" if value else "false"
        else:
            rendered = str(value)
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"


def schema_help(schema: dict) -> str:
    width = max(len(k) for k in schema)
    return "\n".join(f"  {key.ljust(width)}  {help_} (default {default!r})"
                     for key, (_, default, help_) in schema.items())
