"""Flat key = value run configuration.

Lines are ``key = value`` with ``#`` comments; unknown keys are rejected,
missing keys take the defaults below, and the fully resolved configuration
is echoed into the output directory so every run is reproducible from its
artifacts.
"""

from __future__ import annotations

from .data import MOTION_KINDS
from .model import ModelConfig
from .objectives import LossWeights
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


# key -> (parser, default, help)
RUN_SCHEMA = {
    # model
    "joints": (int, 15, "joints per person"),
    "history_frames": (int, 50, "observed frames t"),
    "total_frames": (int, 75, "observed + predicted frames T"),
    "n_experts": (int, 4, "experts per mixture layer"),
    "active_experts": (int, 4, "top-k experts kept by the gate"),
    "moe_layers": (int, 1, "stacked mixture layers"),
    "expert_pool": (_parse_pool, ("ST", "TT", "TS", "SS"), "expert kinds, comma separated"),
    "scan_mode": (str, "bidirectional", "bidirectional | forward | backward"),
    "flip_back": (_parse_bool, True, "re-reverse the backward scan branch"),
    "expand": (int, 2, "state-space channel expansion factor"),
    "state_dim": (int, 16, "states per channel"),
    "conv_width": (int, 4, "depthwise causal conv width"),
    "dt_rank": (int, 0, "step-size bottleneck rank, 0 = auto"),
    "codec_hidden": (int, 64, "codec hidden width"),
    "dropout": (float, 0.1, "codec dropout rate"),
    "scene_persons": (int, 1, "persons concatenated along the pose axis"),
    "model_seed": (int, 0, "weight initialization seed"),
    # loss
    "alpha": (float, 1.0, "spatial loss weight"),
    "beta": (float, 1.0, "temporal consistency loss weight"),
    "lambda_hist": (float, 0.1, "history share of the spatial loss"),
    # optimization
    "epochs": (int, 200, "training epochs"),
    "batch_size": (int, 96, "sequences per batch"),
    "lr": (float, 0.01, "base learning rate"),
    "beta1": (float, 0.9, "Adam beta1"),
    "beta2": (float, 0.999, "Adam beta2"),
    "eps": (float, 1e-8, "Adam epsilon"),
    "grad_clip": (float, 0.0, "global gradient-norm clip, 0 = off"),
    "checkpoint_every": (int, 0, "epochs between checkpoints, 0 = final only"),
    "train_seed": (int, 0, "shuffling / dropout seed"),
    "dtype": (str, "float64", "float64 | float32"),
    # evaluation
    "fps": (float, 25.0, "frame rate for horizon metrics"),
    "horizons": (_parse_float_list, (0.2, 0.6, 1.0), "metric horizons in seconds"),
    "root_joint": (int, 0, "root joint index for the aligned metric"),
    # io
    "train_data": (str, "", "training dataset path (.mmp1)"),
    "val_data": (str, "", "validation dataset path, optional"),
    "out_dir": (str, "run", "output directory"),
}

SYNTH_SCHEMA = {
    "sequences": (int, 64, "number of sequences"),
    "persons": (int, 2, "persons per sequence"),
    "frames": (int, 100, "frames per sequence"),
    "joints": (int, 15, "joints per person"),
    "fps": (float, 25.0, "frame rate"),
    "seed": (int, 0, "generator seed"),
    "mix": (_parse_mix, {k: 1.0 for k in MOTION_KINDS}, "kind:weight list"),
    "scale": (float, 1000.0, "body scale in mm"),
}


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
        if key not in schema:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        parser = schema[key][0]
        try:
            values[key] = parser(value.strip())
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from None
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


def model_config_from(values: dict) -> ModelConfig:
    try:
        return ModelConfig(
            joints=values["joints"],
            history_frames=values["history_frames"],
            total_frames=values["total_frames"],
            n_experts=values["n_experts"],
            active_experts=values["active_experts"],
            moe_layers=values["moe_layers"],
            expert_pool=values["expert_pool"],
            scan_mode=values["scan_mode"],
            flip_back=values["flip_back"],
            expand=values["expand"],
            state_dim=values["state_dim"],
            conv_width=values["conv_width"],
            dt_rank=values["dt_rank"],
            codec_hidden=values["codec_hidden"],
            dropout=values["dropout"],
            scene_persons=values["scene_persons"],
            seed=values["model_seed"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def train_settings_from(values: dict) -> TrainSettings:
    try:
        return TrainSettings(
            epochs=values["epochs"],
            batch_size=values["batch_size"],
            base_lr=values["lr"],
            beta1=values["beta1"],
            beta2=values["beta2"],
            eps=values["eps"],
            grad_clip=values["grad_clip"],
            checkpoint_every=values["checkpoint_every"],
            seed=values["train_seed"],
            loss=LossWeights(alpha=values["alpha"], beta=values["beta"],
                             lambda_hist=values["lambda_hist"]),
            fps=values["fps"],
            horizons=values["horizons"],
            root_joint=values["root_joint"],
            out_dir=values["out_dir"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
