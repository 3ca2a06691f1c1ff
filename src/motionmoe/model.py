"""End-to-end forecaster: pad -> DCT -> encode -> expert mixture layers ->
decode -> inverse DCT.

The layer-L mixture output is added to the encoder features before
decoding, and layers feed each other directly (layer l+1 consumes layer
l's mixture output).  Persons are independent samples on the batch axis by
default; scene_persons > 1 instead concatenates that many persons along
the pose axis so the spatial scan crosses person boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from .autodiff import Module, ShapeError, Tensor, add, matmul
from .codec import init_pose_codec, padding_matrix
from .dct import DctBasis, dct_forward, dct_inverse
from .moe import (EXPERT_KINDS, GateDecision, RouterParams, init_router,
                  moe_layer_forward)
from .ssm import SCAN_MODES, BiBlockParams, init_bi_block


@dataclass
class ModelConfig:
    """The model's run keys; the expert count is the pool's length."""

    joints: int = 15
    history_frames: int = 50
    total_frames: int = 75
    active_experts: int = 4          # k
    moe_layers: int = 1
    expert_pool: tuple[str, ...] = ("ST", "TT", "TS", "SS")
    scan_mode: str = "bidirectional"
    expand: int = 2
    state_dim: int = 16
    conv_width: int = 4
    dt_rank: int = 0                 # 0 = ceil(channels / 16) per block
    codec_hidden: int = 64
    dropout: float = 0.1
    scene_persons: int = 1
    seed: int = 0

    def __post_init__(self):
        self.expert_pool = tuple(self.expert_pool)
        if self.joints < 1:
            raise ValueError(f"joints must be >= 1, got {self.joints}")
        if not 1 <= self.history_frames < self.total_frames:
            raise ValueError(
                f"need 1 <= history_frames < total_frames, got "
                f"{self.history_frames}/{self.total_frames}")
        for kind in self.expert_pool:
            if kind not in EXPERT_KINDS:
                raise ValueError(f"unknown expert kind {kind!r}")
        if not 1 <= self.active_experts <= self.n_experts:
            raise ValueError(
                f"active_experts must be in [1, {self.n_experts}], got {self.active_experts}")
        if self.moe_layers < 1:
            raise ValueError(f"moe_layers must be >= 1, got {self.moe_layers}")
        if self.scan_mode not in SCAN_MODES:
            raise ValueError(f"scan_mode must be one of {SCAN_MODES}, got {self.scan_mode!r}")
        if self.scene_persons < 1:
            raise ValueError(f"scene_persons must be >= 1, got {self.scene_persons}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        for name, low in (("expand", 1), ("state_dim", 1), ("conv_width", 1),
                          ("codec_hidden", 1), ("dt_rank", 0), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")

    @property
    def n_experts(self) -> int:
        return len(self.expert_pool)

    @property
    def pose_dim(self) -> int:
        return self.joints * 3 * self.scene_persons

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """A ``to_dict`` dict; one written up to 0.2.1 may also hold
        n_experts = len(expert_pool) and flip_back = true."""
        fields = {**d}  # a TypeError unless d is a mapping
        config = cls(**{k: v for k, v in fields.items() if k not in ("n_experts", "flip_back")})
        for key, valid in (("n_experts", config.n_experts), ("flip_back", True)):
            if key in fields and (type(fields[key]) is not type(valid) or fields[key] != valid):
                raise ValueError(f"{key} is {fields[key]!r}; this model runs only {key} = {valid!r}")
        return config


@dataclass
class MixtureLayer(Module):
    router: RouterParams
    spatial: BiBlockParams
    temporal: BiBlockParams


class MotionMoE:
    """Owns the front end (``encode``), the codec, the DCT basis and the mixture layers."""

    def __init__(self, config: ModelConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        d, t_total = config.pose_dim, config.total_frames
        self.basis = DctBasis(t_total)
        self.pad = Tensor(padding_matrix(config.history_frames, t_total))
        self.codec = init_pose_codec(rng, d, t_total, config.codec_hidden, config.dropout)
        block = (config.expand, config.state_dim, config.conv_width,
                 config.dt_rank if config.dt_rank > 0 else None,
                 config.scan_mode)
        self.layers: list[MixtureLayer] = []
        for _ in range(config.moe_layers):
            self.layers.append(MixtureLayer(
                router=init_router(rng, d, config.n_experts, config.active_experts),
                spatial=init_bi_block(rng, t_total, *block, axis=1),
                temporal=init_bi_block(rng, d, *block, axis=2),
            ))

    def encode(self, history: Tensor | np.ndarray, train_mode: bool = False,
               rng: np.random.Generator | None = None) -> Tensor:
        """(batch, D, t) observed frames, exactly t of them -> (batch, D, T)
        encoder features: padded to T by repeating the last frame (a matmul
        by the constant ``pad``), then DCT, then the codec's encoder.  A
        history row holding NaN or inf raises ValueError naming the row.  The
        history runs in the model's dtype, ``pad``'s; one that requires a
        gradient is used as given."""
        cfg = self.config
        dtype = self.pad.data.dtype
        if not isinstance(history, Tensor):
            history = Tensor(history, dtype=dtype)
        elif history.data.dtype != dtype and not history.requires_grad:
            history = Tensor(history.data, dtype=dtype)
        if history.ndim != 3 or history.shape[1] != cfg.pose_dim:
            raise ShapeError(
                f"forward: expected (batch, {cfg.pose_dim}, {cfg.history_frames}), "
                f"got {history.shape}")
        if history.shape[2] != cfg.history_frames:
            raise ShapeError(
                f"forward: expected {cfg.history_frames} history frames, got {history.shape[2]}")
        bad_rows = np.flatnonzero(~np.isfinite(history.data).all(axis=(1, 2)))
        if bad_rows.size:
            raise ValueError(
                f"forward: non-finite history in batch row(s) {', '.join(map(str, bad_rows))}")
        if train_mode and cfg.dropout > 0.0 and rng is None:
            raise ValueError("train-mode forward with dropout needs an explicit rng")
        coeffs = dct_forward(matmul(history, self.pad), self.basis)
        return self.codec.encode(coeffs, train_mode, rng)

    def forward(self, history: Tensor | np.ndarray, train_mode: bool = False,
                rng: np.random.Generator | None = None
                ) -> tuple[Tensor, list[GateDecision]]:
        """(batch, D, t) observed frames -> (batch, D, T) full trajectory.

        The first t output frames are reconstructions, not copies; the
        remaining T - t frames are the forecast.  Inputs are checked by
        ``encode``.
        """
        f_input = self.encode(history, train_mode, rng)
        features = f_input
        decisions: list[GateDecision] = []
        for layer in self.layers:
            features, decision = moe_layer_forward(
                layer.router, layer.spatial, layer.temporal, self.config.expert_pool, features)
            decisions.append(decision)

        decoded = self.codec.decode(add(f_input, features), train_mode, rng)
        return dct_inverse(decoded, self.basis), decisions

    def parameters(self) -> dict[str, Tensor]:
        out = {f"codec/{k}": v for k, v in self.codec.parameters().items()}
        for i, layer in enumerate(self.layers):
            out.update((f"layer{i}/{k}", v) for k, v in layer.parameters().items())
        return out


@dataclass
class ParameterAudit:
    per_module: dict[str, int]
    total: int
    sharing_ok: bool
    duplicates: list[str] = field(default_factory=list)


def audit_parameters(model: MotionMoE) -> ParameterAudit:
    """Per-module parameter counts plus the weight-sharing check: a mixture
    layer owns exactly router + one spatial + one temporal block, however
    many experts the pool lists."""
    params = model.parameters()
    seen: dict[int, str] = {}
    duplicates: list[str] = []
    per_module: dict[str, int] = {}
    for name, p in params.items():
        if p.tid in seen:
            duplicates.append(f"{name} aliases {seen[p.tid]}")
            continue
        seen[p.tid] = name
        module = "/".join(name.split("/")[:2])
        per_module[module] = per_module.get(module, 0) + p.size
    # parameters() lists each layer's router and two blocks and nothing
    # else, so an aliased tensor is the one way to break the sharing
    return ParameterAudit(per_module=per_module, total=sum(per_module.values()),
                          sharing_ok=not duplicates, duplicates=duplicates)
