"""Training loop: Adam with bias correction, a per-epoch exponential decay
reaching 0.1x at epoch 50, and versioned binary checkpoints that round-trip
byte-identically (so 3 epochs + a 2-epoch resume equals a straight 5-epoch
run bit for bit in float64 mode).
"""

from __future__ import annotations

import itertools
import json
import math
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import (Tape, Tensor, backward, get_default_dtype, reshape,
                       set_default_dtype)
from .data import (DataError, MotionSequence, batch_iter, check_frames, crc_matches,
                   with_crc, write_atomic)
from .model import ModelConfig, MotionMoE
from .objectives import LossWeights, report_at_horizons, total_loss


class TrainingError(Exception):
    """Non-finite losses or gradients, bad checkpoints, config mismatches."""


# sequences per forward when a trained model serves a dataset
SERVE_BATCH = 16


def lr_at_epoch(base_lr: float, epoch: int) -> float:
    """base * (0.1 ** (1/50)) ** epoch; epoch 0 is exactly base."""
    if base_lr <= 0:
        raise ValueError(f"base_lr must be positive, got {base_lr}")
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    return base_lr * 0.1 ** (epoch / 50.0)


@dataclass
class AdamState:
    """Adam's step count, hyper-parameters and moments by parameter name.

    Once a parameter has been updated its ``m`` and ``v`` entries are views
    into flat moment buffers, one pair per dtype, that ``adam_step`` updates
    in one pass.  The buffers are adopted from the entries on first use and
    whenever the set of names with gradients changes.
    """
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    # dtype -> (names, flat m, flat v, (start, stop) of each name)
    _flat: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def _flat_moments(state: AdamState, dtype, members: list) -> tuple:
    names = [name for name, _ in members]
    layout = state._flat.get(dtype)
    if layout is None or layout[0] != names:
        sizes = [p.data.size for _, p in members]
        bounds = list(zip(itertools.accumulate(sizes, initial=0), itertools.accumulate(sizes)))
        m, v = np.zeros(sum(sizes), dtype), np.zeros(sum(sizes), dtype)
        for (name, p), (lo, hi) in zip(members, bounds):
            if name in state.m:
                m[lo:hi], v[lo:hi] = state.m[name].reshape(-1), state.v[name].reshape(-1)
            state.m[name] = m[lo:hi].reshape(p.data.shape)
            state.v[name] = v[lo:hi].reshape(p.data.shape)
        layout = state._flat[dtype] = (names, m, v, bounds)
    return layout[1:]


def adam_step(state: AdamState, params: dict[str, Tensor],
              grads: dict[str, np.ndarray], lr: float, max_norm: float = 0.0) -> float:
    """One bias-corrected Adam update, in place on the parameter buffers.

    The gradients are concatenated into one flat array per parameter dtype
    and checked for finite values before anything changes.  With
    ``max_norm > 0`` they are scaled down to that global L2 norm.  A
    parameter without a gradient keeps its value and its moments.  Returns
    the global L2 norm of the gradients before clipping.
    """
    groups: dict = {}
    for name, p in params.items():
        g = grads.get(name)
        if g is not None:
            if g.shape != p.data.shape:
                raise TrainingError(f"gradient for parameter {name!r} has shape {g.shape}, "
                                    f"the parameter {p.data.shape}")
            groups.setdefault(p.data.dtype, []).append((name, p))
    flats = {dtype: np.concatenate([grads[name] for name, _ in members], axis=None, dtype=dtype)
             for dtype, members in groups.items()}
    if not all(np.isfinite(g).all() for g in flats.values()):
        name = next(name for name in params
                    if name in grads and not np.isfinite(grads[name]).all())
        raise TrainingError(f"non-finite gradient for parameter {name!r}")
    norm = math.sqrt(sum(float(np.einsum("i,i->", g, g)) for g in flats.values()))

    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    for dtype, g in flats.items():
        m, v, bounds = _flat_moments(state, dtype, groups[dtype])
        if 0.0 < max_norm < norm:
            g *= max_norm / norm
        # a per-parameter update's arithmetic, in its order, with one
        # scratch array t: (1 - b1) g, ((1 - b2) g) g, then
        # lr (m / bc1) / (sqrt(v / bc2) + eps) with the denominator in g
        t = np.multiply(g, 1.0 - b1)
        m *= b1
        m += t
        np.multiply(g, 1.0 - b2, out=t)
        t *= g
        v *= b2
        v += t
        np.divide(v, bc2, out=g)
        np.sqrt(g, out=g)
        g += state.eps
        np.divide(m, bc1, out=t)
        t *= lr
        t /= g
        for (_, p), (lo, hi) in zip(groups[dtype], bounds):
            p.data -= t[lo:hi].reshape(p.data.shape)
    return norm


@dataclass
class TrainSettings:
    epochs: int = 200
    batch_size: int = 96
    base_lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    grad_clip: float = 0.0       # 0 disables clipping
    checkpoint_every: int = 0    # 0 = only final
    seed: int = 0
    loss: LossWeights = field(default_factory=LossWeights)
    fps: float = 25.0
    horizons: tuple[float, ...] = (0.2, 0.6, 1.0)
    root_joint: int = 0
    out_dir: str | None = None

    def __post_init__(self):
        for name, low in (("epochs", 0), ("batch_size", 1), ("grad_clip", 0),
                          ("checkpoint_every", 0), ("seed", 0)):
            if not getattr(self, name) >= low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("base_lr", "eps", "fps"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be > 0 and finite, got {value}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")


def _check_scenes(config: ModelConfig, sequences: list[MotionSequence]) -> None:
    """Raise DataError unless the model can read every sequence: its joint
    count, persons that divide into scenes, and total_frames frames."""
    for i, seq in enumerate(sequences):
        if seq.joints != config.joints:
            raise DataError(f"sequence {i} has {seq.joints} joints, the model {config.joints}")
        if seq.persons % config.scene_persons:
            raise DataError(f"sequence {i} has {seq.persons} person(s), not a multiple of "
                            f"scene_persons={config.scene_persons}")
    check_frames(sequences, config.total_frames)


def scene_batches(config: ModelConfig, sequences: list[MotionSequence],
                  batch_size: int, shuffle_seed: int | None = None):
    """Yield (history, target) of shape (scenes, pose_dim, t / T) for batches
    of batch_size sequences.  A scene is scene_persons consecutive persons of
    one sequence on the pose axis; ``reshape(-1, joints, 3, T)`` splits it
    back into persons.  Sequences that ``_check_scenes`` refuses raise
    DataError before the first batch."""
    _check_scenes(config, sequences)
    for hist, target in batch_iter(sequences, batch_size, config.history_frames,
                                   config.total_frames, shuffle_seed):
        yield (hist.reshape(-1, config.pose_dim, config.history_frames),
               target.reshape(-1, config.pose_dim, config.total_frames))


def run_epoch(model: MotionMoE, sequences: list[MotionSequence],
              settings: TrainSettings, optim: AdamState,
              rng: np.random.Generator, epoch: int, stats: dict | None = None) -> float:
    """One optimization pass; returns the mean batch loss.

    ``stats``, when given, receives the epoch's mean pre-clip gradient norm
    (``grad_norm``) and its slowest step in seconds (``step_time_max_s``).
    """
    cfg = model.config
    lr = lr_at_epoch(settings.base_lr, epoch)
    shuffle_seed = int(rng.integers(0, 2 ** 63 - 1))
    params = model.parameters()
    losses, norms = [], []
    slowest = 0.0
    persons = (-1, cfg.joints, 3, cfg.total_frames)
    last = time.perf_counter()
    for batch_index, (hist, target) in enumerate(
            scene_batches(cfg, sequences, settings.batch_size, shuffle_seed)):
        for p in params.values():
            p.grad = None
        with Tape():
            pred, _ = model.forward(Tensor(hist), train_mode=True, rng=rng)
            pred4 = reshape(pred, persons)
            gt4 = Tensor(target.reshape(persons))
            loss = total_loss(pred4, gt4, cfg.history_frames, settings.loss)
            value = loss.item()
            if not np.isfinite(value):
                raise TrainingError(f"non-finite loss in epoch {epoch}, batch {batch_index}")
            backward(loss)
        grads = {name: p.grad for name, p in params.items() if p.grad is not None}
        norms.append(adam_step(optim, params, grads, lr, settings.grad_clip))
        losses.append(value)
        now = time.perf_counter()
        slowest = max(slowest, now - last)
        last = now
    if stats is not None:
        stats["grad_norm"] = float(np.mean(norms)) if norms else 0.0
        stats["step_time_max_s"] = slowest
    return float(np.mean(losses)) if losses else 0.0


def evaluate(model: MotionMoE, sequences: list[MotionSequence],
             settings: TrainSettings, batch_size: int = SERVE_BATCH):
    """Forecast every sequence in file order and score the forecast window."""
    cfg = model.config
    persons = (-1, cfg.joints, 3, cfg.total_frames)
    preds, gts = [], []
    for hist, target in scene_batches(cfg, sequences, batch_size):
        pred, _ = model.forward(Tensor(hist))
        preds.append(pred.data.reshape(persons))
        gts.append(target.reshape(persons))
    pred = np.concatenate(preds, axis=0)
    gt = np.concatenate(gts, axis=0)
    return report_at_horizons(pred, gt, cfg.history_frames, settings.fps,
                              settings.horizons, settings.root_joint)


def fit(model: MotionMoE, train_seqs: list[MotionSequence],
        val_seqs: list[MotionSequence] | None, settings: TrainSettings,
        hooks: tuple = (), resume: "Checkpoint | None" = None) -> list[dict]:
    """Train for settings.epochs total; returns one log record per epoch.

    A record holds the epoch's mean training loss, its mean and slowest
    optimization step times, its throughput in scenes per second and its
    mean pre-clip gradient norm.

    When ``resume`` is given, training continues from its epoch with the
    optimizer and RNG state restored, reproducing an uninterrupted run.
    Validation sequences that ``_check_scenes`` refuses raise DataError
    before the first step.
    """
    _check_scenes(model.config, val_seqs or [])
    if resume is not None:
        restore_into(model, resume)
        optim = resume.optim_state()
        rng = resume.rng()
        start = resume.epoch
    else:
        optim = AdamState(beta1=settings.beta1, beta2=settings.beta2, eps=settings.eps)
        rng = np.random.default_rng(settings.seed)
        start = 0

    steps = -(-len(train_seqs) // settings.batch_size)
    scenes = sum(seq.persons for seq in train_seqs) // model.config.scene_persons
    log: list[dict] = []
    for epoch in range(start, settings.epochs):
        stats: dict = {}
        started = time.perf_counter()
        train_loss = run_epoch(model, train_seqs, settings, optim, rng, epoch, stats)
        seconds = time.perf_counter() - started
        record = {"epoch": epoch, "lr": lr_at_epoch(settings.base_lr, epoch),
                  "train_loss": train_loss, "step_time_s": seconds / max(steps, 1),
                  "samples_per_s": scenes / seconds, **stats}
        if val_seqs:
            report = evaluate(model, val_seqs, settings)
            record["val_jpe"] = report.avg_jpe
            record["val_ape"] = report.avg_ape
        log.append(record)
        for hook in hooks:
            hook(model, record)
        if settings.out_dir is not None:
            done = epoch + 1
            periodic = settings.checkpoint_every > 0 and done % settings.checkpoint_every == 0
            if periodic or done == settings.epochs:
                save_checkpoint(f"{settings.out_dir}/checkpoint_{done:05d}.stmc",
                                model, optim, done, rng)
    return log


def append_log(path, records: list[dict]) -> None:
    with open(path, "a") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


# --- checkpoints ------------------------------------------------------------

# Layout: head (magic, version, header length) | header JSON | tensor payload,
# then from version 2 on a CRC32 of everything before it.  Version-1 files,
# which end with the payload, still load.
CKPT_MAGIC = b"STMC"
CKPT_VERSION = 2
_CKPT_HEAD = struct.Struct("<4sIQ")
_CKPT_CRC = struct.Struct("<I")


@dataclass
class Checkpoint:
    config: ModelConfig
    epoch: int
    tensors: dict[str, np.ndarray]
    adam_meta: dict
    rng_state: dict

    def param_dtype(self) -> str | None:
        """The dtype the stored parameters share, None without any."""
        dtypes = sorted({str(arr.dtype) for name, arr in self.tensors.items()
                         if name.startswith("param/")})
        if len(dtypes) > 1 or not set(dtypes) <= {"float32", "float64"}:
            raise TrainingError(f"checkpoint parameters must share one dtype, float32 or "
                                f"float64, got {', '.join(dtypes)}")
        return dtypes[0] if dtypes else None

    def optim_state(self) -> AdamState:
        state = AdamState(step=self.adam_meta["step"], beta1=self.adam_meta["beta1"],
                          beta2=self.adam_meta["beta2"], eps=self.adam_meta["eps"])
        for key, arr in self.tensors.items():
            if key.startswith("adam_m/"):
                state.m[key[len("adam_m/"):]] = arr.copy()
            elif key.startswith("adam_v/"):
                state.v[key[len("adam_v/"):]] = arr.copy()
        return state

    def rng(self) -> np.random.Generator:
        gen = np.random.default_rng()
        gen.bit_generator.state = self.rng_state
        return gen


def save_checkpoint(path, model: MotionMoE, optim: AdamState, epoch: int,
                    rng: np.random.Generator) -> None:
    params = model.parameters()
    entries = []
    blobs = []
    offset = 0

    def push(name: str, arr: np.ndarray):
        nonlocal offset
        raw = np.ascontiguousarray(arr).tobytes()
        entries.append({"name": name, "shape": list(arr.shape),
                        "dtype": str(arr.dtype), "offset": offset, "nbytes": len(raw)})
        blobs.append(raw)
        offset += len(raw)

    for name, p in params.items():
        push(f"param/{name}", p.data)
    for name in params:
        if name in optim.m:
            push(f"adam_m/{name}", optim.m[name])
            push(f"adam_v/{name}", optim.v[name])

    header = {
        "version": CKPT_VERSION,
        "config": model.config.to_dict(),
        "epoch": epoch,
        "adam": {"step": optim.step, "beta1": optim.beta1,
                 "beta2": optim.beta2, "eps": optim.eps},
        "rng_state": rng.bit_generator.state,
        "tensors": entries,
    }
    head_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    chunks = [_CKPT_HEAD.pack(CKPT_MAGIC, CKPT_VERSION, len(head_bytes)), head_bytes, *blobs]
    write_atomic(path, with_crc(chunks))


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _is_fraction(value) -> bool:
    return type(value) in (int, float) and 0 <= value < 1


def _is_pcg64_state(value) -> bool:
    try:
        np.random.PCG64(0).state = value
    except (KeyError, TypeError, ValueError, OverflowError):
        return False
    return True


# (field, what a resume needs of it, its check)
_RESUME_FIELDS = (
    ("epoch", "an integer >= 0", _is_count),
    ("adam.step", "an integer >= 0", _is_count),
    ("adam.beta1", "a number in [0, 1)", _is_fraction),
    ("adam.beta2", "a number in [0, 1)", _is_fraction),
    ("adam.eps", "a finite number > 0",
     lambda value: type(value) in (int, float) and 0 < value < math.inf),
    ("rng_state", "a PCG64 state", _is_pcg64_state),
)


def load_checkpoint(path, expected_config: ModelConfig | None = None) -> Checkpoint:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _CKPT_HEAD.size:
        raise TrainingError("checkpoint too short for a header")
    magic, version, head_len = _CKPT_HEAD.unpack_from(raw)
    if magic != CKPT_MAGIC:
        raise TrainingError(f"bad checkpoint magic {magic!r}")
    if version not in (1, CKPT_VERSION):
        raise TrainingError(f"unsupported checkpoint version {version}")
    base = _CKPT_HEAD.size + head_len
    if len(raw) < base:
        raise TrainingError("checkpoint truncated inside its header")
    try:
        header = json.loads(raw[_CKPT_HEAD.size:base])
    except ValueError as exc:
        raise TrainingError(f"checkpoint header is not valid JSON: {exc}") from None
    end = len(raw) - (_CKPT_CRC.size if version >= 2 else 0)

    # bounds first, so that a cut file says so rather than failing its checksum
    layout = []
    try:
        for entry in header["tensors"]:
            dtype = np.dtype(entry["dtype"])
            shape = tuple(int(n) for n in entry["shape"])
            if dtype not in (np.float32, np.float64) or min(shape, default=0) < 0:
                raise TrainingError(f"checkpoint header has a malformed tensor entry: "
                                    f"{entry['name']!r} has dtype {entry['dtype']!r} and "
                                    f"shape {entry['shape']!r}")
            count = math.prod(shape)
            lo = base + int(entry["offset"])
            if lo < base or lo + count * dtype.itemsize > end:
                raise TrainingError(
                    f"checkpoint tensor {entry['name']!r} runs past the end of the file")
            layout.append((entry["name"], dtype, shape, count, lo))
    except (KeyError, TypeError, ValueError) as exc:
        raise TrainingError(f"checkpoint header has a malformed tensor entry: {exc!r}") from None
    if version >= 2 and not crc_matches(raw, end):
        raise TrainingError("checkpoint checksum mismatch: the file is damaged")

    try:
        config = ModelConfig.from_dict(header["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise TrainingError(f"checkpoint holds an invalid config: {exc}") from None
    _check_config(config, expected_config)

    tensors = {}
    for name, dtype, shape, count, lo in layout:
        arr = np.frombuffer(raw, dtype=dtype, count=count, offset=lo)
        tensors[name] = arr.reshape(shape).copy()
    # what a resume reads, so that a header without it, or with a value a
    # resume cannot use, fails here, naming it
    adam = header.get("adam") if isinstance(header.get("adam"), dict) else {}
    for name, what, valid in _RESUME_FIELDS:
        value = (adam if name.startswith("adam.") else header).get(name.removeprefix("adam."))
        if value is None:
            raise TrainingError(f"checkpoint header lacks the field {name!r}")
        if not valid(value):
            raise TrainingError(f"checkpoint header field {name!r} must be {what}, "
                                f"got {value!r:.60}")
    return Checkpoint(config=config, epoch=header["epoch"], tensors=tensors,
                      adam_meta=adam, rng_state=header["rng_state"])


def _check_config(stored: ModelConfig, wanted: ModelConfig | None) -> None:
    if wanted is not None and stored != wanted:
        have, want = stored.to_dict(), wanted.to_dict()
        diverging = sorted(k for k in want if have.get(k) != want[k])
        raise TrainingError(f"checkpoint config mismatch on field(s): {', '.join(diverging)}")


def restore_into(model: MotionMoE, ckpt: Checkpoint) -> None:
    _check_config(ckpt.config, model.config)
    params = model.parameters()
    for name, p in params.items():
        key = f"param/{name}"
        if key not in ckpt.tensors:
            raise TrainingError(f"checkpoint is missing parameter {name!r}")
        stored = ckpt.tensors[key]
        if stored.shape != p.data.shape:
            raise TrainingError(
                f"checkpoint parameter {name!r} has shape {stored.shape}, model expects {p.data.shape}")
        p.data[...] = stored


def model_from_checkpoint(ckpt: Checkpoint) -> MotionMoE:
    """The stored model, built in its parameters' dtype, constants included;
    the process default dtype is left as it was."""
    previous = get_default_dtype()
    set_default_dtype(ckpt.param_dtype() or previous)
    try:
        model = MotionMoE(ckpt.config)
    finally:
        set_default_dtype(previous)
    restore_into(model, ckpt)
    return model
