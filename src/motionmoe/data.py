"""Motion dataset storage, synthesis and batching.

File format (MMP1): a 32-byte little-endian header

    magic 'MMP1' | version u32 | sequences u32 | persons u32
    | frames u32 | joints u32 | fps f32 | reserved u32

followed by float32 position payload in (sequence, person, frame, joint,
coordinate) order, then from version 2 on a little-endian CRC32 of
everything before it.  Version-1 files, which end with the payload, still
load.  Units are millimeters throughout.

The synthetic generator produces deterministic multi-person scenes: roots
follow straight walks, constant-rate turns or stop-and-go paths; joints sit
at fixed offsets from the root with bounded sinusoidal sway, so every joint
stays inside ``spec.bone_envelope`` of its root.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np


class DataError(Exception):
    """Malformed files, inconsistent shapes or bad batching arguments."""


MAGIC = b"MMP1"
FORMAT_VERSION = 2
_HEADER = struct.Struct("<4sIIIIIfI")
assert _HEADER.size == 32
_CRC = struct.Struct("<I")

MOTION_KINDS = ("walk", "turn", "stop_go")


@dataclass
class MotionSequence:
    positions: np.ndarray  # (persons, frames, joints, 3) float32, millimeters
    fps: float

    def __post_init__(self):
        self.positions = np.ascontiguousarray(self.positions, dtype=np.float32)
        if self.positions.ndim != 4 or self.positions.shape[-1] != 3:
            raise DataError(f"positions must be (persons, frames, joints, 3), "
                            f"got {self.positions.shape}")
        if 0 in self.positions.shape:
            raise DataError(f"positions need at least one person, frame and joint, "
                            f"got {self.positions.shape}")
        if not np.all(np.isfinite(self.positions)):
            raise DataError("positions contain non-finite values")
        if not 0 < self.fps < math.inf:
            raise DataError(f"fps must be positive and finite, got {self.fps}")

    @property
    def persons(self) -> int:
        return self.positions.shape[0]

    @property
    def frames(self) -> int:
        return self.positions.shape[1]

    @property
    def joints(self) -> int:
        return self.positions.shape[2]


def write_dataset(sequences: list[MotionSequence], path) -> None:
    """All sequences must agree on persons/frames/joints/fps."""
    if sequences:
        m, t, j = (sequences[0].persons, sequences[0].frames, sequences[0].joints)
        fps = sequences[0].fps
        for i, seq in enumerate(sequences):
            if (seq.persons, seq.frames, seq.joints) != (m, t, j) or seq.fps != fps:
                raise DataError(f"sequence {i} shape/fps differs from sequence 0")
    else:
        m = t = j = 0
        fps = 0.0
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, len(sequences), m, t, j, fps, 0)
    payload = (np.ascontiguousarray(seq.positions, dtype="<f4").tobytes() for seq in sequences)
    write_atomic(path, with_crc(itertools.chain([header], payload)))


def with_crc(chunks):
    """``chunks``, then the little-endian CRC32 of all of them: the trailer
    of ``.mmp1`` and ``.stmc`` files from version 2 on."""
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
        yield chunk
    yield _CRC.pack(crc)


def crc_matches(raw: bytes, end: int) -> bool:
    """Whether the CRC32 stored at ``raw[end:]`` is that of ``raw[:end]``."""
    return zlib.crc32(memoryview(raw)[:end]) == _CRC.unpack_from(raw, end)[0]


def write_atomic(path, chunks) -> None:
    """Write the byte strings ``chunks`` to ``path`` through a temporary file
    in the same directory, then rename it into place: a reader sees the old
    file or the whole new one, never a part, and a failed write leaves the
    old file as it was."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_dataset(path) -> list[MotionSequence]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise DataError(f"file too short for a header: {len(raw)} bytes")
    magic, version, s, m, t, j, fps, _ = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise DataError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version not in (1, FORMAT_VERSION):
        raise DataError(f"unsupported format version {version}")
    end = _HEADER.size + 4 * s * m * t * j * 3
    expected = end + (_CRC.size if version >= 2 else 0)
    if len(raw) != expected:
        raise DataError(f"truncated or padded file: expected {expected} bytes, got {len(raw)}")
    if version >= 2 and not crc_matches(raw, end):
        raise DataError("checksum mismatch: the file is damaged")
    if s == 0:
        return []
    payload = np.frombuffer(raw, dtype="<f4", count=(end - _HEADER.size) // 4,
                            offset=_HEADER.size)
    if not np.all(np.isfinite(payload)):
        raise DataError("payload contains non-finite values")
    positions = payload.reshape(s, m, t, j, 3)
    return [MotionSequence(positions[i].copy(), fps) for i in range(s)]


@dataclass
class GeneratorSpec:
    sequences: int = 64
    persons: int = 2
    frames: int = 75
    joints: int = 15
    fps: float = 25.0
    seed: int = 0
    # relative weights of root trajectory kinds; zero removes a kind
    mix: dict[str, float] = field(default_factory=lambda: {k: 1.0 for k in MOTION_KINDS})
    scale: float = 1000.0  # mm; roughly one body length

    def __post_init__(self):
        if self.sequences < 0:
            raise DataError("sequences must be >= 0")
        if self.persons < 1 or self.frames < 1 or self.joints < 1:
            raise DataError("persons, frames and joints must be >= 1")
        if not all(v > 0 and math.isfinite(v) for v in (self.fps, self.scale)):
            raise DataError("fps and scale must be positive and finite")
        unknown = set(self.mix) - set(MOTION_KINDS)
        if unknown:
            raise DataError(f"unknown motion kinds {sorted(unknown)}")
        if not all(w >= 0 and math.isfinite(w) for w in self.mix.values()):
            raise DataError(f"motion mix weights must be non-negative and finite, got {self.mix}")
        if not self.mix or sum(self.mix.values()) <= 0:
            raise DataError("motion mix needs at least one positive weight")

    @property
    def bone_envelope(self) -> float:
        """Max allowed distance of any joint from its root."""
        return 0.6 * self.scale


def synth_generate(spec: GeneratorSpec) -> list[MotionSequence]:
    """Deterministic under (spec, seed); returns float32 sequences in mm."""
    rng = np.random.default_rng(spec.seed)
    kinds = [k for k in MOTION_KINDS if spec.mix.get(k, 0.0) > 0]
    probs = np.array([spec.mix[k] for k in kinds], dtype=np.float64)
    probs /= probs.sum()
    times = np.arange(spec.frames) / spec.fps

    out = []
    for _ in range(spec.sequences):
        scene = np.empty((spec.persons, spec.frames, spec.joints, 3), dtype=np.float64)
        for person in range(spec.persons):
            kind = kinds[rng.choice(len(kinds), p=probs)]
            root = _root_path(rng, kind, times, spec.scale, person)
            scene[person] = _skeleton(rng, root, times, spec)
        out.append(MotionSequence(scene.astype(np.float32), spec.fps))
    return out


def _root_path(rng: np.random.Generator, kind: str, times: np.ndarray,
               scale: float, person: int) -> np.ndarray:
    """(frames, 3) root trajectory in mm; persons start on a spaced grid."""
    start = np.array([person * 2.5 * scale + rng.uniform(-0.2, 0.2) * scale,
                      rng.uniform(-0.5, 0.5) * scale,
                      0.9 * scale])
    speed = rng.uniform(0.5, 1.5) * scale  # mm/s
    heading = rng.uniform(0.0, 2.0 * np.pi)
    path = np.zeros((times.size, 3))
    if kind == "walk":
        direction = np.array([np.cos(heading), np.sin(heading), 0.0])
        path = start + times[:, None] * speed * direction
    elif kind == "turn":
        omega = rng.uniform(0.5, 1.5) * (1 if rng.random() < 0.5 else -1)  # rad/s
        angle = heading + omega * times
        # integrate unit heading analytically for a constant turn rate
        path[:, 0] = start[0] + speed / omega * (np.sin(angle) - np.sin(heading))
        path[:, 1] = start[1] - speed / omega * (np.cos(angle) - np.cos(heading))
        path[:, 2] = start[2]
    elif kind == "stop_go":
        direction = np.array([np.cos(heading), np.sin(heading), 0.0])
        stop = int(times.size * rng.uniform(0.4, 0.7))
        stop = max(1, min(stop, times.size - 1))
        path = start + times[:, None] * speed * direction
        path[stop:] = path[stop]  # exact copies: zero root velocity afterwards
    else:
        raise DataError(f"unknown motion kind {kind!r}")
    return path


def _skeleton(rng: np.random.Generator, root: np.ndarray, times: np.ndarray,
              spec: GeneratorSpec) -> np.ndarray:
    """(frames, joints, 3) poses: joint 0 is the root, the rest are fixed
    offsets plus bounded sinusoidal sway (radius + amplitude < envelope)."""
    frames, joints = times.size, spec.joints
    pose = np.empty((frames, joints, 3))
    pose[:, 0] = root
    for j in range(1, joints):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        radius = rng.uniform(0.15, 0.45) * spec.scale
        sway_dir = rng.standard_normal(3)
        sway_dir /= np.linalg.norm(sway_dir)
        amp = rng.uniform(0.02, 0.1) * spec.scale
        freq = rng.uniform(0.5, 2.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        sway = amp * np.sin(2.0 * np.pi * freq * times + phase)
        pose[:, j] = root + radius * direction + sway[:, None] * sway_dir
    return pose


def flatten_poses(positions: np.ndarray) -> np.ndarray:
    """(M, T, J, 3) -> (M, J*3, T) with the pose axis joint-major."""
    m, t, j, _ = positions.shape
    return positions.transpose(0, 2, 3, 1).reshape(m, j * 3, t)


def unflatten_poses(flat: np.ndarray) -> np.ndarray:
    """(M, D, T) -> (M, T, J, 3); inverse of flatten_poses."""
    m, d, t = flat.shape
    if d % 3:
        raise DataError(f"pose axis {d} is not a multiple of 3")
    return flat.reshape(m, d // 3, 3, t).transpose(0, 3, 1, 2)


def check_frames(sequences: list[MotionSequence], total_frames: int) -> None:
    """Raise DataError if a sequence is shorter than total_frames."""
    for i, seq in enumerate(sequences):
        if seq.frames < total_frames:
            raise DataError(f"sequence {i} has {seq.frames} frames, needs >= {total_frames}")


def batch_iter(sequences: list[MotionSequence], batch_size: int,
               history_frames: int, total_frames: int,
               shuffle_seed: int | None = None):
    """Yield (history, target) float64 arrays of shape (B*M, D, t)/(B*M, D, T).

    batch_size counts sequences; persons are flattened into the batch axis
    (sequence-major, person-minor).  The final short batch is emitted.
    shuffle_seed None keeps file order.
    """
    if batch_size < 1:
        raise DataError(f"batch_size must be >= 1, got {batch_size}")
    if not 0 < history_frames < total_frames:
        raise DataError(
            f"need 0 < history_frames < total_frames, got {history_frames}/{total_frames}")
    check_frames(sequences, total_frames)

    order = np.arange(len(sequences))
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(order)
    for lo in range(0, len(order), batch_size):
        chunk = order[lo:lo + batch_size]
        flat = np.concatenate(
            [flatten_poses(sequences[i].positions[:, :total_frames].astype(np.float64))
             for i in chunk], axis=0)
        yield flat[:, :, :history_frames], flat
