"""Training losses (differentiable) and evaluation metrics (plain numpy).

The spatial loss is squared Euclidean per joint, averaged separately over
the reconstructed history (weighted by lambda_hist) and the forecast
window.  The temporal loss is the MSE of first-order frame differences,
i.e. a fixed [-1, 1] convolution along time.  Metric distances are plain
(unsquared) Euclidean, reported in the data's units (mm for the bundled
generator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import ShapeError, Tensor, add, mul, reduce_mean, reduce_sum, slice_axis, sub


@dataclass
class LossWeights:
    alpha: float = 1.0        # spatial term
    beta: float = 1.0         # temporal-consistency term
    lambda_hist: float = 0.1  # history share inside the spatial term

    def __post_init__(self):
        weights = (self.alpha, self.beta, self.lambda_hist)
        if not all(w >= 0 and math.isfinite(w) for w in weights):
            raise ValueError(f"loss weights must be non-negative and finite, got {weights}")


def _check_pose_4d(name: str, pred: Tensor, gt: Tensor) -> tuple[int, int, int, int]:
    if pred.ndim != 4 or pred.shape[2] != 3:
        raise ShapeError(f"{name}: expected (M, J, 3, T), got {pred.shape}")
    if pred.shape != gt.shape:
        raise ShapeError(f"{name}: prediction {pred.shape} != target {gt.shape}")
    return pred.shape


def spatial_loss(pred: Tensor, gt: Tensor, history_frames: int,
                 weights: LossWeights = LossWeights()) -> Tensor:
    """lambda/(J M t) * sum_hist ||d||^2 + 1/(J M (T-t)) * sum_future ||d||^2."""
    m, j, _, t_total = _check_pose_4d("spatial_loss", pred, gt)
    t = history_frames
    if not 0 < t < t_total:
        raise ShapeError(f"spatial_loss: history_frames {t} outside (0, {t_total})")
    diff = sub(pred, gt)
    sq = mul(diff, diff)
    hist = reduce_sum(slice_axis(sq, axis=3, start=0, stop=t))
    fut = reduce_sum(slice_axis(sq, axis=3, start=t, stop=t_total))
    hist_term = mul(hist, Tensor(weights.lambda_hist / (j * m * t)))
    fut_term = mul(fut, Tensor(1.0 / (j * m * (t_total - t))))
    return add(hist_term, fut_term)


def temporal_consistency_loss(pred: Tensor, gt: Tensor) -> Tensor:
    """MSE between first-order temporal differences of prediction and target."""
    _, _, _, t_total = _check_pose_4d("temporal_consistency_loss", pred, gt)
    if t_total < 2:
        raise ShapeError("temporal_consistency_loss: need at least two frames")

    def velocity(x):
        return sub(slice_axis(x, axis=3, start=1, stop=t_total),
                   slice_axis(x, axis=3, start=0, stop=t_total - 1))

    dv = sub(velocity(pred), velocity(gt))
    return reduce_mean(mul(dv, dv))


def total_loss(pred: Tensor, gt: Tensor, history_frames: int,
               weights: LossWeights = LossWeights()) -> Tensor:
    """alpha * spatial + beta * temporal-consistency."""
    spatial = mul(spatial_loss(pred, gt, history_frames, weights), Tensor(weights.alpha))
    temporal = mul(temporal_consistency_loss(pred, gt), Tensor(weights.beta))
    return add(spatial, temporal)


# --- evaluation metrics ----------------------------------------------------

def _as_array(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def jpe(pred, gt) -> float:
    """Mean Euclidean joint position error over persons and joints, (M, J, 3)."""
    p, g = _as_array(pred), _as_array(gt)
    if p.shape != g.shape or p.ndim != 3 or p.shape[-1] != 3:
        raise ShapeError(f"jpe: expected matching (M, J, 3), got {p.shape} vs {g.shape}")
    return float(np.linalg.norm(p - g, axis=-1).mean())


def ape(pred, gt, root_index: int = 0) -> float:
    """JPE after subtracting each person's root joint from every joint."""
    p, g = _as_array(pred), _as_array(gt)
    if p.ndim != 3 or not 0 <= root_index < p.shape[1]:
        raise ShapeError(f"ape: root index {root_index} invalid for shape {p.shape}")
    return jpe(p - p[:, root_index:root_index + 1, :],
               g - g[:, root_index:root_index + 1, :])


@dataclass
class MetricReport:
    horizons: tuple[float, ...]
    jpe_at: dict[float, float] = field(default_factory=dict)
    ape_at: dict[float, float] = field(default_factory=dict)
    avg_jpe: float = 0.0
    avg_ape: float = 0.0

    def to_table(self) -> str:
        header = "metric\t" + "\t".join(f"{h:g}s" for h in self.horizons) + "\tAvg"
        jrow = "JPE\t" + "\t".join(f"{self.jpe_at[h]:.2f}" for h in self.horizons)
        arow = "APE\t" + "\t".join(f"{self.ape_at[h]:.2f}" for h in self.horizons)
        return "\n".join([header,
                          jrow + f"\t{self.avg_jpe:.2f}",
                          arow + f"\t{self.avg_ape:.2f}"])


def horizon_frames(horizons: tuple[float, ...], fps: float, window: int) -> list[int]:
    """The 1-based forecast-window frame of each horizon in seconds; raises
    ValueError unless each lands on a whole frame inside the window."""
    for h in horizons:
        if not math.isfinite(h * fps):
            raise ValueError(f"horizon {h}s is not a finite frame at {fps} fps")
    offsets = [round(h * fps) for h in horizons]
    for h, offset in zip(horizons, offsets):
        if abs(h * fps - offset) > 1e-9 or offset < 1:
            raise ValueError(f"horizon {h}s does not map to a whole predicted frame at {fps} fps")
        if offset > window:
            raise ValueError(
                f"horizon {h}s (frame {offset}) exceeds the {window}-frame forecast window")
    return offsets


def report_at_horizons(pred, gt, history_frames: int, fps: float,
                       horizons: tuple[float, ...],
                       root_index: int = 0) -> MetricReport:
    """JPE/APE at each horizon plus the average over every predicted frame.

    pred/gt: (M, J, 3, T).  A horizon h seconds maps to the (h * fps)-th
    predicted frame, 1-based within the forecast window (``horizon_frames``).
    """
    p, g = _as_array(pred), _as_array(gt)
    if p.shape != g.shape or p.ndim != 4 or p.shape[2] != 3:
        raise ShapeError(f"report_at_horizons: expected matching (M, J, 3, T), got {p.shape}")
    t_total = p.shape[3]
    t = history_frames
    if not 0 < t < t_total:
        raise ShapeError(f"report_at_horizons: history_frames {t} outside (0, {t_total})")

    report = MetricReport(horizons=tuple(horizons))
    for h, offset in zip(report.horizons, horizon_frames(report.horizons, fps, t_total - t)):
        idx = t + offset - 1
        report.jpe_at[h] = jpe(p[..., idx], g[..., idx])
        report.ape_at[h] = ape(p[..., idx], g[..., idx], root_index)
    future = range(t, t_total)
    report.avg_jpe = float(np.mean([jpe(p[..., i], g[..., i]) for i in future]))
    report.avg_ape = float(np.mean([ape(p[..., i], g[..., i], root_index) for i in future]))
    return report
