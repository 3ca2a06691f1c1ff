"""Top-k gated mixture over four spatiotemporal expert compositions.

All experts in one layer are built from the SAME two shared blocks: a
spatial block (scan axis = pose coordinate, channels = frequency bins) and
a temporal block (scan axis = frequency bin, channels = pose coordinates).
Choosing an expert only chooses a composition order, never new parameters.
A kind names its two stages in order, S for spatial and T for temporal:

    ST: spatial, then temporal        TT: temporal twice
    TS: temporal, then spatial        SS: spatial twice

Experts share computation as well as weights: a mixture layer computes
each first stage (S or T) once, and only if some expert with a nonzero
weight starts with it, then applies each such expert's second stage to it.
On a tape, the kinds that end in the same stage (ST and TT, TS and SS) run
that stage as one call on their stacked inputs, so the full pool makes four
block calls per layer: S first, T first, T second, S second.  Off the tape
each kind runs its own second stage, six calls in all.  The switch follows
what the code observes, whether the stage input is recorded, and the two
sides have different costs.  A small training step is dominated by per-op
Python, and stacking halves the second stages' kernel calls and so their
per-step Python loops.  It does not save tape nodes: its concat and slice
nodes outnumber the block nodes it saves (60 against 58 per forward of the
overfit problem), yet per-kind calls there ran about 10% slower per epoch.
A tape-free forecast is dominated by the block's arithmetic, which stacking
leaves as it is.  Its block calls run in row tiles (see ``ssm``), so a
stacked call's working set is no larger, but the stack's concatenated
input and sliced outputs are extra whole-batch copies: stacking off the
tape as well raised the forecast benchmark's peak RSS by about 2 MB, with
no clear time saving.

The gate reduces each sample's feature map by a temporal mean, applies one
linear layer, keeps the top-k logits (ties to the lowest index), masks the
rest to -inf and softmaxes.  Each expert runs only on the batch rows that
give it a nonzero weight: a first stage runs on the rows of the experts
that start with it, and each weighted expert output is scattered back into
the batch, with zeros in every other row.  Skipping a row is numerically
identical to evaluating it and multiplying by zero.  There is no auxiliary
load-balancing loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (ShapeError, Tensor, add, concat, is_recording, matmul, mul,
                       reduce_mean, reshape, slice_axis, softmax_lastaxis,
                       take_rows, topk_mask, transpose)
from .ssm import BiBlockParams, bidirectional_forward

EXPERT_KINDS = ("ST", "TT", "TS", "SS")


@dataclass
class RouterParams:
    gate_weight: Tensor  # (D, N)
    gate_bias: Tensor    # (N,)
    k: int

    def __post_init__(self):
        n = self.gate_weight.shape[1]
        if not 1 <= self.k <= n:
            raise ValueError(f"router k={self.k} outside [1, {n}]")

    @property
    def n_experts(self) -> int:
        return self.gate_weight.shape[1]

    def parameters(self) -> dict[str, Tensor]:
        return {"gate_weight": self.gate_weight, "gate_bias": self.gate_bias}


def init_router(rng: np.random.Generator, pose_dim: int, n_experts: int, k: int) -> RouterParams:
    bound = 1.0 / np.sqrt(pose_dim)
    return RouterParams(
        gate_weight=Tensor(rng.uniform(-bound, bound, size=(pose_dim, n_experts)),
                           requires_grad=True),
        gate_bias=Tensor(np.zeros(n_experts), requires_grad=True),
        k=k,
    )


@dataclass
class GateDecision:
    """Routing record for one batch: raw logits, surviving expert indices
    (ascending) and the dense weight rows (exactly N-k zeros each)."""

    logits: np.ndarray   # (batch, N)
    kept: np.ndarray     # (batch, k) int
    weights: Tensor      # (batch, N), differentiable

    def to_lines(self, sample_offset: int = 0, layer: int = 0) -> list[str]:
        lines = []
        w = self.weights.data
        for i in range(self.logits.shape[0]):
            logits = ",".join(f"{v:.6f}" for v in self.logits[i])
            kept = ",".join(str(int(v)) for v in self.kept[i])
            weights = ",".join(f"{v:.6f}" for v in w[i])
            lines.append(f"sample={sample_offset + i} layer={layer} "
                         f"logits={logits} kept={kept} weights={weights}")
        return lines


def gate(router: RouterParams, features: Tensor) -> GateDecision:
    """Route (batch, D, T) features: temporal mean -> linear -> top-k softmax."""
    if features.ndim != 3 or features.shape[1] != router.gate_weight.shape[0]:
        raise ShapeError(
            f"gate: expected (batch, {router.gate_weight.shape[0]}, T), got {features.shape}")
    descriptor = reduce_mean(features, axes=(2,))
    logits = add(matmul(descriptor, router.gate_weight), router.gate_bias)
    weights = softmax_lastaxis(topk_mask(logits, router.k))
    # stable argsort of negated logits: ties resolve to the lowest index
    order = np.argsort(-logits.data, axis=-1, kind="stable")
    kept = np.sort(order[:, :router.k], axis=-1)
    return GateDecision(logits=np.array(logits.data), kept=kept, weights=weights)


def _stage(name: str, shared_s: BiBlockParams, shared_t: BiBlockParams, x: Tensor) -> Tensor:
    """One expert stage over (batch, D, T): "S" is the spatial block; "T" is
    the temporal block on the transposed view (batch, T, D), transposed back."""
    if name == "S":
        return bidirectional_forward(shared_s, x)
    y = bidirectional_forward(shared_t, transpose(x, 1, 2))
    return transpose(y, 1, 2)


def expert_outputs(kinds, shared_s: BiBlockParams, shared_t: BiBlockParams,
                   features: Tensor, rows=None) -> dict[str, Tensor]:
    """Each distinct kind in ``kinds`` applied to (batch, D, T) features.

    A kind names its stages, first stage first.  Each first stage is
    computed once and shared by every kind that starts with it.  ``rows``
    maps each kind to its sorted batch rows, and that kind's output holds
    only those rows; a first stage then runs on the union of its kinds'
    rows.  ``None`` means every row.  A stage whose rows are the whole batch
    is not gathered.

    When a second stage's input is recorded on a tape, the kinds ending in
    that stage run it as one call on their stacked inputs: four block calls
    for the full pool, against six off the tape (the module docstring says
    why the two differ).
    """
    kinds = list(dict.fromkeys(kinds))
    for kind in kinds:
        if kind not in EXPERT_KINDS:
            raise ValueError(f"unknown expert kind {kind!r}, expected one of {EXPERT_KINDS}")
    bsz = features.shape[0]
    want = {kind: np.arange(bsz) if rows is None else np.asarray(rows[kind]) for kind in kinds}
    firsts: dict[str, tuple[np.ndarray, Tensor]] = {}

    def second_input(kind: str) -> Tensor:
        if kind[0] not in firsts:
            # np.unique would import numpy.ma on first use: 6 ms and 1.7 MB
            head = np.flatnonzero(np.bincount(np.concatenate(
                [want[k] for k in kinds if k[0] == kind[0]]), minlength=bsz))
            x = features if len(head) == bsz else take_rows(features, head)
            firsts[kind[0]] = head, _stage(kind[0], shared_s, shared_t, x)
        head, first = firsts[kind[0]]
        if len(want[kind]) < len(head):
            first = take_rows(first, np.searchsorted(head, want[kind]))
        return first

    outs: dict[str, Tensor] = {}
    for kind in kinds:
        if kind in outs:
            continue
        group, xs = [kind], [second_input(kind)]
        if is_recording(xs):
            # every kind before this one is done, so the group starts with it
            group = [k for k in kinds if k[1] == kind[1] and k not in outs]
            xs += [second_input(k) for k in group[1:]]
        x = xs[0] if len(xs) == 1 else concat(xs, axis=0)
        y = _stage(kind[1], shared_s, shared_t, x)
        if len(xs) == 1:
            outs[kind] = y
            continue
        start = 0
        for k, part in zip(group, xs):
            outs[k] = slice_axis(y, axis=0, start=start, stop=start + part.shape[0])
            start += part.shape[0]
    return outs


def moe_layer_forward(router: RouterParams, shared_s: BiBlockParams,
                      shared_t: BiBlockParams, pool: tuple[str, ...],
                      features: Tensor) -> tuple[Tensor, GateDecision]:
    """Weighted sum of expert outputs under the gate's sparse decision; each
    expert runs only on the batch rows that give it a nonzero weight."""
    if len(pool) != router.n_experts:
        raise ShapeError(f"pool size {len(pool)} != router width {router.n_experts}")
    decision = gate(router, features)
    bsz = features.shape[0]
    routed = decision.weights.data != 0.0
    used = [e for e in range(len(pool)) if routed[:, e].any()]
    # a kind listed twice in the pool runs on the rows of both its experts
    kind_rows = {pool[e]: np.flatnonzero(routed[:, [i for i in used if pool[i] == pool[e]]]
                                         .any(axis=1)) for e in used}
    outs = expert_outputs(list(kind_rows), shared_s, shared_t, features, rows=kind_rows)
    out = None
    for e in used:
        rows = kind_rows[pool[e]]
        w_col = reshape(slice_axis(decision.weights, axis=1, start=e, stop=e + 1),
                        (bsz, 1, 1))
        if len(rows) == bsz:
            term = mul(outs[pool[e]], w_col)
        else:
            # weight the routed rows, then scatter them back: every other
            # batch row gathers the appended zero row
            term = mul(outs[pool[e]], take_rows(w_col, rows))
            zero = Tensor(np.zeros((1,) + term.shape[1:]), dtype=term.data.dtype)
            slot = np.full(bsz, len(rows))
            slot[rows] = np.arange(len(rows))
            term = take_rows(concat([term, zero], axis=0), slot)
        out = term if out is None else add(out, term)
    return out, decision
