"""Top-k gated mixture over four spatiotemporal expert compositions.

All experts in one layer are built from the SAME two shared blocks: a
spatial block (scan axis = pose coordinate, channels = frequency bins) and
a temporal block (scan axis = frequency bin, channels = pose coordinates).
Choosing an expert only chooses a composition order, never new parameters.
A stage is one call of its block on (batch, D, T) features: each block
owns the axis it scans (``BiBlockParams.axis``, 1 for the spatial block and
2 for the temporal one), so no stage records a transposed copy of its input
or output.  A kind names its two stages in order, S for spatial and T for
temporal:

    ST: spatial, then temporal        TT: temporal twice
    TS: temporal, then spatial        SS: spatial twice

Experts share computation as well as weights: a mixture layer computes
each first stage (S or T) once, and only if some expert with a nonzero
weight starts with it, then applies each such expert's second stage to it.
One rule, the same on and off the tape, decides how the second stages
run.  The kinds that end in the same stage (ST and TT, TS and SS) run it as
one call on their stacked inputs while that call's scan-gradient chunk
buffer, directions * rows * ceil(sqrt(3L)) * N * E*C * itemsize
(``ssm._scan_chunk_bytes``), fits ``ssm._TILE_BYTES``, the budget of the
tape-free row tiles; otherwise each kind runs its own call.  A stack saves
per-step Python: it halves the second stages' kernel calls and so their
scan loops, which is what a small training step pays for (the overfit
problem, whose stacks hold about 0.4 MB, ran about 10% slower per epoch
with per-kind calls), though not tape nodes (its concat and slice nodes
outnumber the block nodes it saves, 56 against 52 per forward there).  A
large stack costs memory instead.  Recorded, it doubles the rows of the
chunk buffers its backward holds at the step's peak; off the tape, where
the row tiles keep the block's working set as it is, its concatenated
input and sliced outputs are extra whole-batch copies.  At
``ModelConfig()`` in float32 on 8 rows the stacks would hold 3.69 and
2.76 MB, so each kind runs its own call, and a traced train step peaks at
14.4 MB against 20.7 MB stacked (56.6 against 81.8 MB on 32 rows).  A
tape-free row has the same bits in any stack, so the rule moves no
forecast bit.

The first stages run first, in pool order, then the second-stage calls in
decreasing order of their chunk buffers; at ``ModelConfig()`` shapes S
second (L = 45, q = 12, E*C = 150) comes before T second (L = 75, q = 15,
E*C = 90).  On a tape the backward runs in reverse and releases each node
once it has run, so the costliest call's chunk buffers are allocated after
the other calls' kept arrays are freed.  Where each second stage is one
call, the order moves no bit: each first-stage output has at most two
consumers, and two adjoints add to the same bits in either order.
Per-kind calls give each block's weights three consumers, and there the
order sets the gradients' last bits.

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

from .autodiff import (Module, ShapeError, Tensor, add, concat, matmul, mul, reduce_mean,
                       reshape, slice_axis, softmax_lastaxis, take_rows, topk_mask)
from .ssm import _TILE_BYTES, BiBlockParams, _scan_chunk_bytes, bidirectional_forward

EXPERT_KINDS = ("ST", "TT", "TS", "SS")


@dataclass
class RouterParams(Module):
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


def expert_outputs(kinds, shared_s: BiBlockParams, shared_t: BiBlockParams,
                   features: Tensor, rows=None) -> dict[str, Tensor]:
    """Each distinct kind in ``kinds`` applied to (batch, D, T) features.

    A kind names its stages, first stage first.  Each first stage is
    computed once and shared by every kind that starts with it.  ``rows``
    maps each kind to its sorted batch rows, and that kind's output holds
    only those rows; a first stage then runs on the union of its kinds'
    rows.  ``None`` means every row.  A stage whose rows are the whole batch
    is not gathered.

    The first stages run first, in pool order.  The kinds ending in the
    same stage then run it as one call on their stacked inputs if that
    call's scan-gradient chunk buffer fits one row tile, and each in its
    own call otherwise, on and off the tape alike: four block calls for the
    full pool on small inputs, six on ``ModelConfig()``'s 8-row batches.
    The second-stage calls run in decreasing order of their chunk buffers
    (the module docstring says why).
    """
    kinds = list(dict.fromkeys(kinds))
    for kind in kinds:
        if kind not in EXPERT_KINDS:
            raise ValueError(f"unknown expert kind {kind!r}, expected one of {EXPERT_KINDS}")
    bsz = features.shape[0]
    want = {kind: np.arange(bsz) if rows is None else np.asarray(rows[kind]) for kind in kinds}
    firsts: dict[str, tuple[np.ndarray, Tensor]] = {}
    blocks = {"S": shared_s, "T": shared_t}

    def first_stage(name: str) -> tuple[np.ndarray, Tensor]:
        if name not in firsts:
            # np.unique would import numpy.ma on first use: 6 ms and 1.7 MB
            head = np.flatnonzero(np.bincount(np.concatenate(
                [want[k] for k in kinds if k[0] == name]), minlength=bsz))
            x = features if len(head) == bsz else take_rows(features, head)
            firsts[name] = head, bidirectional_forward(blocks[name], x)
        return firsts[name]

    def second_input(kind: str) -> Tensor:
        head, first = first_stage(kind[0])
        if len(want[kind]) < len(head):
            first = take_rows(first, np.searchsorted(head, want[kind]))
        return first

    ends: dict[str, list[str]] = {}
    for kind in kinds:
        first_stage(kind[0])
        ends.setdefault(kind[1], []).append(kind)

    def scratch(group: list[str]) -> int:
        # the chunk buffer of the group's second-stage call
        block = blocks[group[0][1]]
        rows = sum(len(want[k]) for k in group)
        return _scan_chunk_bytes(block, rows, features.shape[block.axis], features.data.dtype)

    calls = [call for group in ends.values()
             for call in ([group] if scratch(group) <= _TILE_BYTES else [[k] for k in group])]
    outs: dict[str, Tensor] = {}
    for group in sorted(calls, key=scratch, reverse=True):  # stable: ties keep pool order
        xs = [second_input(k) for k in group]
        y = bidirectional_forward(blocks[group[0][1]],
                                  xs[0] if len(xs) == 1 else concat(xs, axis=0))
        if len(xs) == 1:
            outs[group[0]] = y
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
