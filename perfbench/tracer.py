"""Span tracer that measures motionmoe's layers from outside the program.

``Tracer.install`` replaces public functions under the names their importing
modules bind (``motionmoe.moe.bidirectional_forward``,
``motionmoe.training.backward``, ...) with wrappers that record one span per
call: name, start, end, parent, request id and the tape-node index range
``[lo, hi)`` the call appended to the active tape.  Nothing under ``src/`` is
edited; ``uninstall`` puts every original back.

Backward time and bytes are attributed through those node ranges: before
``backward`` runs, each tape node's closure is wrapped in a timer and its
time, plus its output's bytes, is charged to the innermost span whose range
holds the node.  A wrapped function that no longer exists is listed in
``Tracer.absent`` and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import time
from collections import defaultdict

# (module, attribute, span name).  The span's layer is the name's prefix.
WRAPS = (
    ("motionmoe.model", "MotionMoE.forward", "model.forward"),
    ("motionmoe.model", "pad_sequence", "codec.pad"),
    ("motionmoe.model", "dct_forward", "dct.forward"),
    ("motionmoe.model", "dct_inverse", "dct.inverse"),
    ("motionmoe.codec", "PoseCodec.encode", "codec.encode"),
    ("motionmoe.codec", "PoseCodec.decode", "codec.decode"),
    ("motionmoe.model", "moe_layer_forward", "moe.layer"),
    ("motionmoe.moe", "gate", "moe.gate"),
    ("motionmoe.moe", "expert_forward", "moe.expert"),
    ("motionmoe.moe", "bidirectional_forward", "ssm.block"),
    ("motionmoe.ssm", "mamba_block_forward", "ssm.mamba"),
    ("motionmoe.ssm", "ssm_discretize", "ssm.discretize"),
    ("motionmoe.ssm", "selective_scan", "ssm.scan"),
    ("motionmoe.training", "total_loss", "objectives.loss"),
    ("motionmoe.training", "backward", "autodiff.backward"),
    ("motionmoe.training", "adam_step", "training.adam"),
    ("motionmoe.training", "save_checkpoint", "training.checkpoint_write"),
    ("motionmoe.training", "load_checkpoint", "training.checkpoint_read"),
    ("motionmoe.training", "batch_iter", "data.batch"),
    ("motionmoe.data", "batch_iter", "data.batch"),
    ("motionmoe.data", "read_dataset", "data.read"),
    ("motionmoe.training", "Tape", "training.step"),
)

MB = 1e6


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "tape", "lo", "hi",
                 "count", "bwd_s", "out_bytes", "state_bytes")

    def __init__(self, name, start, parent=-1, request=-1, tape=None, lo=0):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.request = request
        self.tape = tape          # serial of the tape active on entry
        self.lo = lo              # len(tape.nodes) on entry
        self.hi = None            # len(tape.nodes) on exit
        self.count = 0            # scan length, expert rows, weighted pairs, file
                                  # bytes, or a backward's node-closure seconds
        self.bwd_s = 0.0          # backward closure time charged here
        self.out_bytes = 0        # tape-node output bytes charged here
        self.state_bytes = 0      # the 4-D share of out_bytes

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.request = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._serials = itertools.count()
        self._active_tape = lambda: None

    # --- recording -------------------------------------------------------

    def open(self, name: str, tape=None) -> int:
        if tape is None:
            tape = self._active_tape()
        span = Span(name, time.perf_counter(), self._stack[-1] if self._stack else -1,
                    self.request, getattr(tape, "serial", None),
                    len(tape.nodes) if tape is not None else 0)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int, tape=None) -> None:
        span = self.spans[index]
        if tape is None:
            tape = self._active_tape()
        span.hi = len(tape.nodes) if tape is not None else span.lo
        span.end = time.perf_counter()
        self._stack.pop()

    def owners(self, serial: int, n_nodes: int, first: int = 0) -> list[int]:
        """Innermost span holding each of the tape's first n_nodes nodes.

        Spans on one thread nest, and a span is created after every span
        enclosing it, so assigning ranges in creation order leaves each
        node with its deepest span.  -1 marks a node outside every span.
        Spans before index ``first`` are skipped.
        """
        owner = [-1] * n_nodes
        for i in range(first, len(self.spans)):
            span = self.spans[i]
            if span.tape == serial:
                hi = n_nodes if span.hi is None else span.hi
                owner[span.lo:hi] = [i] * (hi - span.lo)
        return owner

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({slot: getattr(span, slot) for slot in Span.__slots__}) + "\n")

    # --- wrapping --------------------------------------------------------

    def install(self) -> None:
        autodiff = importlib.import_module("motionmoe.autodiff")
        self._active_tape = getattr(autodiff, "active_tape", lambda: None)
        for module_name, attr, name in WRAPS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            if name == "training.step":
                wrapped = self._tape_class(original)
            elif name == "autodiff.backward":
                wrapped = self._backward(original)
            elif name == "data.batch":
                wrapped = self._generator(original, name)
            else:
                wrapped = self._function(original, name, _COUNTERS.get(name))
            setattr(owner, leaf, wrapped)
            self._restore.append((owner, leaf, original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()

    def _function(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if counter is not None:
                tracer.spans[index].count = counter(args, kwargs, out)
            return out

        return traced

    def _generator(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                index = tracer.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close(index)
                yield item

        return traced

    def _tape_class(self, base):
        tracer = self

        class TracedTape(base):
            __slots__ = ("serial", "span")

            def __enter__(self):
                self.serial = next(tracer._serials)
                self.span = tracer.open("training.step", tape=self)
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.close(self.span, tape=self)

        TracedTape.__name__ = base.__name__
        return TracedTape

    def _backward(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(loss, *args, **kwargs):
            tape = getattr(loss, "tape", None)
            nodes = list(tape.nodes) if tape is not None else []
            serial = getattr(tape, "serial", None)
            owner = ([-1] * len(nodes) if serial is None
                     else tracer.owners(serial, len(nodes), tape.span))
            closures = [node.backward for node in nodes]
            spent = [0.0]
            for node, i in zip(nodes, owner):
                if i < 0:
                    continue
                span = tracer.spans[i]
                out = node.output.data
                span.out_bytes += out.nbytes
                if out.ndim == 4:
                    span.state_bytes += out.nbytes
                node.backward = tracer._timed(node.backward, span, spent)
            index = tracer.open("autodiff.backward")
            try:
                return fn(loss, *args, **kwargs)
            finally:
                tracer.close(index)
                tracer.spans[index].count = spent[0]
                for node, closure in zip(nodes, closures):
                    node.backward = closure

        return traced

    def _timed(self, closure, span, spent):
        def timed(g):
            t0 = time.perf_counter()
            out = closure(g)
            dt = time.perf_counter() - t0
            span.bwd_s += dt
            spent[0] += dt
            return out

        return timed


def _scan_length(args, kwargs, out):
    return args[0].shape[1]


def _expert_rows(args, kwargs, out):
    features = args[3] if len(args) > 3 else kwargs["features"]
    return features.shape[0]


def _weighted_pairs(args, kwargs, out):
    decision = out[1]
    return int((decision.weights.data != 0.0).sum())


def _file_bytes(args, kwargs, out):
    return os.path.getsize(args[0])


_COUNTERS = {
    "ssm.scan": _scan_length,
    "moe.expert": _expert_rows,
    "moe.layer": _weighted_pairs,
    "training.checkpoint_write": _file_bytes,
}


# --- analysis ---------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its child spans' intervals."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children[i]):
            lo, hi = max(lo, span.start), min(hi, span.end)
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(span.duration - covered)
    return out


# name -> (unit, better); every metric layer_metrics returns, in print order
PER_LAYER = {
    "autodiff.tape_nodes": ("count/forward", "lower"),
    "autodiff.tape_mb": ("MB/step", "lower"),
    "autodiff.backward_self_s": ("s/step", "lower"),
    "autodiff.retained_mb": ("MB/request", "lower"),
    "dct.s": ("s/forward", "lower"),
    "codec.fwd_s": ("s/step", "lower"),
    "codec.bwd_s": ("s/step", "lower"),
    "moe.gate_s": ("s/forward", "lower"),
    "moe.expert_evals": ("count/layer/fwd", "lower"),
    "moe.useful_row_ratio": ("ratio", "higher"),
    "moe.mix_self_s": ("s/forward", "lower"),
    "ssm.block_calls": ("count/forward", "lower"),
    "ssm.mamba_calls": ("count/forward", "lower"),
    "ssm.scan_steps": ("count/forward", "lower"),
    "ssm.scan_fwd_s": ("s/step", "lower"),
    "ssm.scan_bwd_s": ("s/step", "lower"),
    "ssm.discretize_fwd_s": ("s/step", "lower"),
    "ssm.discretize_bwd_s": ("s/step", "lower"),
    "ssm.state_mb": ("MB/step", "lower"),
    "ssm.block_self_fwd_s": ("s/step", "lower"),
    "ssm.block_self_bwd_s": ("s/step", "lower"),
    "model.forward_s": ("s/forward", "lower"),
    "objectives.loss_s": ("s/step", "lower"),
    "training.adam_s": ("s/step", "lower"),
    "training.checkpoint_write_s": ("s/checkpoint", "lower"),
    "training.checkpoint_mb": ("MB/checkpoint", "lower"),
    "training.checkpoint_read_s": ("s/checkpoint", "lower"),
    "data.batch_s": ("s/request", "lower"),
    "data.read_s": ("s/run", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], requests: int, retained_bytes: list[int]) -> dict:
    """Per-layer metrics from the spans of timed requests (request id >= 0).

    Set-up spans (reading the dataset, the checkpoint round trip of the
    forecast workload) count only toward the per-run and per-checkpoint
    metrics.  A "step" is one recorded tape; a workload without tapes counts
    each forward as its step.
    """
    selfs = self_times(spans)
    timed = [i for i, s in enumerate(spans) if s.request >= 0]
    by_name = defaultdict(list)
    for i in timed:
        by_name[spans[i].name].append(i)

    def total(name, attr="duration"):
        return sum(getattr(spans[i], attr) for i in by_name[name])

    def total_self(name):
        return sum(selfs[i] for i in by_name[name])

    def everywhere(name):
        return [s for s in spans if s.name == name and s.end is not None]

    forwards = len(by_name["model.forward"])
    steps = len(by_name["training.step"]) or forwards
    layers = len(by_name["moe.layer"])
    codec = ("codec.pad", "codec.encode", "codec.decode")
    backward_self = sum(spans[i].duration - spans[i].count for i in by_name["autodiff.backward"])
    writes = everywhere("training.checkpoint_write")
    reads = everywhere("training.checkpoint_read")
    return {
        "autodiff.tape_nodes": _ratio(sum(spans[i].hi - spans[i].lo
                                          for i in by_name["model.forward"]
                                          if spans[i].tape is not None), forwards),
        "autodiff.tape_mb": _ratio(sum(spans[i].out_bytes for i in timed), steps) / MB,
        "autodiff.backward_self_s": _ratio(backward_self, steps),
        "autodiff.retained_mb": _ratio(sum(retained_bytes), len(retained_bytes)) / MB,
        "dct.s": _ratio(total("dct.forward") + total("dct.inverse"), forwards),
        "codec.fwd_s": _ratio(sum(total(n) for n in codec), steps),
        "codec.bwd_s": _ratio(sum(total(n, "bwd_s") for n in codec), steps),
        "moe.gate_s": _ratio(total("moe.gate"), forwards),
        "moe.expert_evals": _ratio(len(by_name["moe.expert"]), layers),
        "moe.useful_row_ratio": _ratio(total("moe.layer", "count"), total("moe.expert", "count")),
        "moe.mix_self_s": _ratio(total_self("moe.layer"), forwards),
        "ssm.block_calls": _ratio(len(by_name["ssm.block"]), forwards),
        "ssm.mamba_calls": _ratio(len(by_name["ssm.mamba"]), forwards),
        "ssm.scan_steps": _ratio(total("ssm.scan", "count"), forwards),
        "ssm.scan_fwd_s": _ratio(total("ssm.scan"), steps),
        "ssm.scan_bwd_s": _ratio(total("ssm.scan", "bwd_s"), steps),
        "ssm.discretize_fwd_s": _ratio(total("ssm.discretize"), steps),
        "ssm.discretize_bwd_s": _ratio(total("ssm.discretize", "bwd_s"), steps),
        "ssm.state_mb": _ratio(sum(spans[i].state_bytes for i in timed
                                   if spans[i].layer == "ssm"), steps) / MB,
        "ssm.block_self_fwd_s": _ratio(total_self("ssm.mamba"), steps),
        "ssm.block_self_bwd_s": _ratio(total("ssm.mamba", "bwd_s"), steps),
        "model.forward_s": _ratio(total("model.forward"), forwards),
        "objectives.loss_s": _ratio(total("objectives.loss") + total("objectives.loss", "bwd_s"),
                                    steps),
        "training.adam_s": _ratio(total("training.adam"), steps),
        "training.checkpoint_write_s": _ratio(sum(s.duration for s in writes), len(writes)),
        "training.checkpoint_mb": _ratio(sum(s.count for s in writes), len(writes)) / MB,
        "training.checkpoint_read_s": _ratio(sum(s.duration for s in reads), len(reads)),
        "data.batch_s": _ratio(total("data.batch"), requests),
        "data.read_s": sum(s.duration for s in everywhere("data.read")),
    }


def backward_shares(spans: list[Span]) -> tuple[dict[str, float], float, float]:
    """(node-closure seconds charged per layer, closure seconds left on the
    step span because no layer span holds their nodes, total backward span
    time), over timed requests."""
    shares = defaultdict(float)
    loose = wall = 0.0
    for span in spans:
        if span.request < 0:
            continue
        if span.name == "training.step":
            loose += span.bwd_s
        elif span.bwd_s:
            shares[span.layer] += span.bwd_s
        if span.name == "autodiff.backward":
            wall += span.duration
    return dict(shares), loose, wall
