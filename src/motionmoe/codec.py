"""Pose feature codec: history padding and the graph-convolutional
encoder/decoder that maps DCT coefficient matrices to latent features.

The graph is over the D = J*3 pose coordinates with a fully learnable dense
adjacency; a layer computes A x W + b.  The encoder (``PoseCodec.enc``) and
the decoder (``dec``) are both three layers, T -> hidden -> hidden -> T, run
by one fixed recipe: tanh of the first layer, then dropout; tanh of the
middle layer, then dropout, plus the middle layer's input; the last layer,
linear.  Dropout is inverted, at the codec's one rate, and draws its masks
in that order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Module, ShapeError, Tensor, add, matmul, mul, tanh


def padding_matrix(history: int, total_frames: int) -> np.ndarray:
    """(t, T) 0/1 matrix P: x P extends x from t to T frames by repeating the
    last one.  Each output frame is one input frame times 1 plus zeros, so
    the padding is exact for finite x, and gradient sums onto frame t-1."""
    if not 1 <= history <= total_frames:
        raise ShapeError(f"padding_matrix: need 1 <= history <= total frames, "
                         f"got {history}/{total_frames}")
    pad = np.eye(history, total_frames)
    pad[-1, history:] = 1.0
    return pad


def apply_dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; scaling at train time keeps eval a plain forward."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    keep = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return mul(x, Tensor(keep, requires_grad=False))


@dataclass
class GcnLayer(Module):
    adjacency: Tensor  # (D, D), learnable
    weight: Tensor     # (C_in, C_out)
    bias: Tensor       # (C_out,)

    def forward(self, x: Tensor) -> Tensor:
        """A x W + b over (batch, D, C_in) input."""
        if x.ndim != 3 or x.shape[1] != self.adjacency.shape[0]:
            raise ShapeError(
                f"GcnLayer: expected (batch, {self.adjacency.shape[0]}, C_in), got {x.shape}")
        if x.shape[2] != self.weight.shape[0]:
            raise ShapeError(
                f"GcnLayer: input width {x.shape[2]} != weight rows {self.weight.shape[0]}")
        return add(matmul(matmul(self.adjacency, x), self.weight), self.bias)


def init_gcn_layer(rng: np.random.Generator, dim: int, c_in: int, c_out: int) -> GcnLayer:
    # identity + small noise keeps early propagation close to per-node
    adjacency = Tensor(np.eye(dim) + 0.01 * rng.standard_normal((dim, dim)),
                       requires_grad=True)
    bound = 1.0 / np.sqrt(c_in)
    weight = Tensor(rng.uniform(-bound, bound, size=(c_in, c_out)), requires_grad=True)
    bias = Tensor(np.zeros(c_out), requires_grad=True)
    return GcnLayer(adjacency, weight, bias)


@dataclass
class PoseCodec(Module):
    enc: list[GcnLayer]  # three layers each, run by the module docstring's recipe
    dec: list[GcnLayer]
    dropout: float

    def encode(self, coeffs: Tensor, train_mode: bool = False,
               rng: np.random.Generator | None = None) -> Tensor:
        return self._run(self.enc, coeffs, train_mode, rng)

    def decode(self, features: Tensor, train_mode: bool = False,
               rng: np.random.Generator | None = None) -> Tensor:
        return self._run(self.dec, features, train_mode, rng)

    def _run(self, layers: list[GcnLayer], x: Tensor, train_mode: bool,
             rng: np.random.Generator | None) -> Tensor:
        first, middle, last = layers

        def hidden(layer, h):
            y = tanh(layer.forward(h))
            if train_mode and self.dropout > 0.0:
                if rng is None:
                    raise ValueError("dropout in train mode needs an explicit rng")
                y = apply_dropout(y, self.dropout, rng)
            return y

        h = hidden(first, x)
        h = add(hidden(middle, h), h)
        return last.forward(h)


def init_pose_codec(rng: np.random.Generator, pose_dim: int, frames: int,
                    hidden: int = 64, dropout: float = 0.1) -> PoseCodec:
    """Both stacks run frames -> hidden -> hidden -> frames over the pose graph."""

    def stack():
        return [init_gcn_layer(rng, pose_dim, c_in, c_out)
                for c_in, c_out in ((frames, hidden), (hidden, hidden), (hidden, frames))]

    return PoseCodec(enc=stack(), dec=stack(), dropout=dropout)
