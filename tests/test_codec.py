"""Codec tests: last-frame padding semantics, a triple-loop oracle for the
graph-convolution layer, dropout behavior, and gradient flow."""

import numpy as np
import pytest

from motionmoe import autodiff as ad
from motionmoe.codec import (GcnLayer, PoseCodec, apply_dropout,
                             init_gcn_layer, init_pose_codec, padding_matrix)


def loop_gcn(a, x, w, b, activation):
    """y[s, i, o] = act(sum_{j,c} A[i,j] x[s,j,c] W[c,o] + b[o])."""
    batch, d, c_in = x.shape
    c_out = w.shape[1]
    out = np.zeros((batch, d, c_out))
    for s in range(batch):
        for i in range(d):
            for o in range(c_out):
                acc = b[o]
                for j in range(d):
                    for c in range(c_in):
                        acc += a[i, j] * x[s, j, c] * w[c, o]
                out[s, i, o] = acc
    return np.tanh(out) if activation == "tanh" else out


def pad(x: ad.Tensor, total_frames: int) -> ad.Tensor:
    return ad.matmul(x, ad.Tensor(padding_matrix(x.shape[-1], total_frames)))


class TestPadding:
    def test_repeats_last_frame(self):
        x = ad.Tensor(np.arange(6, dtype=np.float64).reshape(1, 2, 3))
        out = pad(x, 5)
        assert out.shape == (1, 2, 5)
        np.testing.assert_array_equal(out.data[0, 0], [0, 1, 2, 2, 2])
        np.testing.assert_array_equal(out.data[0, 1], [3, 4, 5, 5, 5])

    def test_full_length_is_identity(self):
        x = ad.Tensor(np.random.default_rng(0).standard_normal((2, 4, 7)))
        out = pad(x, 7)
        np.testing.assert_array_equal(out.data, x.data)

    def test_too_long_raises(self):
        with pytest.raises(ad.ShapeError, match="got 9/8"):
            padding_matrix(9, 8)
        with pytest.raises(ad.ShapeError):
            padding_matrix(0, 8)

    def test_gradient_accumulates_on_last_frame(self):
        x = ad.Tensor(np.zeros((1, 1, 3)), requires_grad=True)
        with ad.Tape():
            ad.backward(ad.reduce_sum(pad(x, 6)))
        # three padded copies plus the original frame
        np.testing.assert_array_equal(x.grad[0, 0], [1.0, 1.0, 4.0])

    @pytest.mark.parametrize("t, total", [(1, 2), (5, 8), (50, 75)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_numpy_pad_bit_for_bit(self, t, total, dtype):
        # exact, so padding as a matmul leaves every later rounding unchanged
        x = 3000.0 * np.random.default_rng(t).standard_normal((3, 6, t))
        previous = ad.get_default_dtype()
        ad.set_default_dtype(dtype)
        try:
            out = pad(ad.Tensor(x), total).data
        finally:
            ad.set_default_dtype(previous)
        expected = x.astype(dtype)
        expected = np.concatenate(
            [expected, np.repeat(expected[..., -1:], total - t, axis=-1)], axis=-1)
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, expected)


class TestGcnLayer:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("activation", ["tanh", "none"])
    def test_matches_loop_oracle(self, seed, activation):
        rng = np.random.default_rng(seed)
        batch, d, c_in, c_out = 2, 4, 3, 5
        layer = GcnLayer(
            adjacency=ad.Tensor(rng.standard_normal((d, d))),
            weight=ad.Tensor(rng.standard_normal((c_in, c_out))),
            bias=ad.Tensor(rng.standard_normal(c_out)),
            activation=activation,
        )
        x = rng.standard_normal((batch, d, c_in))
        out = layer.forward(ad.Tensor(x))
        expected = loop_gcn(layer.adjacency.data, x, layer.weight.data,
                            layer.bias.data, activation)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_residual_adds_input(self):
        rng = np.random.default_rng(3)
        d, c = 4, 6
        layer = init_gcn_layer(rng, d, c, c, "tanh", residual=True, dropout=0.0)
        plain = GcnLayer(layer.adjacency, layer.weight, layer.bias, "tanh")
        x = ad.Tensor(rng.standard_normal((2, d, c)))
        np.testing.assert_allclose(layer.forward(x).data,
                                   plain.forward(x).data + x.data, atol=1e-15)

    def test_width_mismatch_raises(self):
        layer = init_gcn_layer(np.random.default_rng(0), 4, 3, 5, "tanh", False, 0.0)
        with pytest.raises(ad.ShapeError):
            layer.forward(ad.Tensor(np.zeros((1, 4, 7))))

    def test_init_adjacency_near_identity(self):
        layer = init_gcn_layer(np.random.default_rng(0), 8, 3, 3, "tanh", False, 0.0)
        assert np.abs(layer.adjacency.data - np.eye(8)).max() < 0.1
        np.testing.assert_array_equal(layer.bias.data, np.zeros(3))

    def test_gradients_reach_all_parameters(self):
        rng = np.random.default_rng(4)
        layer = init_gcn_layer(rng, 3, 4, 4, "tanh", residual=True, dropout=0.0)
        x = ad.Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        with ad.Tape():
            grads = ad.backward(ad.reduce_sum(layer.forward(x)))
        for name, p in layer.parameters().items():
            assert p in grads, name
            assert np.abs(grads[p].data).max() > 0, name


class TestDropout:
    def test_eval_mode_is_deterministic(self):
        rng = np.random.default_rng(0)
        layer = init_gcn_layer(rng, 4, 5, 5, "tanh", False, dropout=0.5)
        x = ad.Tensor(np.random.default_rng(1).standard_normal((2, 4, 5)))
        np.testing.assert_array_equal(layer.forward(x).data, layer.forward(x).data)

    def test_train_mode_zeroes_and_rescales(self):
        rng = np.random.default_rng(0)
        x = ad.Tensor(np.ones((100, 10)))
        out = apply_dropout(x, 0.3, rng).data
        dropped = out == 0.0
        assert 0.2 < dropped.mean() < 0.4
        np.testing.assert_allclose(out[~dropped], 1.0 / 0.7)

    def test_zero_rate_is_identity(self):
        x = ad.Tensor(np.ones((3, 3)))
        assert apply_dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_train_mode_without_rng_raises(self):
        layer = init_gcn_layer(np.random.default_rng(0), 3, 3, 3, "tanh", False, 0.5)
        with pytest.raises(ValueError, match="rng"):
            layer.forward(ad.Tensor(np.zeros((1, 3, 3))), train_mode=True)


class TestPoseCodec:
    def test_shapes_and_param_names(self):
        codec = init_pose_codec(np.random.default_rng(0), pose_dim=9, frames=8,
                                hidden=16, dropout=0.0)
        x = ad.Tensor(np.random.default_rng(1).standard_normal((2, 9, 8)))
        feats = codec.encode(x)
        assert feats.shape == (2, 9, 8)
        assert codec.decode(feats).shape == (2, 9, 8)
        names = set(codec.parameters())
        assert names == {f"{side}{i}/{leaf}"
                         for side in ("enc", "dec")
                         for i in range(3)
                         for leaf in ("adjacency", "weight", "bias")}

    def test_middle_layer_only_residual(self):
        codec = init_pose_codec(np.random.default_rng(0), 6, 10, hidden=12)
        for stack in (codec.encoder, codec.decoder):
            assert [layer.residual for layer in stack] == [False, True, False]
            assert [layer.activation for layer in stack] == ["tanh", "tanh", "none"]
            assert stack[2].dropout == 0.0

    def test_gradient_through_both_stacks(self):
        rng = np.random.default_rng(5)
        codec = init_pose_codec(rng, pose_dim=4, frames=6, hidden=8, dropout=0.0)
        x = ad.Tensor(rng.standard_normal((2, 4, 6)), requires_grad=True)
        w = rng.uniform(0.5, 1.5, (2, 4, 6))

        def f(t):
            return ad.reduce_sum(ad.mul(codec.decode(codec.encode(t)), ad.Tensor(w)))

        assert ad.finite_difference_check(f, x) < 1e-4
        with ad.Tape():
            grads = ad.backward(f(x))
        for name, p in codec.parameters().items():
            assert p in grads and np.isfinite(grads[p].data).all(), name
