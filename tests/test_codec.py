"""Codec tests: last-frame padding semantics, a loop oracle for the
graph-convolution layer and, built from it, for the codec's recipe, dropout
behavior, and gradient flow."""

import numpy as np
import pytest

from motionmoe import autodiff as ad
from motionmoe.codec import (GcnLayer, apply_dropout,
                             init_gcn_layer, init_pose_codec, padding_matrix)


def loop_gcn(a, x, w, b):
    """y[s, i, o] = sum_{j,c} A[i,j] x[s,j,c] W[c,o] + b[o]."""
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
    return out


def loop_codec(layers, x, masks=(1.0, 1.0)):
    """The recipe over ``loop_gcn``: tanh of the first layer times its
    dropout mask; tanh of the middle layer times its mask, plus the middle
    layer's input; the last layer, linear."""
    def affine(layer, h):
        return loop_gcn(layer.adjacency.data, h, layer.weight.data, layer.bias.data)

    first, middle, last = layers
    h = np.tanh(affine(first, x)) * masks[0]
    h = np.tanh(affine(middle, h)) * masks[1] + h
    return affine(last, h)


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
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        batch, d, c_in, c_out = 2, 4, 3, 5
        layer = GcnLayer(
            adjacency=ad.Tensor(rng.standard_normal((d, d))),
            weight=ad.Tensor(rng.standard_normal((c_in, c_out))),
            bias=ad.Tensor(rng.standard_normal(c_out)),
        )
        x = rng.standard_normal((batch, d, c_in))
        out = layer.forward(ad.Tensor(x))
        expected = loop_gcn(layer.adjacency.data, x, layer.weight.data, layer.bias.data)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_width_mismatch_raises(self):
        layer = init_gcn_layer(np.random.default_rng(0), 4, 3, 5)
        with pytest.raises(ad.ShapeError, match="input width 7 != weight rows 3"):
            layer.forward(ad.Tensor(np.zeros((1, 4, 7))))
        with pytest.raises(ad.ShapeError, match="expected \\(batch, 4, C_in\\)"):
            layer.forward(ad.Tensor(np.zeros((1, 5, 3))))

    def test_init_adjacency_near_identity(self):
        layer = init_gcn_layer(np.random.default_rng(0), 8, 3, 3)
        assert np.abs(layer.adjacency.data - np.eye(8)).max() < 0.1
        np.testing.assert_array_equal(layer.bias.data, np.zeros(3))

    def test_gradients_reach_all_parameters(self):
        rng = np.random.default_rng(4)
        layer = init_gcn_layer(rng, 3, 4, 4)
        x = ad.Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        with ad.Tape():
            grads = ad.backward(ad.reduce_sum(ad.tanh(layer.forward(x))))
        for name, p in layer.parameters().items():
            assert p in grads, name
            assert np.abs(grads[p].data).max() > 0, name


class TestDropout:
    def test_train_mode_zeroes_and_rescales(self):
        rng = np.random.default_rng(0)
        x = ad.Tensor(np.ones((100, 10)))
        out = apply_dropout(x, 0.3, rng).data
        dropped = out == 0.0
        assert 0.2 < dropped.mean() < 0.4
        np.testing.assert_allclose(out[~dropped], 1.0 / 0.7)

    def test_eval_mode_is_deterministic(self):
        codec = init_pose_codec(np.random.default_rng(0), 4, 5, hidden=6, dropout=0.5)
        x = ad.Tensor(np.random.default_rng(1).standard_normal((2, 4, 5)))
        for run in (codec.encode, codec.decode):
            np.testing.assert_array_equal(run(x).data, run(x).data)
            np.testing.assert_array_equal(run(x).data, run(x, train_mode=False,
                                                            rng=np.random.default_rng(2)).data)

    def test_train_mode_without_rng_raises(self):
        codec = init_pose_codec(np.random.default_rng(0), 3, 3, hidden=3, dropout=0.5)
        x = ad.Tensor(np.zeros((1, 3, 3)))
        for run in (codec.encode, codec.decode):
            with pytest.raises(ValueError, match="rng"):
                run(x, train_mode=True)

    def test_zero_rate_is_identity(self):
        # a rate of 0 draws nothing, so train mode is eval mode
        codec = init_pose_codec(np.random.default_rng(0), 4, 5, hidden=6, dropout=0.0)
        x = ad.Tensor(np.random.default_rng(1).standard_normal((2, 4, 5)))
        rng = np.random.default_rng(2)
        for run in (codec.encode, codec.decode):
            np.testing.assert_array_equal(run(x, train_mode=True, rng=rng).data, run(x).data)
        assert rng.random() == np.random.default_rng(2).random()

    @pytest.mark.parametrize("side", ["enc", "dec"])
    def test_train_mode_draws_a_mask_per_hidden_layer_in_order(self, side):
        rate, d, frames, hidden = 0.4, 4, 5, 6
        codec = init_pose_codec(np.random.default_rng(0), d, frames, hidden, dropout=rate)
        x = np.random.default_rng(1).standard_normal((2, d, frames))
        run = codec.encode if side == "enc" else codec.decode
        out = run(ad.Tensor(x), train_mode=True, rng=np.random.default_rng(2)).data
        draws = np.random.default_rng(2)
        masks = [(draws.random((2, d, hidden)) >= rate) / (1.0 - rate) for _ in range(2)]
        np.testing.assert_allclose(out, loop_codec(getattr(codec, side), x, masks), atol=1e-12)


class TestPoseCodec:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_encode_and_decode_match_the_oracle(self, seed):
        rng = np.random.default_rng(seed)
        codec = init_pose_codec(rng, pose_dim=5, frames=7, hidden=4, dropout=0.3)
        x = rng.standard_normal((2, 5, 7))
        np.testing.assert_allclose(codec.encode(ad.Tensor(x)).data,
                                   loop_codec(codec.enc, x), atol=1e-12)
        np.testing.assert_allclose(codec.decode(ad.Tensor(x)).data,
                                   loop_codec(codec.dec, x), atol=1e-12)

    def test_shapes_and_param_names(self):
        codec = init_pose_codec(np.random.default_rng(0), pose_dim=9, frames=8,
                                hidden=16, dropout=0.0)
        x = ad.Tensor(np.random.default_rng(1).standard_normal((2, 9, 8)))
        feats = codec.encode(x)
        assert feats.shape == (2, 9, 8)
        assert codec.decode(feats).shape == (2, 9, 8)
        assert list(codec.parameters()) == [f"{side}{i}/{leaf}"
                                            for side in ("enc", "dec")
                                            for i in range(3)
                                            for leaf in ("adjacency", "weight", "bias")]

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
