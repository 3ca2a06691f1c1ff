"""Dataset tests: binary container round trips, corruption detection, the
synthetic generator's kinematic guarantees, and batching."""

import struct

import numpy as np
import pytest

from motionmoe.data import (FORMAT_VERSION, MAGIC, DataError, GeneratorSpec,
                            MotionSequence, batch_iter, flatten_poses,
                            read_dataset, synth_generate, unflatten_poses,
                            with_crc, write_dataset)


def tiny_spec(**overrides):
    return GeneratorSpec(**{"sequences": 6, "persons": 2, "frames": 20,
                            "joints": 5, "fps": 25.0, "seed": 0, **overrides})


class TestContainer:
    def test_round_trip(self, tmp_path):
        seqs = synth_generate(tiny_spec())
        path = tmp_path / "motion.bin"
        write_dataset(seqs, path)
        back = read_dataset(path)
        assert len(back) == len(seqs)
        for a, b in zip(seqs, back):
            np.testing.assert_array_equal(a.positions, b.positions)
            assert a.fps == b.fps
            assert b.positions.dtype == np.float32

    def test_header_layout(self, tmp_path):
        seqs = synth_generate(tiny_spec(sequences=3))
        path = tmp_path / "motion.bin"
        write_dataset(seqs, path)
        raw = path.read_bytes()
        magic, version, s, m, t, j, fps, reserved = struct.unpack_from("<4sIIIIIfI", raw)
        assert (magic, version, s, m, t, j, reserved) == (MAGIC, FORMAT_VERSION, 3, 2, 20, 5, 0)
        assert fps == pytest.approx(25.0)
        assert len(raw) == 32 + 4 * 3 * 2 * 20 * 5 * 3 + 4  # header, payload, CRC32

    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.bin"
        write_dataset([], path)
        assert read_dataset(path) == []

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + bytes(28))
        with pytest.raises(DataError, match="magic"):
            read_dataset(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(struct.pack("<4sIIIIIfI", MAGIC, 99, 0, 0, 0, 0, 0.0, 0))
        with pytest.raises(DataError, match="version"):
            read_dataset(path)

    def test_truncated_payload(self, tmp_path):
        seqs = synth_generate(tiny_spec(sequences=2))
        path = tmp_path / "motion.bin"
        write_dataset(seqs, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError, match="truncated"):
            read_dataset(path)

    @pytest.mark.parametrize("offset", [32 + 4 * 17 + 1, 24], ids=["payload", "fps"])
    def test_flipped_byte_fails_the_checksum(self, tmp_path, offset):
        # a payload flip moves one coordinate by a fraction of a millimeter,
        # an fps flip turns 25.0 into 25.000002: both still parse
        path = tmp_path / "motion.bin"
        write_dataset(synth_generate(tiny_spec(sequences=2)), path)
        raw = bytearray(path.read_bytes())
        raw[offset] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="checksum"):
            read_dataset(path)

    @pytest.mark.parametrize("cut", [1, 4, 5])
    def test_cut_file_says_truncated(self, tmp_path, cut):
        path = tmp_path / "motion.bin"
        write_dataset(synth_generate(tiny_spec(sequences=2)), path)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(DataError, match="truncated"):
            read_dataset(path)

    def test_version_1_file_without_checksum_loads(self, tmp_path):
        positions = np.arange(2 * 3 * 2 * 3, dtype="<f4").reshape(1, 2, 3, 2, 3)
        path = tmp_path / "v1.bin"
        path.write_bytes(struct.pack("<4sIIIIIfI", MAGIC, 1, 1, 2, 3, 2, 25.0, 0)
                         + positions.tobytes())
        (seq,) = read_dataset(path)
        np.testing.assert_array_equal(seq.positions, positions[0])
        assert seq.fps == 25.0

    def test_short_file(self, tmp_path):
        path = tmp_path / "stub.bin"
        path.write_bytes(b"MM")
        with pytest.raises(DataError, match="short"):
            read_dataset(path)

    def test_nonfinite_payload(self, tmp_path):
        path = tmp_path / "nan.bin"
        header = struct.pack("<4sIIIIIfI", MAGIC, 1, 1, 1, 1, 1, 25.0, 0)
        payload = np.array([1.0, np.nan, 3.0], dtype="<f4").tobytes()
        path.write_bytes(header + payload)
        with pytest.raises(DataError, match="non-finite"):
            read_dataset(path)

    def test_mixed_shapes_rejected(self, tmp_path):
        a = MotionSequence(np.zeros((1, 4, 3, 3), dtype=np.float32), 25.0)
        b = MotionSequence(np.zeros((1, 5, 3, 3), dtype=np.float32), 25.0)
        with pytest.raises(DataError, match="differs"):
            write_dataset([a, b], tmp_path / "motion.bin")


class TestSequenceValidation:
    def test_shape_guard(self):
        with pytest.raises(DataError, match="persons, frames, joints"):
            MotionSequence(np.zeros((4, 3, 2), dtype=np.float32), 25.0)

    def test_nan_guard(self):
        bad = np.zeros((1, 2, 2, 3), dtype=np.float32)
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            MotionSequence(bad, 25.0)

    @pytest.mark.parametrize("shape", [(0, 4, 3, 3), (1, 0, 3, 3), (1, 4, 0, 3)],
                             ids=["persons", "frames", "joints"])
    def test_zero_length_axis_rejected(self, shape):
        with pytest.raises(DataError, match="at least one person, frame and joint"):
            MotionSequence(np.zeros(shape, dtype=np.float32), 25.0)

    @pytest.mark.parametrize("m, t, j", [(0, 4, 3), (1, 0, 3), (1, 4, 0)],
                             ids=["persons", "frames", "joints"])
    def test_file_with_a_zero_length_axis_rejected(self, tmp_path, m, t, j):
        path = tmp_path / "motion.bin"
        path.write_bytes(struct.pack("<4sIIIIIfI", MAGIC, 1, 2, m, t, j, 25.0, 0))
        with pytest.raises(DataError, match="at least one person, frame and joint"):
            read_dataset(path)

    @pytest.mark.parametrize("fps", [0.0, -25.0, float("nan"), float("inf"), float("-inf")])
    def test_fps_guard(self, fps):
        with pytest.raises(DataError, match="fps must be positive"):
            MotionSequence(np.zeros((1, 2, 2, 3), dtype=np.float32), fps)

    @pytest.mark.parametrize("fps", [float("nan"), float("inf")])
    def test_file_with_a_non_finite_fps_rejected(self, tmp_path, fps):
        # re-checksummed, so that only the fps is wrong
        path = tmp_path / "motion.bin"
        write_dataset(synth_generate(tiny_spec(sequences=2)), path)
        raw = path.read_bytes()[:-4]
        path.write_bytes(b"".join(with_crc([raw[:24], struct.pack("<f", fps), raw[28:]])))
        with pytest.raises(DataError, match="fps must be positive"):
            read_dataset(path)


class TestGenerator:
    def test_deterministic_under_seed(self):
        a = synth_generate(tiny_spec(seed=3))
        b = synth_generate(tiny_spec(seed=3))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.positions, y.positions)
        c = synth_generate(tiny_spec(seed=4))
        assert any(np.abs(x.positions - y.positions).max() > 0
                   for x, y in zip(a, c))

    def test_shapes_and_units(self):
        seqs = synth_generate(tiny_spec())
        assert len(seqs) == 6
        for seq in seqs:
            assert seq.positions.shape == (2, 20, 5, 3)
            assert seq.positions.dtype == np.float32
        spread = np.concatenate([s.positions.reshape(-1, 3) for s in seqs])
        # mm scale: coordinates live in the hundreds-to-thousands range
        assert np.abs(spread).max() > 100.0

    def test_joints_stay_inside_bone_envelope(self):
        spec = tiny_spec(sequences=8)
        for seq in synth_generate(spec):
            root = seq.positions[:, :, :1, :]
            radii = np.linalg.norm(seq.positions - root, axis=-1)
            assert radii.max() <= spec.bone_envelope + 1e-3

    def test_stop_go_freezes_root(self):
        spec = tiny_spec(sequences=4, persons=1, mix={"stop_go": 1.0})
        for seq in synth_generate(spec):
            root = seq.positions[0, :, 0, :]
            steps = np.linalg.norm(np.diff(root, axis=0), axis=-1)
            moving = steps > 1e-6
            # motion happens first, then a frozen tail with exact copies
            assert moving[0] and not moving[-1]
            tail = np.flatnonzero(~moving)[0]
            assert not moving[tail:].any()

    def test_walk_root_is_straight_constant_speed(self):
        spec = tiny_spec(sequences=3, persons=1, mix={"walk": 1.0})
        for seq in synth_generate(spec):
            root = seq.positions[0, :, 0, :].astype(np.float64)
            steps = np.diff(root, axis=0)
            # all displacement vectors equal the first one
            assert np.abs(steps - steps[0]).max() < spec.scale * 1e-3

    def test_mix_validation(self):
        with pytest.raises(DataError, match="unknown motion"):
            tiny_spec(mix={"moonwalk": 1.0})
        with pytest.raises(DataError, match="positive weight"):
            tiny_spec(mix={"walk": 0.0})

    def test_spec_validation(self):
        with pytest.raises(DataError):
            tiny_spec(sequences=-1)
        with pytest.raises(DataError):
            tiny_spec(scale=0.0)


class TestPoseLayout:
    def test_flatten_is_joint_major(self):
        positions = np.arange(2 * 4 * 3 * 3, dtype=np.float64).reshape(2, 4, 3, 3)
        flat = flatten_poses(positions)
        assert flat.shape == (2, 9, 4)
        # row j*3+c holds joint j, coordinate c across frames
        np.testing.assert_array_equal(flat[1, 5], positions[1, :, 1, 2])

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        positions = rng.standard_normal((3, 7, 5, 3))
        np.testing.assert_array_equal(unflatten_poses(flatten_poses(positions)),
                                      positions)

    def test_unflatten_rejects_bad_width(self):
        with pytest.raises(DataError, match="multiple of 3"):
            unflatten_poses(np.zeros((1, 10, 4)))


class TestBatching:
    def test_shapes_and_final_short_batch(self):
        seqs = synth_generate(tiny_spec(sequences=5, persons=2))
        batches = list(batch_iter(seqs, batch_size=2, history_frames=12, total_frames=20))
        assert [h.shape[0] for h, _ in batches] == [4, 4, 2]
        for history, target in batches:
            assert history.shape[1:] == (15, 12)
            assert target.shape[1:] == (15, 20)
            assert history.dtype == np.float64
            np.testing.assert_array_equal(history, target[:, :, :12])

    def test_file_order_without_seed(self):
        seqs = synth_generate(tiny_spec(sequences=4, persons=1))
        (h, _), = list(batch_iter(seqs, 4, 12, 20))[:1]
        expected = flatten_poses(seqs[0].positions.astype(np.float64))[:, :, :12]
        np.testing.assert_array_equal(h[:1], expected)

    def test_shuffle_is_seeded_permutation(self):
        seqs = synth_generate(tiny_spec(sequences=6, persons=1))
        a = np.concatenate([h for h, _ in batch_iter(seqs, 2, 12, 20, shuffle_seed=5)])
        b = np.concatenate([h for h, _ in batch_iter(seqs, 2, 12, 20, shuffle_seed=5)])
        c = np.concatenate([h for h, _ in batch_iter(seqs, 2, 12, 20, shuffle_seed=6)])
        np.testing.assert_array_equal(a, b)
        assert np.abs(a - c).max() > 0
        base = np.concatenate([h for h, _ in batch_iter(seqs, 2, 12, 20)])
        np.testing.assert_array_equal(np.sort(a.ravel()), np.sort(base.ravel()))

    def test_window_validation(self):
        seqs = synth_generate(tiny_spec(sequences=2))
        with pytest.raises(DataError, match="history_frames"):
            list(batch_iter(seqs, 1, 20, 20))
        with pytest.raises(DataError, match="needs >="):
            list(batch_iter(seqs, 1, 12, 21))
        with pytest.raises(DataError, match="batch_size"):
            list(batch_iter(seqs, 0, 12, 20))
