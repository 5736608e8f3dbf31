"""Visual embedding IO, and the projection and packing that ``Model.fuse`` does."""

import numpy as np
import pytest

from avmoe.errors import DataError, IngestError
from avmoe.fusion import load_visual_embeddings, save_visual_embeddings
from avmoe.tensor import Tensor, tsum

from helpers import check_grad, fuse_model


class TestVembIO:
    def test_roundtrip_bit_exact(self, tmp_path):
        z = np.random.default_rng(0).normal(size=(4, 16))
        path = tmp_path / "z.vemb"
        save_visual_embeddings(path, z)
        np.testing.assert_array_equal(load_visual_embeddings(path), z)

    def test_golden_bytes_row_major(self, tmp_path):
        path = tmp_path / "z.vemb"
        save_visual_embeddings(path, np.array([[1.0, 2.0], [-0.5, 0.25]]))
        assert path.read_bytes() == (
            b"VEMB 2 2\n"
            + bytes.fromhex("000000000000f03f")  # 1.0
            + bytes.fromhex("0000000000000040")  # 2.0
            + bytes.fromhex("000000000000e0bf")  # -0.5
            + bytes.fromhex("000000000000d03f")  # 0.25
        )

    def test_header_dimensions_respected(self, tmp_path):
        path = tmp_path / "z.vemb"
        payload = np.arange(64.0).astype("<f8").tobytes()
        path.write_bytes(b"VEMB 4 16\n" + payload)
        z = load_visual_embeddings(path)
        assert z.shape == (4, 16)
        np.testing.assert_array_equal(z.reshape(-1), np.arange(64.0))

    def test_truncated_payload_names_counts(self, tmp_path):
        path = tmp_path / "z.vemb"
        path.write_bytes(b"VEMB 4 16\n" + b"\x00" * (8 * 60))
        with pytest.raises(IngestError, match="expected 64 values.*got 60"):
            load_visual_embeddings(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "z.vemb"
        path.write_bytes(b"WRONG 4 16\n" + b"\x00" * 8)
        with pytest.raises(IngestError, match="byte offset 0"):
            load_visual_embeddings(path)

    def test_non_finite_value_names_byte_offset(self, tmp_path):
        z = np.zeros((2, 3))
        z[1, 0] = np.nan  # flat index 3
        path = tmp_path / "z.vemb"
        header = b"VEMB 2 3\n"
        path.write_bytes(header + z.astype("<f8").tobytes())
        expected_offset = len(header) + 3 * 8
        with pytest.raises(IngestError, match=f"byte offset {expected_offset}"):
            load_visual_embeddings(path)


class TestProjection:
    """Visual rows to model width: ``Model.fuse`` maps them by z @ visual_proj + visual_bias."""

    def test_identity_projection_keeps_rows(self):
        z = np.random.default_rng(1).normal(size=(4, 5))
        model = fuse_model(2, 1, 5, 5)
        model.visual_proj.data = np.eye(5)
        fused = model.fuse([np.zeros((3, 2))], [z])
        np.testing.assert_array_equal(fused.x.data[:4], z)

    def test_zero_input_gives_bias_rows(self):
        bias = np.array([1.0, -2.0, 0.5])
        model = fuse_model(2, 1, 4, 3)
        model.visual_bias.data = bias
        fused = model.fuse([np.zeros((3, 2))], [np.zeros((3, 4))])
        np.testing.assert_array_equal(fused.x.data[:3], np.tile(bias, (3, 1)))

    def test_width_mismatch(self):
        # A data error: the CLI exits 3.
        with pytest.raises(DataError, match=r"visual width mismatch: embeddings \(2, 5\)"):
            fuse_model(2, 1, 4, 3).fuse([np.zeros((3, 2))], [np.zeros((2, 5))])

    def test_gradient_wrt_projection(self):
        rng = np.random.default_rng(2)
        mels = [rng.normal(size=(3, 2)), rng.normal(size=(2, 2))]
        visuals = [rng.normal(size=(3, 4)), None]
        model = fuse_model(2, 2, 4, 6)
        weights = Tensor(rng.normal(size=(3 + 2 + 1, 6)))
        params = [model.input_proj, model.visual_proj, model.visual_bias]
        check_grad(lambda: tsum(model.fuse(mels, visuals).x * weights), params, tol=1e-5)


class TestFusion:
    """``Model.fuse`` packs each utterance's visual rows ahead of its speech tokens."""

    def test_visual_first_with_boundary(self):
        fused = fuse_model(2, 1, 3, 8).fuse([np.zeros((10, 2))], [np.ones((4, 3))])
        assert fused.x.shape == (14, 8)
        assert fused.boundary.tolist() == [4]
        assert fused.segments.lengths.tolist() == [14]

    def test_empty_visual_is_identity_on_speech(self):
        mel = np.random.default_rng(3).normal(size=(6, 2))
        model = fuse_model(2, 1, 3, 8)
        for visual in (None, np.zeros((0, 3))):
            fused = model.fuse([mel], [visual])
            assert fused.boundary.tolist() == [0]
            np.testing.assert_array_equal(fused.x.data, mel @ model.input_proj.data)

    def test_packs_each_utterance_visual_rows_first(self):
        # Four utterances: 2 visual rows, none, 0 rows and 1 row, ahead of 2, 1, 1 and
        # 2 speech tokens. A speech token is two frames; a visual row is [z, 100].
        model = fuse_model(1, 2, 1, 2)
        model.input_proj.data = np.eye(2)
        model.visual_proj.data = np.array([[1.0, 0.0]])
        model.visual_bias.data = np.array([0.0, 100.0])
        mels = [np.array([[10.0], [11.0], [12.0]]), np.array([[20.0], [21.0]]),
                np.array([[30.0]]), np.array([[40.0], [41.0], [42.0], [43.0]])]
        visuals = [np.array([[1.0], [2.0]]), None, np.zeros((0, 1)), np.array([[3.0]])]
        fused = model.fuse(mels, visuals)
        np.testing.assert_array_equal(fused.x.data, [
            [1, 100], [2, 100], [10, 11], [12, 0],
            [20, 21],
            [30, 0],
            [3, 100], [40, 41], [42, 43],
        ])
        np.testing.assert_array_equal(fused.segments.lengths, [4, 1, 1, 3])
        np.testing.assert_array_equal(fused.boundary, [2, 0, 0, 1])
        # Each row's gradient reaches the projection of its own source row.
        tsum(fused.x * Tensor(np.arange(9.0)[:, None] * [1.0, 0.0])).backward()
        np.testing.assert_array_equal(model.visual_bias.grad, [0 + 1 + 6, 0])
        np.testing.assert_array_equal(model.visual_proj.grad, [[1 * 0 + 2 * 1 + 3 * 6, 0]])
        np.testing.assert_array_equal(model.input_proj.grad, [
            [10 * 2 + 12 * 3 + 20 * 4 + 30 * 5 + 40 * 7 + 42 * 8, 0],
            [11 * 2 + 0 * 3 + 21 * 4 + 0 * 5 + 41 * 7 + 43 * 8, 0],
        ])

    def test_counts_must_split_the_rows(self):
        # One visual input per spectrogram.
        model = fuse_model(2, 1, 3, 4)
        with pytest.raises(DataError, match="2 spectrograms and 1 visual inputs"):
            model.fuse([np.zeros((3, 2))] * 2, [None])
        with pytest.raises(DataError, match="0 spectrograms and 0 visual inputs"):
            model.fuse([], [])

    def test_width_mismatch(self):
        # Visual rows must be a 2-d (rows, visual_dim) array.
        with pytest.raises(DataError, match=r"visual width mismatch: embeddings \(3,\)"):
            fuse_model(2, 1, 3, 4).fuse([np.zeros((3, 2))], [np.zeros(3)])
