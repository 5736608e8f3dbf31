"""Visual embedding IO, projection, and sequence fusion."""

import numpy as np
import pytest

from avmoe.errors import DimensionError, IngestError
from avmoe.fusion import (
    FusedSequence,
    fuse_concat,
    load_visual_embeddings,
    project_visual,
    save_visual_embeddings,
)
from avmoe.tensor import Tensor

from helpers import check_grad


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
    def test_identity_projection_keeps_rows(self):
        z = np.random.default_rng(1).normal(size=(4, 5))
        v = project_visual(z, Tensor(np.eye(5)), Tensor(np.zeros(5)))
        np.testing.assert_array_equal(v.data, z)

    def test_zero_input_gives_bias_rows(self):
        bias = np.array([1.0, -2.0, 0.5])
        v = project_visual(np.zeros((3, 4)), Tensor(np.zeros((4, 3))), Tensor(bias))
        np.testing.assert_array_equal(v.data, np.tile(bias, (3, 1)))

    def test_width_mismatch(self):
        with pytest.raises(DimensionError):
            project_visual(np.zeros((2, 4)), Tensor(np.zeros((5, 3))), Tensor(np.zeros(3)))

    def test_gradient_wrt_projection(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(3, 4))
        proj = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        bias = Tensor(rng.normal(size=6), requires_grad=True)
        weights = Tensor(rng.normal(size=(3, 6)))
        check_grad(lambda: (project_visual(z, proj, bias) * weights).sum(), [proj, bias], tol=1e-5)


class TestFusion:
    def test_visual_first_with_boundary(self):
        v = Tensor(np.ones((4, 8)))
        s = Tensor(np.zeros((10, 8)))
        fused = fuse_concat(v, s)
        assert fused.x.shape == (14, 8)
        assert fused.boundary.tolist() == [4]

    def test_empty_visual_is_identity_on_speech(self):
        s = Tensor(np.random.default_rng(3).normal(size=(6, 8)))
        for v in (None, Tensor(np.zeros((0, 8)))):
            fused = fuse_concat(v, s)
            assert fused.boundary.tolist() == [0]
            np.testing.assert_array_equal(fused.x.data, s.data)

    def test_packs_each_utterance_visual_rows_first(self):
        # Three utterances: 2 visual + 3 speech rows, 0 + 2, 1 + 1.
        v = Tensor(np.array([[1.0], [2.0], [3.0]]), requires_grad=True)
        s = Tensor(np.array([[10.0], [11.0], [12.0], [20.0], [21.0], [30.0]]), requires_grad=True)
        fused = fuse_concat(v, s, [2, 0, 1], [3, 2, 1])
        np.testing.assert_array_equal(
            fused.x.data[:, 0], [1.0, 2.0, 10.0, 11.0, 12.0, 20.0, 21.0, 3.0, 30.0]
        )
        np.testing.assert_array_equal(fused.segments.lengths, [5, 2, 2])
        np.testing.assert_array_equal(fused.boundary, [2, 0, 1])
        (fused.x * Tensor(np.arange(9.0)[:, None])).sum().backward()
        np.testing.assert_array_equal(v.grad[:, 0], [0.0, 1.0, 7.0])
        np.testing.assert_array_equal(s.grad[:, 0], [2.0, 3.0, 4.0, 5.0, 6.0, 8.0])

    def test_counts_must_split_the_rows(self):
        with pytest.raises(DimensionError):
            fuse_concat(Tensor(np.zeros((3, 2))), Tensor(np.zeros((4, 2))), [1, 1], [2, 2])

    def test_width_mismatch(self):
        with pytest.raises(DimensionError):
            fuse_concat(Tensor(np.zeros((2, 4))), Tensor(np.zeros((5, 8))))
