"""Visual-embedding ingestion, projection, and sequence fusion.

Visual embeddings arrive precomputed in the VEMB container: an ASCII
header line ``VEMB <rows> <cols>\\n`` followed by rows*cols little-endian
float64 values in row-major order, read and written by the shared float64
file codec (``f64file``). The projected visual rows are concatenated ahead
of the speech tokens; the boundary index marks where speech begins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .f64file import read_f64_file, write_f64_file
from .tensor import Tensor, concat, matmul


@dataclass
class FusedSequence:
    """Projected visual rows stacked on top of speech tokens."""

    x: Tensor  # (visual rows + speech rows, width)
    boundary: int  # index of the first speech row


def _vemb_count(fields: tuple[int, ...]) -> int:
    rows, cols = fields
    if rows < 1 or cols < 1:
        raise ValueError(f"VEMB dimensions must be positive, got {rows}x{cols}")
    return rows * cols


def load_visual_embeddings(path) -> np.ndarray:
    """Read a VEMB file into an (M, C) float64 array."""
    (rows, cols), values = read_f64_file(path, "VEMB", _vemb_count)
    return values.reshape(rows, cols)


def save_visual_embeddings(path, z: np.ndarray) -> None:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise DimensionError(f"visual embeddings must be 2-d, got shape {z.shape}")
    write_f64_file(path, "VEMB", z.shape, z)


def project_visual(z, proj: Tensor, bias: Tensor) -> Tensor:
    """Map raw visual rows (M, C) into model width: z @ proj + bias."""
    zt = z if isinstance(z, Tensor) else Tensor(np.asarray(z, dtype=np.float64))
    if zt.ndim != 2 or zt.shape[1] != proj.shape[0]:
        raise DimensionError(
            f"visual width mismatch: embeddings {zt.shape} vs projection {proj.shape}"
        )
    return matmul(zt, proj) + bias


def fuse_concat(v: Tensor | None, s: Tensor) -> FusedSequence:
    """Concatenate visual rows (possibly none) ahead of the speech tokens."""
    if v is None or v.shape[0] == 0:
        return FusedSequence(x=s, boundary=0)
    if v.shape[1] != s.shape[1]:
        raise DimensionError(f"fuse width mismatch: visual {v.shape} vs speech {s.shape}")
    return FusedSequence(x=concat([v, s], axis=0), boundary=v.shape[0])

