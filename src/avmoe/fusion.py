"""The VEMB codec: visual embeddings, precomputed, one file per utterance.

A VEMB file is an ASCII header line ``VEMB <rows> <cols>\\n`` followed by
rows*cols little-endian float64 values in row-major order, read and written
by the shared float64 file codec (``f64file``). ``model.Model.fuse``
projects the rows and packs them ahead of the speech tokens.
"""

from __future__ import annotations

import numpy as np

from .f64file import read_f64_file, write_f64_file


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
    write_f64_file(path, "VEMB", z.shape, z)
