"""Visual-embedding ingestion, projection, and sequence fusion.

Visual embeddings arrive precomputed in the VEMB container: an ASCII
header line ``VEMB <rows> <cols>\\n`` followed by rows*cols little-endian
float64 values in row-major order, read and written by the shared float64
file codec (``f64file``). The projected visual rows are concatenated ahead
of the speech tokens; the boundary index marks where speech begins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError
from .f64file import read_f64_file, write_f64_file
from .nn import Segments
from .tensor import Tensor, affine, concat, gather_rows


@dataclass
class FusedSequence:
    """A batch of utterances packed along axis 0, each its visual rows then its speech tokens."""

    x: Tensor  # (total rows, width)
    segments: Segments  # the rows of each utterance
    boundary: np.ndarray  # per utterance, the position of its first speech row within its rows


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


def project_visual(z: np.ndarray, proj: Tensor, bias: Tensor) -> Tensor:
    """Map raw visual rows (M, C) into model width: z @ proj + bias."""
    return affine(Tensor(z), proj, bias)


def fuse_concat(
    v: Tensor | None,
    s: Tensor,
    visual_counts: Sequence[int] | None = None,
    speech_counts: Sequence[int] | None = None,
) -> FusedSequence:
    """Pack each utterance's visual rows (possibly none) ahead of its speech tokens.

    ``v`` holds the visual rows of all utterances one after another and
    ``s`` their speech tokens; ``visual_counts`` and ``speech_counts`` give
    each utterance's share, and default to one utterance.
    """
    visual_total = 0 if v is None else v.shape[0]
    visual_counts = np.asarray(
        [visual_total] if visual_counts is None else visual_counts, dtype=np.int64
    )
    speech_counts = np.asarray(
        [s.shape[0]] if speech_counts is None else speech_counts, dtype=np.int64
    )
    if (
        visual_counts.shape != speech_counts.shape
        or visual_counts.sum() != visual_total
        or speech_counts.sum() != s.shape[0]
    ):
        raise DimensionError(
            f"fuse counts {visual_counts.tolist()} / {speech_counts.tolist()} do not split "
            f"{visual_total} visual and {s.shape[0]} speech rows"
        )
    segments = Segments(visual_counts + speech_counts)
    if visual_total == 0:
        return FusedSequence(x=s, segments=segments, boundary=visual_counts)
    if v.shape[1] != s.shape[1]:
        raise DimensionError(f"fuse width mismatch: visual {v.shape} vs speech {s.shape}")
    # Source row of each packed row, in concat([v, s]).
    seg, pos = segments.index, segments.positions
    visual_start = np.cumsum(visual_counts) - visual_counts
    speech_start = np.cumsum(speech_counts) - speech_counts
    order = np.where(
        pos < visual_counts[seg],
        visual_start[seg] + pos,
        visual_total + speech_start[seg] + pos - visual_counts[seg],
    )
    x = gather_rows(concat([v, s], axis=0), order)
    return FusedSequence(x=x, segments=segments, boundary=visual_counts)
