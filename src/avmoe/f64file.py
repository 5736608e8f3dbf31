"""The float64 file codec: one ASCII header line, then little-endian doubles.

Layout:

    <magic> <int> <int> ...\\n
    <little-endian float64 payload>

F64LE audio (``frontend``) and VEMB visual embeddings (``fusion``) are both
this layout; each format checks only its own header fields. Checkpoints have
their own sectioned, CRC-checked layout (``checkpoint``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import IngestError, open_input


def read_f64_file(
    path, magic: str, count: Callable[[tuple[int, ...]], int]
) -> tuple[tuple[int, ...], np.ndarray]:
    """Read a ``magic`` file; return its integer header fields and its values.

    ``count`` maps the header fields to the number of values in the payload,
    and raises ValueError for fields that its format rejects. A missing or
    unreadable file is refused by ``errors.open_input``; every other failure
    is an IngestError that names a byte offset.
    """
    with open_input(path, f"{magic} file") as f:
        blob = f.read()
    newline = blob.find(b"\n")
    if newline < 0:
        raise IngestError(f"{path}: missing {magic} header line (byte offset 0)")
    header = blob[:newline].decode("ascii", errors="replace").split()
    if not header or header[0] != magic:
        raise IngestError(f"{path}: bad {magic} header {header!r} (byte offset 0)")
    try:
        fields = tuple(int(f) for f in header[1:])
        expected = count(fields)
    except ValueError as exc:
        raise IngestError(f"{path}: bad {magic} header {header!r}: {exc} (byte offset 0)") from exc
    payload = blob[newline + 1 :]
    if len(payload) != 8 * expected:
        raise IngestError(
            f"{path}: expected {expected} values ({8 * expected} bytes), got "
            f"{len(payload) // 8} ({len(payload)} bytes); the file ends at byte offset {len(blob)}"
        )
    values = np.frombuffer(payload, dtype="<f8")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        offset = newline + 1 + 8 * int(bad[0])
        raise IngestError(f"{path}: non-finite value at byte offset {offset}")
    return fields, values.copy()


def write_f64_file(path, magic: str, fields: Sequence[int], values: np.ndarray) -> None:
    """Write ``values`` (row-major) under the header ``<magic> <fields>``."""
    header = " ".join([magic, *(str(f) for f in fields)]) + "\n"
    Path(path).write_bytes(header.encode("ascii") + np.asarray(values, dtype="<f8").tobytes())
