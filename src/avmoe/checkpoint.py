"""Versioned binary checkpoints: one checksummed JSON header, then the tensors.

Layout:

    EVACKPT3 <header bytes> <crc32>\\n    (both ASCII decimal; the crc32 is of the header)
    {"config": {...}, "tensors": [[<name>, [<d0>, <d1>, ...], <crc32>], ...]}
    <raw little-endian float64 payload>

The config holds plain JSON values. Each tensor occupies ``8 * d0 * d1 * ...``
bytes of the payload, in header order, so its offset is the sum of the sizes
before it and the sizes add up to exactly the payload. The save streams the
header and then each array's own buffer to a sibling temp file and moves it
onto ``path`` with ``os.replace``, so a save that fails part way leaves the
previous file at ``path`` intact.

The load has two steps, so that a caller reads only the tensors it uses:

- ``load_checkpoint`` reads the header and no payload. It checks the magic,
  refuses a header length that does not fit in the file (from ``fstat``)
  before reading it, checks the header's CRC32, and then the structure the
  standard library's JSON parser returns: a ``config`` object, and a
  ``tensors`` list of ``[name, dims, crc32]`` entries with unique names,
  non-negative integer dims and a CRC32 below 2**32, whose sizes add up to
  the payload length. Every fault is a ``CheckpointError``.
- ``Checkpoint.read(prefix)`` reads the byte range that covers the tensors
  whose names start with ``prefix``, in one read, and checks each one's
  CRC32. It refuses a file whose inode, size or mtime changed after the
  header step. Every call reads into a fresh buffer that belongs to the
  caller alone, and each tensor is a writable, aligned view into it: a
  restored model's parameters and Adam moments are those views, with no copy.

The trade: ``train.restore_model`` (``avmoe eval`` and ``decode``) reads and
verifies only the ``model.*`` tensors, a third of a training checkpoint, so
it does not notice a corrupted Adam moment. ``train.restore_train_state``
(``avmoe train --resume``) reads and verifies every tensor.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from .errors import CheckpointError

MAGIC = b"EVACKPT3"
FIRST_LINE_MAX = 64  # bytes; the magic and two decimal numbers need at most 40


class TensorEntry(NamedTuple):
    """One tensor of the header, with its offset derived from the ones before it."""

    shape: tuple[int, ...]
    offset: int  # into the payload
    nbytes: int
    crc32: int


@dataclass
class Checkpoint:
    """A checkpoint's verified header; ``read`` loads and verifies its tensors."""

    path: Path
    config: dict[str, Any]
    entries: dict[str, TensorEntry]
    data_start: int  # file offset of the payload
    stamp: tuple[int, int, int]  # (st_ino, st_size, st_mtime_ns) when the header was read

    def read(self, prefix: str = "") -> dict[str, np.ndarray]:
        """The tensors whose names start with ``prefix``, each checked against its CRC32.

        One ``readinto`` fills a fresh float64 buffer, which starts on a 64-byte
        cache line, with the byte range that covers them, and each is a
        writable view into it. The caller owns that buffer: no other read or
        cache holds it. On Linux numpy asks the kernel to back a large
        ``np.empty`` with huge pages, so the read takes far fewer page faults
        than ``read_bytes`` does.
        """
        chosen = {name: e for name, e in self.entries.items() if name.startswith(prefix)}
        if not chosen:
            return {}
        # Offsets are multiples of 8: each is a sum of tensor sizes of 8 bytes a value.
        low = min(e.offset for e in chosen.values())
        size = (max(e.offset + e.nbytes for e in chosen.values()) - low) // 8
        raw = np.empty(size + 7, "<f8")
        skip = -raw.ctypes.data % 64 // 8  # decode ran 2-4% slower on 16-byte-aligned weights
        buf = raw[skip : skip + size]
        try:
            with self.path.open("rb", buffering=0) as f:
                stamp = _stamp(os.fstat(f.fileno()))
                f.seek(self.data_start + low)
                count = f.readinto(buf)
        except OSError as exc:
            raise CheckpointError(
                f"{self.path}: cannot read the checkpoint: {exc.strerror}"
            ) from exc
        if stamp != self.stamp or count != buf.nbytes:
            raise CheckpointError(f"{self.path}: the file changed after its header was read")
        tensors = {}
        for name, e in chosen.items():
            start = (e.offset - low) // 8
            flat = buf[start : start + e.nbytes // 8]
            if zlib.crc32(flat) != e.crc32:
                raise CheckpointError(f"{self.path}: checksum failure for tensor {name!r}")
            try:
                tensors[name] = flat.reshape(e.shape)
            except ValueError as exc:  # over 64 dims, or a dim too large beside a zero
                raise CheckpointError(f"{self.path}: tensor {name!r}: {exc}") from exc
        return tensors


def save_checkpoint(path, config: dict[str, Any], tensors: dict[str, np.ndarray]) -> None:
    """Write ``config`` (JSON values) and ``tensors``, in the order given, to ``path``.

    The bytes depend only on the arguments: keys are sorted and separators fixed.
    """
    # A no-op for live float64 parameters; unlike ascontiguousarray it keeps 0-d arrays 0-d.
    arrays = [np.require(array, "<f8", "C") for array in tensors.values()]
    listed = [[name, list(arr.shape), zlib.crc32(arr)] for name, arr in zip(tensors, arrays)]
    header = json.dumps(
        {"config": config, "tensors": listed}, sort_keys=True, separators=(",", ":")
    ).encode("ascii")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as f:
            f.write(b"%s %d %d\n" % (MAGIC, len(header), zlib.crc32(header)))
            f.write(header)
            for arr in arrays:
                f.write(arr)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> Checkpoint:
    """Read and verify a checkpoint's header. No tensor is read: ``Checkpoint.read`` does that."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
        with path.open("rb", buffering=0) as f:
            stat = os.fstat(f.fileno())
            line, newline, _ = f.read(FIRST_LINE_MAX).partition(b"\n")
            fields = line.split(b" ")
            if fields[0] != MAGIC:
                raise CheckpointError(
                    f"{path}: bad magic {line[:8]!r}; this reader understands {MAGIC.decode()} only"
                )
            # bytes.isdigit is true for ASCII digits only.
            if not (newline and len(fields) == 3 and fields[1].isdigit() and fields[2].isdigit()):
                raise CheckpointError(
                    f"{path}: bad first line {line!r}, not '{MAGIC.decode()} <length> <crc32>'"
                )
            header_start, length = len(line) + 1, int(fields[1])
            data_start = header_start + length
            if data_start > stat.st_size:
                raise CheckpointError(
                    f"{path}: a header of {length} bytes does not fit in a file of "
                    f"{stat.st_size} bytes"
                )
            f.seek(header_start)
            header = f.read(length)
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read the checkpoint: {exc.strerror}") from exc
    if len(header) != length or zlib.crc32(header) != int(fields[2]):
        raise CheckpointError(f"{path}: checksum failure for the header")
    try:
        doc = json.loads(header, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # ValueError covers bad UTF-8 and bad JSON
        raise CheckpointError(f"{path}: unreadable header: {exc}") from exc
    if not (
        isinstance(doc, dict) and doc.keys() == {"config", "tensors"}
        and isinstance(doc["config"], dict) and isinstance(doc["tensors"], list)
    ):
        raise CheckpointError(f"{path}: the header is not a config object and a tensors list")

    payload_len = stat.st_size - data_start
    entries: dict[str, TensorEntry] = {}
    end = 0  # of the tensors so far, where the next one starts
    for item in doc["tensors"]:
        if not (isinstance(item, list) and len(item) == 3 and isinstance(item[0], str)):
            raise CheckpointError(
                f"{path}: tensor entry {len(entries)} is not a [name, dims, crc32] list"
            )
        name, dims, crc = item
        if name in entries:
            raise CheckpointError(f"{path}: tensor {name!r} appears twice")
        # JSON numbers parse as int or float, and true and false as bool, a subclass of int.
        if not (isinstance(dims, list) and all(type(d) is int and d >= 0 for d in dims)):
            raise CheckpointError(
                f"{path}: tensor {name!r}: dims must be a list of non-negative integers"
            )
        if not (type(crc) is int and 0 <= crc < 2**32):
            raise CheckpointError(
                f"{path}: tensor {name!r}: crc32 must be an integer in [0, 2**32)"
            )
        nbytes = 8 * math.prod(dims)
        if end + nbytes > payload_len:
            raise CheckpointError(f"{path}: payload truncated for tensor {name!r}")
        entries[name] = TensorEntry(tuple(dims), end, nbytes, crc)
        end += nbytes
    if end != payload_len:
        raise CheckpointError(
            f"{path}: {payload_len - end} payload bytes follow the last tensor, "
            f"{next(reversed(entries), None)!r}"
        )
    return Checkpoint(path, doc["config"], entries, data_start, _stamp(stat))


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A header object; JSON would otherwise keep the last of two equal keys."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"key {next(k for k in obj if keys.count(k) > 1)!r} appears twice")
    return obj


def _stamp(stat: os.stat_result) -> tuple[int, int, int]:
    return stat.st_ino, stat.st_size, stat.st_mtime_ns


def check_layout(tensors: dict[str, np.ndarray], expected: dict[str, tuple[int, ...]]) -> None:
    """Refuse a read whose names and shapes are not exactly ``expected``.

    The error lists every missing, mis-shaped and unexpected tensor, so a
    config/checkpoint mismatch is obvious; callers assign nothing before this passes.
    """
    problems = [f"missing tensor {name!r}" for name in expected if name not in tensors]
    problems += [
        f"shape mismatch for {name!r}: checkpoint {t.shape} vs model {expected[name]}"
        for name, t in tensors.items() if name in expected and t.shape != expected[name]
    ]
    problems += [f"unexpected tensor {name!r}" for name in tensors if name not in expected]
    if problems:
        raise CheckpointError("checkpoint/model mismatch: " + "; ".join(problems))
