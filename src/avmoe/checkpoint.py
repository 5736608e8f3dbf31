"""Versioned binary checkpoints: one checksummed JSON header, then the sections.

Layout:

    EVACKPT4 <header bytes> <crc32>\\n    (both ASCII decimal; the crc32 is of the header)
    {"config": {...},
     "layout": [[<name>, [<d0>, <d1>, ...]], ...],
     "sections": [[<section>, [<crc32 of each layout tensor>, ...]], ...]}
    <raw little-endian float64 payload>

The config holds plain JSON values. A training checkpoint has three sections
of the same names and shapes: ``model``, ``opt.m`` and ``opt.v``, the
parameters and Adam's two moments. The layout lists each name and shape once,
and each section one CRC32 per layout tensor. The payload is the sections in
header order, each holding the layout's tensors in layout order. A tensor
occupies ``8 * d0 * d1 * ...`` bytes, so its offset within a section is the
sum of the sizes before it, and the payload is exactly the number of sections
times the size of one. The save streams the header and then each array's own
buffer to a sibling temp file and moves it onto ``path`` with ``os.replace``,
so a save that fails part way leaves the previous file at ``path`` intact.

The load has two steps, so that a caller reads only the sections it uses.
Each opens the file with ``errors.open_input``, which refuses a missing or
unreadable file as a ``CheckpointError``:

- ``load_checkpoint`` reads the header and no payload. It checks the magic,
  refuses a header length that does not fit in the file (from ``fstat``)
  before reading it, checks the header's CRC32, and then the structure that
  ``fields.parse_json`` returns (no key twice in one object): a ``config``
  object; a ``layout`` of ``[name, dims]`` entries with unique names and
  non-negative integer dims; and ``sections`` of ``[section, crcs]`` entries
  with unique names, each with one integer CRC32 below 2**32 per layout
  tensor. The payload length must be exactly what the sections hold. Every
  fault is a ``CheckpointError``.
- ``Checkpoint.read(*sections)`` reads the byte range that covers the named
  sections in one read and checks the CRC32 of every tensor in them. It
  refuses a file whose inode, size or mtime changed after the header step.
  Every call reads into a fresh buffer, which starts on a 64-byte cache line
  and belongs to the caller alone, and each tensor is a writable view into
  it: a restored model's parameters and Adam moments are those views, with
  no copy.

A restore first compares the layout with the model's parameters
(``check_layout``), once for all sections, and assigns nothing unless every
name and shape matches. The trade: ``train.restore_model`` (``avmoe eval`` and ``decode``) reads and
verifies only the ``model`` section, a third of a training checkpoint, so it
does not notice a corrupted Adam moment. ``train.restore_train_state``
(``avmoe train --resume``) reads and verifies all three.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .errors import CheckpointError, open_input
from .fields import parse_json

MAGIC = b"EVACKPT4"
FIRST_LINE_MAX = 64  # bytes; the magic and two decimal numbers need at most 40


@dataclass
class Checkpoint:
    """A checkpoint's verified header; ``read`` loads and verifies its sections."""

    path: Path
    config: dict[str, Any]
    layout: dict[str, tuple[int, ...]]  # each tensor's shape, in payload order
    sections: dict[str, list[int]]  # the CRC32 of each layout tensor, in layout order
    section_nbytes: int  # the size of one section: the layout's tensors
    data_start: int  # file offset of the payload
    stamp: tuple[int, int, int]  # (st_ino, st_size, st_mtime_ns) when the header was read

    def section_start(self, section: str) -> int:
        """The file offset of ``section``'s first tensor."""
        if section not in self.sections:
            raise CheckpointError(
                f"{self.path}: no section {section!r}; it holds {list(self.sections)}"
            )
        return self.data_start + list(self.sections).index(section) * self.section_nbytes

    def read(self, *sections: str) -> dict[str, dict[str, np.ndarray]]:
        """``{section: {name: tensor}}`` of the named sections (of all, if none is named),
        every tensor checked against its CRC32.

        One ``readinto`` fills a fresh float64 buffer, which starts on a 64-byte
        cache line, with the byte range from the first of them to the end of the
        last, and each tensor is a writable view into it. The caller owns that
        buffer: no other read or cache holds it. On Linux numpy asks the kernel
        to back a large ``np.empty`` with huge pages, so the read takes far
        fewer page faults than ``read_bytes`` does.
        """
        starts = {section: self.section_start(section) for section in sections or self.sections}
        # Offsets are multiples of 8: each is a sum of tensor sizes of 8 bytes a value.
        low = min(starts.values())
        size = (max(starts.values()) + self.section_nbytes - low) // 8
        raw = np.empty(size + 7, "<f8")
        skip = -raw.ctypes.data % 64 // 8  # decode ran 2-4% slower on 16-byte-aligned weights
        buf = raw[skip : skip + size]
        with open_input(self.path, "checkpoint", CheckpointError) as f:
            stamp = _stamp(os.fstat(f.fileno()))
            f.seek(low)
            count = f.readinto(buf)
        if stamp != self.stamp or count != buf.nbytes:
            raise CheckpointError(f"{self.path}: the file changed after its header was read")
        out = {}
        for section, start in starts.items():
            first = (start - low) // 8
            tensors = out[section] = {}
            for (name, shape), crc in zip(self.layout.items(), self.sections[section]):
                flat = buf[first : first + math.prod(shape)]
                first += flat.size
                if zlib.crc32(flat) != crc:
                    raise CheckpointError(
                        f"{self.path}: checksum failure for tensor {name!r} in section {section!r}"
                    )
                try:
                    tensors[name] = flat.reshape(shape)
                except ValueError as exc:  # over 64 dims, or a dim too large beside a zero
                    raise CheckpointError(f"{self.path}: tensor {name!r}: {exc}") from exc
        return out


def save_checkpoint(
    path, config: dict[str, Any], sections: dict[str, dict[str, np.ndarray]]
) -> None:
    """Write ``config`` (JSON values) and ``sections`` to ``path``.

    Every section must map the same names, in the same order, to arrays of the
    same shapes: they share one layout. A section that does not is refused
    before any file is opened. The bytes depend only on the arguments: keys
    are sorted and separators fixed.
    """
    # A no-op for live float64 parameters; unlike ascontiguousarray it keeps 0-d arrays 0-d.
    arrays = {
        section: [np.require(array, "<f8", "C") for array in tensors.values()]
        for section, tensors in sections.items()
    }
    layouts = [[[name, list(arr.shape)] for name, arr in zip(tensors, arrays[section])]
               for section, tensors in sections.items()]
    for section, layout in zip(sections, layouts):
        if layout != layouts[0]:
            raise CheckpointError(
                f"{path}: section {section!r} does not have the names and shapes, in order, "
                f"of section {next(iter(sections))!r}"
            )
    listed = [[section, [zlib.crc32(arr) for arr in arrs]] for section, arrs in arrays.items()]
    header = json.dumps(
        {"config": config, "layout": layouts[0] if layouts else [], "sections": listed},
        sort_keys=True, separators=(",", ":"),
    ).encode("ascii")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as f:
            f.write(b"%s %d %d\n" % (MAGIC, len(header), zlib.crc32(header)))
            f.write(header)
            for arrs in arrays.values():
                for arr in arrs:
                    f.write(arr)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> Checkpoint:
    """Read and verify a checkpoint's header. No tensor is read: ``Checkpoint.read`` does that."""
    path = Path(path)
    with open_input(path, "checkpoint", CheckpointError) as f:
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
    if len(header) != length or zlib.crc32(header) != int(fields[2]):
        raise CheckpointError(f"{path}: checksum failure for the header")
    try:
        doc = parse_json(header)
    except ValueError as exc:  # bad UTF-8, bad JSON, a repeated key or too deep a nesting
        raise CheckpointError(f"{path}: unreadable header: {exc}") from exc
    if not (
        isinstance(doc, dict) and doc.keys() == {"config", "layout", "sections"}
        and isinstance(doc["config"], dict) and isinstance(doc["layout"], list)
        and isinstance(doc["sections"], list)
    ):
        raise CheckpointError(
            f"{path}: the header is not a config object, a layout list and a sections list"
        )

    layout: dict[str, tuple[int, ...]] = {}
    every_dim: list = []
    for index, item in enumerate(doc["layout"]):
        if not (type(item) is list and len(item) == 2 and type(item[0]) is str):
            raise CheckpointError(f"{path}: layout entry {index} is not a [name, dims] list")
        name, dims = item
        if name in layout:
            raise CheckpointError(f"{path}: tensor {name!r} appears twice")
        if type(dims) is not list:
            raise CheckpointError(f"{path}: tensor {name!r}: {_BAD_DIMS}")
        layout[name] = tuple(dims)
        every_dim += dims
    # All dims at once: JSON numbers parse as int or float, and true and false
    # as bool, a subclass of int.
    if not set(map(type, every_dim)) <= {int} or min(every_dim, default=0) < 0:
        name = next(name for name, dims in layout.items()
                    if not all(type(d) is int and d >= 0 for d in dims))
        raise CheckpointError(f"{path}: tensor {name!r}: {_BAD_DIMS}")
    section_nbytes = 8 * sum(map(math.prod, layout.values()))

    sections: dict[str, list[int]] = {}
    for index, item in enumerate(doc["sections"]):
        if not (type(item) is list and len(item) == 2 and type(item[0]) is str
                and type(item[1]) is list):
            raise CheckpointError(
                f"{path}: section entry {index} is not a [section, crc32 list] list"
            )
        section, crcs = item
        if section in sections:
            raise CheckpointError(f"{path}: section {section!r} appears twice")
        if len(crcs) != len(layout):
            raise CheckpointError(
                f"{path}: section {section!r} lists {len(crcs)} CRC32s for {len(layout)} tensors"
            )
        if crcs and not (set(map(type, crcs)) == {int} and min(crcs) >= 0 and max(crcs) < 2**32):
            raise CheckpointError(
                f"{path}: section {section!r}: each crc32 must be an integer in [0, 2**32)"
            )
        sections[section] = crcs

    payload_len = stat.st_size - data_start
    if payload_len != section_nbytes * len(sections):
        raise CheckpointError(f"{path}: {_misfit(layout, sections, payload_len)}")
    return Checkpoint(path, doc["config"], layout, sections, section_nbytes, data_start,
                      _stamp(stat))


_BAD_DIMS = "dims must be a list of non-negative integers"


def _misfit(layout: dict[str, tuple[int, ...]], sections: dict, payload_len: int) -> str:
    """Where a payload of ``payload_len`` bytes stops short of the sections or runs past them."""
    end = 0
    for section in sections:
        for name, shape in layout.items():
            end += 8 * math.prod(shape)
            if end > payload_len:
                return f"payload truncated for tensor {name!r} in section {section!r}"
    last = f"{next(reversed(layout), None)!r} in section {next(reversed(sections), None)!r}"
    return f"{payload_len - end} payload bytes follow the last tensor, {last}"


def _stamp(stat: os.stat_result) -> tuple[int, int, int]:
    return stat.st_ino, stat.st_size, stat.st_mtime_ns


def check_layout(ckpt: Checkpoint, expected: dict[str, tuple[int, ...]]) -> None:
    """Refuse a checkpoint whose layout's names and shapes are not exactly ``expected``.

    One comparison passes a layout that matches. Otherwise the error lists
    every missing, mis-shaped and unexpected tensor, so a config/checkpoint
    mismatch is obvious; callers assign nothing before this passes.
    """
    if ckpt.layout == expected:
        return
    problems = [f"missing tensor {name!r}" for name in expected if name not in ckpt.layout]
    problems += [
        f"shape mismatch for {name!r}: checkpoint {shape} vs model {expected[name]}"
        for name, shape in ckpt.layout.items() if name in expected and shape != expected[name]
    ]
    problems += [f"unexpected tensor {name!r}" for name in ckpt.layout if name not in expected]
    raise CheckpointError("checkpoint/model mismatch: " + "; ".join(problems))
