"""Versioned binary checkpoints with per-tensor checksums.

Layout:

    EVACKPT2\\n
    [config]\\n
    <key>=<value>\\n ...          (values are JSON-escaped strings)
    crc32 <crc32>\\n             (of the <key>=<value> lines, newline-joined)
    [tensors]\\n
    <name> <d0xd1x...> <byte offset> <crc32>\\n ...
    [data]\\n
    <raw little-endian float64 payload>

Offsets index into the payload. The save streams the header and then each
array's own buffer to a sibling temp file and moves it onto ``path`` with
``os.replace``, so a save that fails part way leaves the previous file at
``path`` intact.

The load has two steps, so that a caller reads only the tensors it uses:

- ``load_checkpoint`` reads the header and no payload. It checks the magic,
  the CRC32 of the config lines and the syntax of every tensor line (decimal
  digits, a CRC32 below 2**32), refuses a config key or tensor name that
  appears twice, and checks that each tensor starts where the previous one
  ends, so no two share a byte, and ends within the file length from
  ``fstat``, so a truncated file fails here.
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
from typing import NamedTuple

import numpy as np

from .errors import CheckpointError
from .tensor import Tensor

MAGIC = b"EVACKPT2"
CONFIG_CRC = "crc32 "
DATA_MARKER = b"\n[data]\n"
HEADER_CHUNK = 1 << 16  # bytes per read while looking for the end of the header


class TensorEntry(NamedTuple):
    """One tensor line of the header."""

    shape: tuple[int, ...]
    offset: int  # into the payload
    nbytes: int
    crc32: int


@dataclass
class Checkpoint:
    """A checkpoint's verified header; ``read`` loads and verifies its tensors."""

    path: Path
    config: dict[str, str]
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
        # Offsets are multiples of 8: the header step checks that tensors tile the payload.
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
            tensors[name] = flat.reshape(e.shape)
        return tensors


def save_checkpoint(path, config: dict[str, str], tensors: dict[str, np.ndarray]) -> None:
    entries = []
    for key in config:
        if any(c in key for c in "=\n "):
            raise CheckpointError(f"config key {key!r} may not contain '=', spaces, or newlines")
        entries.append(f"{key}={json.dumps(config[key])}")
    config_crc = zlib.crc32("\n".join(entries).encode("ascii")) & 0xFFFFFFFF
    header = [MAGIC.decode("ascii"), "[config]", *entries, f"{CONFIG_CRC}{config_crc}", "[tensors]"]
    arrays: list[np.ndarray] = []
    offset = 0
    for name, array in tensors.items():
        if " " in name or "\n" in name:
            raise CheckpointError(f"tensor name {name!r} may not contain spaces or newlines")
        # A no-op for live float64 parameters; unlike ascontiguousarray it keeps 0-d arrays 0-d.
        arr = np.require(array, "<f8", "C")
        shape = "x".join(str(d) for d in arr.shape) if arr.ndim else "scalar"
        header.append(f"{name} {shape} {offset} {zlib.crc32(arr) & 0xFFFFFFFF}")
        arrays.append(arr)
        offset += arr.nbytes
    header.append("[data]")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as f:
            f.write("\n".join(header).encode("ascii") + b"\n")
            for arr in arrays:
                f.write(arr)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> Checkpoint:
    """Read and verify a checkpoint's header; a malformed line fails with its byte offset.

    No tensor is read: ``Checkpoint.read`` does that.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
        with path.open("rb", buffering=0) as f:
            stat = os.fstat(f.fileno())
            head = f.read(HEADER_CHUNK)
            if head[: len(MAGIC) + 1] != MAGIC + b"\n":
                raise CheckpointError(
                    f"{path}: bad magic {head[:8]!r}; this reader understands {MAGIC.decode()} only"
                )
            marker = head.find(DATA_MARKER)
            while marker < 0:
                chunk = f.read(HEADER_CHUNK)
                if not chunk:
                    raise CheckpointError(f"{path}: truncated header, no [data] section")
                searched = len(head) - len(DATA_MARKER) + 1
                head += chunk
                marker = head.find(DATA_MARKER, searched)
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read the checkpoint: {exc.strerror}") from exc
    data_start = marker + len(DATA_MARKER)
    payload_len = stat.st_size - data_start

    start = len(MAGIC) + 1
    lines = head[start:marker].decode("latin-1").split("\n")  # one character per byte

    def bad_line(index: int, exc: Exception) -> CheckpointError:
        offset = start + sum(map(len, lines[:index])) + index
        raw = lines[index].encode("latin-1")
        return CheckpointError(f"{path}: bad header line {raw!r} at byte offset {offset}: {exc}")

    split = lines.index("[tensors]", 1) if "[tensors]" in lines[1:] else len(lines)
    config: dict[str, str] = {}
    for index, line in enumerate(lines[:split]):
        try:
            if not line.isascii():
                line.encode("latin-1").decode("ascii")  # raises, naming the byte
            if index == 0:
                if line != "[config]":
                    raise CheckpointError("stray line before [config]")
            elif not line.startswith(CONFIG_CRC):
                key, _, value = line.partition("=")
                if key in config:
                    raise CheckpointError(f"config key {key!r} appears twice")
                config[key] = json.loads(value)
        except (CheckpointError, ValueError) as exc:  # ValueError covers bad ascii and JSON
            raise bad_line(index, exc) from exc
    if split == len(lines):
        raise CheckpointError(f"{path}: header has no [tensors] section")
    try:
        _verify_config(lines[1:split])
    except (CheckpointError, ValueError) as exc:
        raise bad_line(split, exc) from exc

    entries: dict[str, TensorEntry] = {}
    end = 0  # of the previous tensor: each starts there, so no two share a byte
    try:
        for line in lines[split + 1 :]:
            if not line.isascii():  # so that isdigit() means 0-9
                line.encode("latin-1").decode("ascii")
            parts = line.split(" ")
            if len(parts) != 4:
                raise CheckpointError("a tensor line needs name, shape, offset and crc")
            name, shape_text, offset_text, crc_text = parts
            if name in entries:
                raise CheckpointError(f"tensor {name!r} appears twice")
            dims = () if shape_text == "scalar" else shape_text.split("x")
            if not (offset_text.isdigit() and crc_text.isdigit() and all(map(str.isdigit, dims))):
                raise CheckpointError("dims, offset and crc must be ASCII decimal digits")
            shape, offset, crc = tuple(map(int, dims)), int(offset_text), int(crc_text)
            if crc >> 32:
                raise CheckpointError(f"crc {crc} does not fit in 32 bits")
            if offset != end:
                raise CheckpointError(f"offset {offset} is not {end}, where the tensor before ends")
            end = offset + 8 * math.prod(shape)
            if end > payload_len:
                raise CheckpointError(f"payload truncated for tensor {name!r}")
            entries[name] = TensorEntry(shape, offset, end - offset, crc)
    except (CheckpointError, ValueError) as exc:  # ValueError: bad ascii, an int of 4301+ digits
        raise bad_line(split + 1 + len(entries), exc) from exc  # each good line added one entry
    return Checkpoint(path, config, entries, data_start, _stamp(stat))


def _stamp(stat: os.stat_result) -> tuple[int, int, int]:
    return stat.st_ino, stat.st_size, stat.st_mtime_ns


def _verify_config(lines: list[str]) -> None:
    """The last config line holds the CRC32 of the lines before it."""
    if not lines or not lines[-1].startswith(CONFIG_CRC):
        raise CheckpointError("the [config] section does not end with its crc32 line")
    expected = zlib.crc32("\n".join(lines[:-1]).encode("ascii")) & 0xFFFFFFFF
    if expected != int(lines[-1][len(CONFIG_CRC) :]):
        raise CheckpointError("checksum failure for the [config] section")


def load_params_into(
    named_params: list[tuple[str, Tensor]],
    tensors: dict[str, np.ndarray],
    prefix: str,
) -> None:
    """Make the stored arrays under ``prefix`` the live parameters' data, with no copy.

    Any missing, extra, or shape-mismatched tensor fails with a full diff so
    a config/checkpoint mismatch is obvious, and then no parameter changes.
    """
    problems = []
    for name, param in named_params:
        key = prefix + name
        if key not in tensors:
            problems.append(f"missing tensor {key!r}")
        elif tensors[key].shape != param.data.shape:
            problems.append(
                f"shape mismatch for {key!r}: checkpoint {tensors[key].shape} "
                f"vs model {param.data.shape}"
            )
    stored = {k for k in tensors if k.startswith(prefix)}
    expected = {prefix + name for name, _ in named_params}
    for extra in sorted(stored - expected):
        problems.append(f"unexpected tensor {extra!r}")
    if problems:
        raise CheckpointError("checkpoint/model mismatch: " + "; ".join(problems))
    for name, param in named_params:
        param.data = tensors[prefix + name]
