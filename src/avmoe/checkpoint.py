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

Offsets index into the payload. The CRC32 of the config lines and of every
tensor is verified on load, so a corrupted file fails loudly instead of
producing a silently wrong model.

The save streams the header and then each array's own buffer to a sibling
temp file and moves it onto ``path`` with ``os.replace``, so a save that
fails part way leaves the previous file at ``path`` intact. The load reads the
file once; each loaded tensor is a read-only view into that one buffer, and
callers that keep a tensor copy it (``load_params_into``).
"""

from __future__ import annotations

import json
import math
import os
import re
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .tensor import Tensor

MAGIC = b"EVACKPT2"
CONFIG_CRC = "crc32 "


@dataclass
class Checkpoint:
    config: dict[str, str]
    tensors: dict[str, np.ndarray]


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
    """Read a checkpoint; a malformed header line fails with its byte offset."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    blob = _read_file(path)
    if blob[: len(MAGIC) + 1] != MAGIC + b"\n":
        raise CheckpointError(
            f"{path}: bad magic {bytes(blob[:8])!r}; this reader understands {MAGIC.decode()} only"
        )
    found = re.search(rb"\n\[data\]\n", blob)
    if found is None:
        raise CheckpointError(f"{path}: truncated header, no [data] section")
    marker = found.start()
    payload = blob[found.end() :]

    config: dict[str, str] = {}
    config_lines: list[str] = []
    tensors: dict[str, np.ndarray] = {}
    section = None
    line_start = len(MAGIC) + 1
    for raw_line in bytes(blob[line_start:marker]).split(b"\n"):
        try:
            line = raw_line.decode("ascii")
            if line == "[config]" and section is None:
                section = line
            elif line == "[tensors]" and section == "[config]":
                _verify_config(config_lines)
                section = line
            elif section == "[config]":
                config_lines.append(line)
                if not line.startswith(CONFIG_CRC):
                    key, _, value = line.partition("=")
                    config[key] = json.loads(value)
            elif section == "[tensors]":
                parts = line.split(" ")
                if len(parts) != 4:
                    raise CheckpointError("a tensor line needs name, shape, offset and crc")
                name, shape_text, offset_text, crc_text = parts
                dims = [] if shape_text == "scalar" else shape_text.split("x")
                shape = tuple(int(d) for d in dims)
                offset = int(offset_text)
                if offset < 0 or any(d < 0 for d in shape):
                    raise CheckpointError("negative offset or dimension")
                count = math.prod(shape)
                raw = payload[offset : offset + 8 * count]
                if len(raw) != 8 * count:
                    raise CheckpointError(f"payload truncated for tensor {name!r}")
                if (zlib.crc32(raw) & 0xFFFFFFFF) != int(crc_text):
                    raise CheckpointError(f"checksum failure for tensor {name!r}")
                tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(shape)
            else:
                raise CheckpointError("stray line before [config]")
        except (CheckpointError, ValueError) as exc:  # ValueError covers bad ascii and JSON
            raise CheckpointError(
                f"{path}: bad header line {raw_line!r} at byte offset {line_start}: {exc}"
            ) from exc
        line_start += len(raw_line) + 1
    if section != "[tensors]":
        raise CheckpointError(f"{path}: header has no [tensors] section")
    return Checkpoint(config=config, tensors=tensors)


def _read_file(path: Path) -> memoryview:
    """The whole file, read once into one read-only buffer.

    On Linux numpy asks the kernel to back a large ``np.empty`` with huge
    pages, so the read takes far fewer page faults than ``read_bytes`` does.
    """
    try:
        with path.open("rb") as f:
            buf = np.empty(os.fstat(f.fileno()).st_size, dtype=np.uint8)
            buf = buf[: f.readinto(buf)]
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read the checkpoint: {exc.strerror}") from exc
    buf.flags.writeable = False
    return memoryview(buf)


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
    """Copy stored arrays under ``prefix`` into live parameters.

    Any missing, extra, or shape-mismatched tensor fails with a full diff so
    a config/checkpoint mismatch is obvious.
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
        param.data = tensors[prefix + name].copy()
