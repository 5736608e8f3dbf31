"""Exception hierarchy shared across the package, and ``open_input``, which opens every input.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
NumericError -> 4. ``open_input`` maps file-system errors onto DataError, so
a missing or unreadable input file exits 3.
"""

from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator


class AvmoeError(Exception):
    """Base class for all package errors."""


class ConfigError(AvmoeError):
    """Invalid configuration or incompatible options chosen by the caller."""


class DimensionError(ConfigError):
    """Shape mismatch between operands; the message names both shapes."""


class DataError(AvmoeError):
    """Bad input data: missing files, out-of-range ids, malformed records."""


class IngestError(DataError):
    """Malformed binary input; the message identifies the byte offset."""


class CtcInfeasibleError(DataError):
    """Target cannot be aligned to the available frames; ``index`` is its place in the batch."""

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


class CheckpointError(DataError):
    """Unreadable checkpoint: bad magic, version, checksum, or layout."""


class GraphError(AvmoeError):
    """Misuse of the autodiff graph (non-scalar loss, repeated backward...)."""


class NumericError(AvmoeError):
    """Numeric domain violation or non-finite value where one is forbidden."""


@contextmanager
def open_input(path, what: str, error: type[DataError] = DataError) -> Iterator[BinaryIO]:
    """Open ``path`` for unbuffered binary reading; the block does the reads.

    An OSError at the open or in the block becomes ``error``: ``"<what> not found:
    <path>"`` for a missing file, else ``"<path>: cannot read the <what>: <reason>"``.
    """
    try:
        with Path(path).open("rb", buffering=0) as f:
            yield f
    except FileNotFoundError as exc:
        raise error(f"{what} not found: {path}") from exc
    except OSError as exc:
        raise error(f"{path}: cannot read the {what}: {exc.strerror}") from exc
