"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
NumericError -> 4.
"""


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
