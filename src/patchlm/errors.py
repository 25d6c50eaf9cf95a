"""Exception hierarchy shared across the package.

Exit-code mapping for the CLI: ConfigError -> 2, DataError and OSError
(a missing or unreadable file) -> 3, NumericError -> 4.
"""


class ConfigError(ValueError):
    """Invalid configuration value or combination."""


class DataError(ValueError):
    """Malformed or unusable input data."""


class DimensionError(DataError):
    """Tensor shape mismatch."""


class InvalidSeriesError(DataError):
    """Series has no usable (finite) values."""


class NumericError(RuntimeError):
    """Non-finite values where finite ones are required."""


class CacheError(RuntimeError):
    """KV-cache misuse (e.g. position regression)."""
