"""Exception types shared across the package, plus its positive-integer check.

The CLI maps these onto exit codes: parameter problems are usage errors, and
malformed input and inconsistent artifacts are data errors. `ResourceLimitError`
is a library error only: it comes from the capped naive count, which no command runs.
"""


class ChhError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(ChhError, ValueError):
    """A threshold, tolerance, capacity, or flag value is out of range."""


class MalformedLineError(ChhError, ValueError):
    """An input line could not be parsed as a tab-separated tuple."""

    def __init__(self, line_number: int):
        self.line_number = line_number
        super().__init__(f"line {line_number}: no tab separator")


class UnsupportedSourceError(ChhError, TypeError):
    """A stream source cannot be replayed but the operation needs multiple passes."""


class ResourceLimitError(ChhError, RuntimeError):
    """An operation exceeded its configured tuple or memory cap."""


class InconsistentInputError(ChhError, ValueError):
    """Two artifacts that must describe the same stream do not agree."""


class SnapshotFormatError(ChhError, ValueError):
    """A sketch snapshot is truncated, corrupt, or of an unknown version."""


def check_positive_int(value: int, name: str) -> None:
    """Reject anything but a positive ``int`` (``bool`` included) for ``name``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise InvalidParameterError(f"{name} must be a positive integer, got {value!r}")
