"""Exception types shared across the package, its positive-integer and replay checks, and `Frozen`.

The CLI maps these onto exit codes: parameter problems are usage errors, and
malformed input and inconsistent artifacts are data errors.
"""

import sys


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


class InconsistentInputError(ChhError, ValueError):
    """Two artifacts that must describe the same stream do not agree."""


class SnapshotFormatError(ChhError, ValueError):
    """A sketch snapshot is truncated, corrupt, or of an unknown version."""


def _shown(value: object, spell=repr) -> str:
    """``spell(value)`` for a message, or a description if it has more digits than may print."""
    try:
        return spell(value)
    except ValueError:
        kind = "an integer" if getattr(value, "denominator", 1) == 1 else "a ratio with a term"
        return f"{kind} of more than {sys.get_int_max_str_digits()} digits"


def check_positive_int(value: int, name: str) -> None:
    """Reject anything but a positive ``int`` (``bool`` included) for ``name``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise InvalidParameterError(f"{name} must be a positive integer, got {_shown(value)}")


def check_replay(first: int, read: int, which: int) -> None:
    """Reject a pass ``which`` that read ``read`` tuples where pass 1 read ``first``."""
    if read != first:
        raise InconsistentInputError(
            f"pass 1 read {first} tuples but pass {which} read {read}; the input must "
            "read the same on every pass, so it cannot be a pipe or a FIFO"
        )


class Frozen:
    """Base of the package's immutable value classes, whose ``__slots__`` name their fields.

    A subclass checks its arguments in ``__init__`` and then stores them with
    `_set`. Instances compare and hash by class and field values, and pickle
    and copy through ``__init__``, so its checks run again.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        """Store ``values`` in the fields, in ``__slots__`` order."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
