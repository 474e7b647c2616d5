"""Tab-separated (x, y) tuple streams: reading and writing.

Fields are opaque bytes. A line splits on its first tab: ``x`` is what comes
before it, ``y`` everything after, further tabs included. Only a trailing
``\n`` or ``\r\n`` is stripped; a lone ``\r`` anywhere else is data, and
either field may be empty. A line without a tab is malformed.
"""

from __future__ import annotations

import sys
from contextlib import nullcontext
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

from .errors import InvalidParameterError, MalformedLineError, UnsupportedSourceError

# Bytes read at a time. Each block's lines are split into one list, so a
# larger block raises peak memory.
BLOCK_BYTES = 1 << 16

# Tuples written at a time.
WRITE_BATCH = 4096


class TsvTupleSource:
    """Tuple stream over a tab-separated file, or over stdin when ``path`` is None.

    Each iteration of a file source opens the file fresh, so multi-pass
    consumers can replay it. Input is read in blocks of ``BLOCK_BYTES``, never
    whole. Stdin can be read only once: a second iteration raises
    `UnsupportedSourceError` instead of yielding an empty stream. In
    lenient mode (the default) malformed lines are skipped and counted in
    ``skipped_lines``, which resets at the start of every pass; strict mode
    raises at the offending line instead.
    """

    def __init__(self, path: str | Path | None, strict: bool = False):
        self.path = None if path is None else Path(path)
        self.strict = strict
        self.skipped_lines = 0
        self._stdin_read = False

    def __iter__(self) -> Iterator[tuple[bytes, bytes]]:
        if self.path is None:
            if self._stdin_read:
                raise UnsupportedSourceError(
                    "stdin can be read only once; pass a file for multi-pass use"
                )
            self._stdin_read = True
        self.skipped_lines = 0
        return self._scan()

    def _scan(self) -> Iterator[tuple[bytes, bytes]]:
        # Read in blocks and split each on b"\n". The unfinished last line is
        # carried into the next block (a block with no b"\n" is only kept, so
        # a long line is joined once), and "\r\n" becomes "\n" after the
        # carry, so one split across two blocks is still found. A final line
        # with no "\n" keeps its "\r".
        opened = nullcontext(sys.stdin.buffer) if self.path is None else open(self.path, "rb")
        number = 0
        pieces: list[bytes] = []
        with opened as handle:
            while True:
                block = handle.read(BLOCK_BYTES)
                pieces.append(block)
                if block and b"\n" not in block:
                    continue
                lines = b"".join(pieces).replace(b"\r\n", b"\n").split(b"\n")
                rest = lines.pop()
                pieces = [rest]
                if not block and rest:
                    lines.append(rest)
                for line in lines:
                    number += 1
                    x, tab, y = line.partition(b"\t")
                    if tab:
                        yield x, y
                    elif self.strict:
                        raise MalformedLineError(number)
                    else:
                        self.skipped_lines += 1
                if not block:
                    return


def write_tuples(path: str | Path, tuples: Iterable[tuple[bytes, bytes]]) -> int:
    """Write tuples to ``path`` as tab-separated lines; returns the number written.

    Fields must not contain the separator or a line terminator, otherwise
    the file would not parse back to the same stream. Tuples are formatted
    and checked ``WRITE_BATCH`` at a time, and a batch is written only once
    all of it has passed, so after a rejected tuple the file holds the
    complete batches before the one that holds it.
    """
    count = 0
    tuples = iter(tuples)
    with open(path, "wb") as handle:
        while batch := list(islice(tuples, WRITE_BATCH)):
            try:
                data = b"".join(map(b"%s\t%s\n".__mod__, batch))
            except TypeError:  # a list item, the wrong number of fields, a str field
                data = None
            if data is None or not _separated(data, len(batch)):
                data = b"".join(map(_checked_line, batch))
            handle.write(data)
            count += len(batch)
    return count


def _separated(data: bytes, lines: int) -> bool:
    """Whether ``data`` holds exactly ``lines`` tabs and newlines and no carriage return.

    Each formatted line adds one tab and one newline of its own, so this
    holds exactly when no field holds a separator.
    """
    return data.count(b"\t") == lines and data.count(b"\n") == lines and b"\r" not in data


def _checked_line(item: tuple[bytes, bytes]) -> bytes:
    """One tuple's line; raises at a field that holds a separator.

    ``x`` is formatted and checked before ``y`` is formatted, so a bad ``x``
    is reported even when ``y`` cannot be formatted.
    """
    x, y = item
    if not (_separated(b"%s" % (x,), 0) and _separated(b"%s" % (y,), 0)):
        raise InvalidParameterError(
            f"tuple fields may not contain tabs or line breaks: ({x!r}, {y!r})"
        )
    return b"%s\t%s\n" % (x, y)
