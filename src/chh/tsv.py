"""Tab-separated (x, y) tuple streams: reading and writing.

Fields are opaque bytes. A line splits on its first tab: ``x`` is what comes
before it, ``y`` everything after, further tabs included. Only a trailing
``\n`` or ``\r\n`` is stripped; a lone ``\r`` anywhere else is data, and
either field may be empty. A line without a tab is malformed.

Input is read in blocks, and the work per line is done in C where it can
be. A block whose complete lines each hold exactly one tab is clean: one
``translate`` and ``count`` check that, and its tabs and newlines then split
it into one list of fields, paired by ``zip``. Any other block, and a final
line with no ``\n``, goes through a per-line loop in Python, which keeps the
first-tab rule, skips or raises at a malformed line, and numbers the lines.
"""

from __future__ import annotations

import sys
from contextlib import nullcontext
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator
from zlib import crc32

from .errors import (
    InconsistentInputError,
    InvalidParameterError,
    MalformedLineError,
    UnsupportedSourceError,
    check_replay,
)

# Bytes read at a time. A clean block is split into one list of two fields
# per line, any other block into one list of lines, so a larger block raises
# peak memory.
BLOCK_BYTES = 1 << 16

# Every byte but the tab and the newline; deleting them leaves a clean
# block's separators, b"\t\n" once per line.
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b"\t\n")

# Tuples written at a time.
WRITE_BATCH = 4096


class TsvTupleSource:
    """Tuple stream over a tab-separated file, or over stdin when ``path`` is None.

    Each iteration of a file source opens the file fresh, so multi-pass
    consumers can replay it. Input is read in blocks of ``BLOCK_BYTES``, never
    whole. A block in which every complete line holds exactly one tab is
    split into fields in C; any other block falls back to a per-line loop,
    which yields the same tuples. Stdin can be read only once: a second
    iteration raises `UnsupportedSourceError` instead of yielding an empty
    stream. In lenient mode (the default) malformed lines are skipped and
    counted in ``skipped_lines``, which resets at the start of every pass;
    strict mode raises at the offending line instead.

    Every pass must read the same bytes. A pass that reaches the end of the
    input after the first one did raises `InconsistentInputError` there when
    it read a different number of tuples, or a different ``zlib.crc32`` of
    the raw bytes, than the first complete pass.
    """

    def __init__(self, path: str | Path | None, strict: bool = False):
        self.path = None if path is None else Path(path)
        self.strict = strict
        self.skipped_lines = 0
        self._stdin_read = False
        self._passes = 0
        self._first: tuple[int, int] | None = None  # (tuples, crc32) of the first complete pass

    def __iter__(self) -> Iterator[tuple[bytes, bytes]]:
        if self.path is None:
            if self._stdin_read:
                raise UnsupportedSourceError(
                    "stdin can be read only once; pass a file for multi-pass use"
                )
            self._stdin_read = True
        self.skipped_lines = 0
        return chain.from_iterable(self._blocks())

    def _blocks(self) -> Iterator[Iterable[tuple[bytes, bytes]]]:
        # Read in blocks and split each at its last b"\n". The unfinished last
        # line is carried into the next block (a block with no b"\n" is only
        # kept, so a long line is joined once), and "\r\n" becomes "\n" after
        # the carry, so one split across two blocks is still found. A final
        # line with no "\n" keeps its "\r".
        opened = nullcontext(sys.stdin.buffer) if self.path is None else open(self.path, "rb")
        number = crc = 0
        pieces: list[bytes] = []
        with opened as handle:
            while True:
                block = handle.read(BLOCK_BYTES)
                crc = crc32(block, crc)
                pieces.append(block)
                if block and b"\n" not in block:
                    continue
                data = b"".join(pieces).replace(b"\r\n", b"\n")
                end = data.rfind(b"\n") + 1
                whole, rest = data[:end], data[end:]
                pieces = [rest]
                lines = whole.count(b"\n")
                if whole.translate(None, _NOT_SEPARATORS) == b"\t\n" * lines:
                    fields = iter(whole.replace(b"\t", b"\n").split(b"\n"))
                    yield zip(fields, fields)
                else:
                    yield self._lines(whole.split(b"\n")[:-1], number)
                number += lines
                if not block:
                    if rest:
                        yield self._lines([rest], number)
                        number += 1
                    self._check_pass(number - self.skipped_lines, crc)
                    return

    def _check_pass(self, tuples: int, crc: int) -> None:
        """Keep the first complete pass's tuple count and checksum; hold later passes to them."""
        self._passes += 1
        if self._first is None:
            self._first = tuples, crc
            return
        check_replay(self._first[0], tuples, self._passes)
        if crc != self._first[1]:
            raise InconsistentInputError(
                f"pass {self._passes} read the same number of tuples as pass 1 but other "
                "bytes; the input must not change between passes"
            )

    def _lines(self, lines: list[bytes], number: int) -> Iterator[tuple[bytes, bytes]]:
        """The tuples of ``lines``, the first of which is line ``number + 1``."""
        for line in lines:
            number += 1
            x, tab, y = line.partition(b"\t")
            if tab:
                yield x, y
            elif self.strict:
                raise MalformedLineError(number)
            else:
                self.skipped_lines += 1


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
