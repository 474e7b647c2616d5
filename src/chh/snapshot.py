"""Sketch snapshots: a versioned, canonical, byte-stable text layout.

The layout is line oriented ASCII: a magic header, the parameters as exact
``numerator/denominator`` rationals, the stream length, then one ``p`` line
per outer entry followed by its ``s`` lines. At each level keys strictly
increase; the loader rejects repeated or unsorted keys.
Keys are hex encoded so arbitrary byte strings, including empty ones and
ones containing tabs or newlines, survive unchanged. Saving a loaded sketch
reproduces the input bytes exactly; diagnostic counters (shed-round totals)
are not part of the format and reset on load.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from .errors import InvalidParameterError, SnapshotFormatError
from .mg import MgSummary
from .params import ChhParams
from .sketch import ChhSketch, PrimaryEntry

_MAGIC = b"chh-sketch v1"


def sketch_to_bytes(sketch: ChhSketch) -> bytes:
    p = sketch.params
    lines = [_MAGIC]
    for name, value in (
        (b"phi1", p.phi1),
        (b"phi2", p.phi2),
        (b"eps1", p.eps1),
        (b"eps2", p.eps2),
    ):
        lines.append(b"%s %d/%d" % (name, value.numerator, value.denominator))
    lines.append(b"s1 %d" % p.s1)
    lines.append(b"s2 %d" % p.s2)
    lines.append(b"n %d" % sketch.n)
    lines.append(b"primaries %d" % len(sketch))
    for key, entry in sketch.entries():
        inner = entry.inner
        lines.append(
            b"p %s %d %d %d"
            % (key.hex().encode(), entry.est_count, inner.items_seen, len(inner))
        )
        for skey, count in inner.entries():
            lines.append(b"s %s %d" % (skey.hex().encode(), count))
    lines.append(b"end")
    return b"\n".join(lines) + b"\n"


class _Reader:
    def __init__(self, data: bytes):
        self._lines = data.split(b"\n")
        self._pos = 0

    def next_line(self) -> bytes:
        if self._pos >= len(self._lines):
            raise SnapshotFormatError(f"truncated snapshot at line {self._pos + 1}")
        line = self._lines[self._pos]
        self._pos += 1
        return line

    def expect_field(self, name: bytes) -> bytes:
        line = self.next_line()
        prefix = name + b" "
        if not line.startswith(prefix):
            raise SnapshotFormatError(
                f"expected {name.decode()!r} at line {self._pos}, got {line[:40]!r}"
            )
        return line[len(prefix):]


def _parse_fraction(token: bytes) -> Fraction:
    try:
        return Fraction(token.decode("ascii"))
    except (ValueError, ZeroDivisionError, UnicodeDecodeError) as exc:
        raise SnapshotFormatError(f"bad rational {token!r}: {exc}") from exc


def _parse_int(token: bytes) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise SnapshotFormatError(f"bad integer {token!r}") from exc


def _parse_key(token: bytes, previous: bytes | None) -> bytes:
    """Decode a hex key that must sort strictly after ``previous`` (None: first key)."""
    try:
        key = bytes.fromhex(token.decode("ascii"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise SnapshotFormatError(f"bad hex key {token!r}") from exc
    if previous is not None and key <= previous:
        raise SnapshotFormatError(f"key {key!r} does not sort strictly after {previous!r}")
    return key


def sketch_from_bytes(data: bytes) -> ChhSketch:
    reader = _Reader(data)
    if reader.next_line() != _MAGIC:
        raise SnapshotFormatError("not a sketch snapshot (bad magic line)")
    fractions = {}
    for name in (b"phi1", b"phi2", b"eps1", b"eps2"):
        fractions[name] = _parse_fraction(reader.expect_field(name))
    s1 = _parse_int(reader.expect_field(b"s1"))
    s2 = _parse_int(reader.expect_field(b"s2"))
    n = _parse_int(reader.expect_field(b"n"))
    primary_count = _parse_int(reader.expect_field(b"primaries"))

    try:
        params = ChhParams(
            fractions[b"phi1"], fractions[b"phi2"],
            fractions[b"eps1"], fractions[b"eps2"],
            s1, s2,
        )
    except InvalidParameterError as exc:
        raise SnapshotFormatError(f"bad parameters: {exc}") from exc
    sketch = ChhSketch(params)
    sketch.n = n
    key = None
    for _ in range(primary_count):
        tokens = reader.expect_field(b"p").split(b" ")
        if len(tokens) != 4:
            raise SnapshotFormatError(f"malformed primary entry line {tokens!r}")
        key = _parse_key(tokens[0], key)
        est_count = _parse_int(tokens[1])
        inner = MgSummary(s2)
        inner.items_seen = _parse_int(tokens[2])
        inner_count = _parse_int(tokens[3])
        total = 0
        skey = None
        for _ in range(inner_count):
            stokens = reader.expect_field(b"s").split(b" ")
            if len(stokens) != 2:
                raise SnapshotFormatError(f"malformed secondary entry line {stokens!r}")
            skey = _parse_key(stokens[0], skey)
            count = _parse_int(stokens[1])
            inner._entries[skey] = count
            total += count
        if len(inner) > s2 or est_count < 1 or total > est_count:
            raise SnapshotFormatError(
                f"entry for key {key!r} violates sketch invariants"
            )
        sketch._table[key] = PrimaryEntry(est_count, inner)
    if reader.next_line() != b"end":
        raise SnapshotFormatError("missing end marker")
    if len(sketch) > s1:
        raise SnapshotFormatError("more primary entries than the outer capacity")
    return sketch


def save_sketch(sketch: ChhSketch, path: str | Path) -> None:
    Path(path).write_bytes(sketch_to_bytes(sketch))


def load_sketch(path: str | Path) -> ChhSketch:
    return sketch_from_bytes(Path(path).read_bytes())
