"""Sketch snapshots: a versioned, canonical, byte-stable text layout.

The layout is line oriented ASCII: a magic header, the parameters as
reduced ``numerator/denominator`` rationals, the table sizes, the stream
length and the number of outer entries, then one ``p`` line per outer entry
(key, estimated count, inner ``items_seen``, inner size) followed by its
``s`` lines (key, count), and an ``end`` line. Keys are lowercase hex, so
arbitrary byte strings, including empty ones and ones containing tabs or
newlines, survive unchanged; at each level they strictly increase.

`sketch_to_bytes` is the only definition of the layout. `sketch_from_bytes`
reads the fields leniently, checks the state against the invariants of the
update rule, and then requires the sketch to save back to exactly the input
bytes. It therefore accepts precisely what the saver writes for a state some
stream can reach, and raises `SnapshotFormatError` on anything else. Shed-round
counters are per-process diagnostics: they are not saved and read 0 after a load.
"""

from __future__ import annotations

from binascii import hexlify, unhexlify
from fractions import Fraction
from pathlib import Path

from .errors import SnapshotFormatError
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
            % (hexlify(key), entry.est_count, inner.items_seen, len(inner))
        )
        for skey, count in inner.entries():
            lines.append(b"s %s %d" % (hexlify(skey), count))
    lines.append(b"end")
    return b"\n".join(lines) + b"\n"


def sketch_from_bytes(data: bytes) -> ChhSketch:
    """Load a snapshot written by `sketch_to_bytes` for a reachable state.

    The fields are read leniently, the state is checked against the
    invariants of the update rule, and the sketch must then save back to
    ``data`` exactly; anything else raises `SnapshotFormatError`.
    """
    lines = data.split(b"\n")
    if lines[0] != _MAGIC:
        raise SnapshotFormatError("not a sketch snapshot (bad magic line)")
    try:
        values = [line.partition(b" ")[2] for line in lines[1:8]]
        phi1, phi2, eps1, eps2 = (
            Fraction(int(num), int(den)) for num, den in (v.split(b"/") for v in values[:4])
        )
        s1, s2, n = map(int, values[4:])
        sketch = ChhSketch(ChhParams(phi1, phi2, eps1, eps2, s1, s2))
        sketch.n = n
        table = sketch._table
        # The `primaries` line, the inner sizes and `end` are left to the
        # re-save check, as are `s` lines before the first `p` line, which
        # land in this throwaway dict.
        entries: dict[bytes, int] = {}
        for line in lines[9:]:
            fields = line.split(b" ")
            if fields[0] == b"s":
                _, key, count = fields
                entries[unhexlify(key)] = int(count)
            elif fields[0] == b"p":
                _, key, est_count, items_seen, _ = fields
                inner = MgSummary(s2)
                inner.items_seen = int(items_seen)
                entries = inner._entries
                table[unhexlify(key)] = PrimaryEntry(int(est_count), inner, 0)
    except (ValueError, ZeroDivisionError) as exc:
        raise SnapshotFormatError(f"malformed snapshot: {exc}") from exc

    # A live entry gains est_count and items_seen together and loses
    # est_count (with one inner unit) on each outer shed, so inner total <=
    # est_count <= items_seen; each tuple adds to exactly one items_seen.
    # A loaded entry is synced at round 0 = outer_sweeps, so it is filed
    # under the round its count reaches zero.
    calendar = sketch._calendar
    seen = 0
    for key, entry in table.items():
        inner = entry.inner
        counts = inner._entries.values()
        if not (
            len(inner) <= s2
            and min(counts, default=1) >= 1
            and 1 <= entry.est_count
            and sum(counts) <= entry.est_count <= inner.items_seen
        ):
            raise SnapshotFormatError(f"entry for key {key!r} violates sketch invariants")
        calendar[entry.est_count].append(key)
        seen += inner.items_seen
    if len(table) > s1:
        raise SnapshotFormatError("more primary entries than the outer capacity")
    if seen > n:
        raise SnapshotFormatError("the entries have seen more tuples than n")
    if sketch_to_bytes(sketch) != data:
        raise SnapshotFormatError("snapshot is not in the canonical form that save writes")
    return sketch


def save_sketch(sketch: ChhSketch, path: str | Path) -> None:
    Path(path).write_bytes(sketch_to_bytes(sketch))


def load_sketch(path: str | Path) -> ChhSketch:
    return sketch_from_bytes(Path(path).read_bytes())
