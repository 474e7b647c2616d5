"""Sketch snapshots: a versioned, canonical, byte-stable text layout.

The layout is line oriented ASCII: a magic header, the parameters as
reduced ``numerator/denominator`` rationals, the table sizes, the stream
length and the number of outer entries, then one ``p`` line per outer entry
(key, estimated count, inner ``items_seen``, inner size) followed by its
``s`` lines (key, count), and an ``end`` line. Keys are lowercase hex, so
arbitrary byte strings, including empty ones and ones containing tabs or
newlines, survive unchanged; at each level they strictly increase.

`_batches` is the only definition of the layout: it yields the layout in
batches of whole lines, which `sketch_to_bytes` joins and `save_sketch` writes
one by one. `sketch_from_bytes` reads the input one line at a time, so it holds
no object per line, and reads the fields leniently into plain rows, has
`ChhSketch.restore` check them against the invariants of the update rule, and
then requires the sketch to save back to exactly the input bytes, compared
batch by batch. It therefore accepts only what the saver writes for a state
that meets every rule a reachable state must meet, and raises
`SnapshotFormatError` on anything else. That the rules also suffice, so that
it accepts exactly the states some stream reaches, is checked exhaustively on
small sizes, not proven.
The shed-round counters are not saved: ``outer_sweeps`` is recovered from n
and the primary counts, and each inner ``sweeps`` reads 0.
"""

from __future__ import annotations

import io
from binascii import hexlify, unhexlify
from fractions import Fraction
from pathlib import Path
from typing import Iterator

from .errors import SnapshotFormatError
from .params import ChhParams
from .sketch import ChhSketch

_MAGIC = b"chh-sketch v1"
_NOT_CANONICAL = "snapshot is not in the canonical form that save writes"
_BATCH_LINES = 4096


def _batches(sketch: ChhSketch) -> Iterator[bytes]:
    """The layout as runs of whole lines, so no caller holds one object per line.

    A batch closes at the first primary boundary after ``_BATCH_LINES`` lines.
    """
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
        if len(lines) >= _BATCH_LINES:
            yield b"\n".join(lines) + b"\n"
            lines = []
        inner = entry.inner
        lines.append(
            b"p %s %d %d %d"
            % (hexlify(key), sketch.estimate_primary(key), inner.items_seen, len(inner))
        )
        for skey, count in inner.entries():
            lines.append(b"s %s %d" % (hexlify(skey), count))
    lines.append(b"end")
    yield b"\n".join(lines) + b"\n"


def sketch_to_bytes(sketch: ChhSketch) -> bytes:
    return b"".join(_batches(sketch))


def sketch_from_bytes(data: bytes) -> ChhSketch:
    """Load a snapshot written by `sketch_to_bytes` for a reachable state; see the module doc."""
    lines = io.BytesIO(data)
    if lines.readline() != _MAGIC + b"\n":
        raise SnapshotFormatError("not a sketch snapshot (bad magic line)")
    try:
        # The last field of a line keeps its newline, which `int` ignores.
        values = [lines.readline().partition(b" ")[2] for _ in range(7)]
        phi1, phi2, eps1, eps2 = (
            Fraction(int(num), int(den)) for num, den in (v.split(b"/") for v in values[:4])
        )
        s1, s2, n = map(int, values[4:])
        params = ChhParams(phi1, phi2, eps1, eps2, s1, s2)
        # The `primaries` line, the inner sizes and `end` are left to the
        # re-save check, as are `s` lines before the first `p` line, which
        # land in this throwaway dict.
        lines.readline()
        rows = []
        counts: dict[bytes, int] = {}
        for line in lines:
            fields = line.split(b" ")
            if fields[0] == b"s":
                _, key, count = fields
                counts[unhexlify(key)] = int(count)
            elif fields[0] == b"p":
                _, key, est_count, items_seen, _ = fields
                counts = {}
                rows.append((unhexlify(key), int(est_count), int(items_seen), counts))
    except (ValueError, ZeroDivisionError) as exc:
        raise SnapshotFormatError(f"malformed snapshot: {exc}") from exc
    sketch = ChhSketch.restore(params, n, rows)
    pos = 0
    for batch in _batches(sketch):
        if not data.startswith(batch, pos):
            raise SnapshotFormatError(_NOT_CANONICAL)
        pos += len(batch)
    if pos != len(data):
        raise SnapshotFormatError(_NOT_CANONICAL)
    return sketch


def save_sketch(sketch: ChhSketch, path: str | Path) -> None:
    with open(path, "wb") as out:
        out.writelines(_batches(sketch))


def load_sketch(path: str | Path) -> ChhSketch:
    return sketch_from_bytes(Path(path).read_bytes())
