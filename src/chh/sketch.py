"""Single-pass sketch for correlated heavy-hitters over (x, y) tuple streams.

The sketch keeps an outer table of at most ``s1`` primary values. Each
retained primary value carries an estimated count and an inner `MgSummary`
of capacity ``s2`` over the secondary values that arrived with it. An update
with tuple (x, y) takes one of three paths:

1. x retained and y retained inside it: both counts increase.
2. x retained, y new: y enters the inner table with count 1; if the inner
   table overflows, every inner count drops by one and zero counts leave.
3. x new: a fresh entry (count 1, inner table {y: 1}) enters the outer
   table; if the outer table then overflows, every primary count drops by
   one, one unit of inner mass drops with it (smallest retained key, kept
   deterministic for reproducibility), and primaries at zero are discarded
   together with their inner tables.

Pairing the outer decrement with an inner decrement keeps every inner
table's total at or below its primary count, which is what makes the
reporting thresholds safe. Estimates never exceed true frequencies; a
primary count is short by less than n/s1 and a pair count by less than
f_d/s2 + n/s1, where n is the stream length so far and f_d the true
primary frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .mg import MgSummary
from .params import ChhParams


class PrimaryEntry:
    """Outer-table slot: estimated primary count plus the inner summary."""

    __slots__ = ("est_count", "inner")

    def __init__(self, est_count: int, inner: MgSummary):
        self.est_count = est_count
        self.inner = inner

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PrimaryEntry):
            return NotImplemented
        return self.est_count == other.est_count and self.inner == other.inner

    def __repr__(self) -> str:
        return f"PrimaryEntry(est_count={self.est_count}, inner={self.inner!r})"


@dataclass(frozen=True)
class ReportedPrimary:
    """One reported heavy primary with its reported correlated secondaries."""

    key: bytes
    est_count: int
    secondaries: tuple[tuple[bytes, int], ...]


@dataclass(frozen=True)
class ChhReport:
    """Report output: heavy primaries, each nesting its heavy secondaries.

    Primaries are sorted by key, secondaries within each primary by key, so
    identical sketches always produce identical reports.
    """

    n: int
    primaries: tuple[ReportedPrimary, ...]

    def pairs(self) -> Iterator[tuple[bytes, bytes, int]]:
        """Flatten to (primary, secondary, estimated pair count) rows."""
        for primary in self.primaries:
            for key, est in primary.secondaries:
                yield primary.key, key, est


class ChhSketch:
    """Correlated heavy-hitter sketch; one writer at a time per instance.

    Attributes:
        params: the thresholds and table sizes this sketch runs with.
        n: number of tuples absorbed so far.
        outer_sweeps: number of outer shed rounds run (diagnostic; bounded
            by n // (s1 + 1), since each round removes s1 + 1 units of mass).
    """

    def __init__(self, params: ChhParams):
        self.params = params
        self.n = 0
        self.outer_sweeps = 0
        self._table: dict[bytes, PrimaryEntry] = {}

    def __len__(self) -> int:
        return len(self._table)

    def update(self, x: bytes, y: bytes) -> None:
        """Absorb one (x, y) tuple."""
        self.n += 1
        entry = self._table.get(x)
        if entry is not None:
            entry.est_count += 1
            entry.inner.update(y)
            return
        inner = MgSummary(self.params.s2)
        inner.update(y)
        self._table[x] = PrimaryEntry(1, inner)
        if len(self._table) > self.params.s1:
            self._shed_outer()

    def _shed_outer(self) -> None:
        # One unit of mass leaves every primary entry, and a paired unit
        # leaves its inner table, keeping inner totals <= primary counts.
        # A round costs O(s1), plus O(s2) for each inner table that gained a
        # key since its last decrement (it rebuilds its key heap) and
        # O(log s2) for each one that did not.
        dead = []
        for key, entry in self._table.items():
            entry.est_count -= 1
            inner = entry.inner
            if len(inner):
                inner.decrement_least_key()
            if entry.est_count == 0:
                dead.append(key)
        for key in dead:
            del self._table[key]
        self.outer_sweeps += 1

    def consume(self, tuples: Iterable[tuple[bytes, bytes]]) -> None:
        """Feed every (x, y) pair of an iterable through update()."""
        update = self.update
        for x, y in tuples:
            update(x, y)

    def estimate_primary(self, d: bytes) -> int:
        """Estimated frequency of primary value ``d`` (0 when not retained)."""
        entry = self._table.get(d)
        return 0 if entry is None else entry.est_count

    def estimate_pair(self, d: bytes, s: bytes) -> int:
        """Estimated frequency of the pair (d, s) (0 when not retained)."""
        entry = self._table.get(d)
        return 0 if entry is None else entry.inner.estimate(s)

    def entries(self) -> list[tuple[bytes, PrimaryEntry]]:
        """Current outer entries sorted by key. Treat the entries as read-only."""
        return sorted(self._table.items())

    def report(self) -> ChhReport:
        """Heavy primaries and their correlated heavies at the current length.

        A primary d is reported when est_d >= (phi1 - 1/s1) * n; a secondary
        s under it when est_{d,s} >= (phi2 - 1/s2) * est_d - n/s1. Both
        thresholds are evaluated in exact rational arithmetic so boundary
        ties never fall to float rounding. With feasible parameters this
        reports every true heavy pair and nothing more than tolerance-close
        extras; with infeasible (raw) sizes it still evaluates the same
        thresholds verbatim.
        """
        p = self.params
        n = self.n
        primary_floor = (p.phi1 - Fraction(1, p.s1)) * n
        inner_rate = p.phi2 - Fraction(1, p.s2)
        outer_slack = Fraction(n, p.s1)
        reported = []
        for key, entry in self.entries():
            if entry.est_count >= primary_floor:
                inner_floor = inner_rate * entry.est_count - outer_slack
                secondaries = tuple(
                    (skey, est)
                    for skey, est in entry.inner.entries()
                    if est >= inner_floor
                )
                reported.append(ReportedPrimary(key, entry.est_count, secondaries))
        return ChhReport(n=n, primaries=tuple(reported))
