"""Single-pass sketch for correlated heavy-hitters over (x, y) tuple streams.

The sketch keeps an outer table of at most ``s1`` primary values. Each
retained primary value carries an estimated count and an inner `MgSummary`
of capacity ``s2`` over the secondary values that arrived with it. An update
with tuple (x, y) takes one of three paths:

1. x retained and y retained inside it: both counts increase.
2. x retained, y new: y enters the inner table with count 1; if the inner
   table overflows, every inner count drops by one and zero counts leave.
3. x new: a fresh entry (count 1, inner table {y: 1}) enters the outer
   table; if the outer table then overflows, an outer shed round runs:
   every primary count drops by one, one unit of inner mass drops with it
   (smallest retained key, kept deterministic for reproducibility), and
   primaries at zero are discarded together with their inner tables.

Pairing the outer decrement with an inner decrement keeps every inner
table's total at or below its primary count, which is what makes the
reporting thresholds safe. Estimates never exceed true frequencies; a
primary count is short by less than n/s1 (`ChhParams.primary_slack`) and a
pair count by less than f_d/s2 + n/s1 (`ChhParams.pair_slack`), where n is
the stream length so far and f_d the true primary frequency.

The outer shed round is lazy, in the manner of the O(1)-per-item Frequent
implementations (Demaine, Lopez-Ortiz and Munro 2002; Karp, Shenker and
Papadimitriou 2003). ``outer_sweeps`` is the round clock, and each entry
stores ``due``, the round its count reaches zero, so its count is
``due - outer_sweeps``. A calendar files every key under one round no later
than its due round; a round visits only its own bucket, drops the entries
that are due and files the others under their own later due round. The
units an entry owes its inner table reach it in one `MgSummary.decrement_least`
call when it is read: before a hit updates it, in `ChhSketch.estimate_pair`,
`ChhSketch.entries` and the snapshot save, and in `ChhSketch.report` for the
primaries it reports. Nothing else touches an inner table between two of
those reads, so the state read is the one the eager round would have left.
Besides the insert and the round, only `ChhSketch.restore` files keys.
"""

from __future__ import annotations

from collections import defaultdict
from math import ceil
from typing import Iterable, NamedTuple

from .errors import SnapshotFormatError
from .mg import MgSummary
from .params import ChhParams


class PrimaryEntry:
    """Outer-table slot: the round ``due`` its count reaches zero, and the inner summary.

    After round r of the owning sketch the count is ``due - r``. ``inner`` is
    exact as of round ``synced``; each round run since then owes it one unit
    until `settle`.
    """

    __slots__ = ("due", "inner", "synced")

    def __init__(self, due: int, inner: MgSummary, synced: int):
        self.due = due
        self.inner = inner
        self.synced = synced

    def settle(self, outer_sweeps: int) -> None:
        """Pay the inner units owed for the rounds up to ``outer_sweeps`` in one call."""
        self.inner.decrement_least(outer_sweeps - self.synced)
        self.synced = outer_sweeps


class ReportedPrimary(NamedTuple):
    """One reported heavy primary with its reported correlated secondaries."""

    key: bytes
    est_count: int
    secondaries: tuple[tuple[bytes, int], ...]


class ChhReport(NamedTuple):
    """Report output: heavy primaries, each nesting its heavy secondaries.

    Primaries are sorted by key, secondaries within each primary by key, so
    identical sketches always produce identical reports.
    """

    primaries: tuple[ReportedPrimary, ...]


class ChhSketch:
    """Correlated heavy-hitter sketch; one writer at a time per instance.

    Attributes:
        params: the thresholds and table sizes this sketch runs with.
        n: number of tuples absorbed so far.
        outer_sweeps: number of outer shed rounds run, bounded by
            n // (s1 + 1), since each round removes s1 + 1 units of mass;
            also the clock that `PrimaryEntry.synced` is read against. A
            load recovers it from n and the primary counts.
    """

    def __init__(self, params: ChhParams):
        self.params = params
        self.n = 0
        self.outer_sweeps = 0
        self._table: dict[bytes, PrimaryEntry] = {}
        # Round -> keys to visit in that round: each key once, no later than its zero round.
        self._calendar: defaultdict[int, list[bytes]] = defaultdict(list)

    @classmethod
    def restore(cls, params: ChhParams, n: int, rows: list[tuple]) -> ChhSketch:
        """Rebuild a sketch from settled ``(key, est_count, items_seen, counts)`` rows.

        Every state some stream reaches obeys these rules:
        - A tuple adds one unit to one primary and a round takes one from s1 + 1,
          so ``n - sum(est_count) == (s1 + 1) * outer_sweeps``.
        - Each tuple of an entry adds one to est_count and to items_seen, each
          round it lives through takes one from est_count only, and it leaves at
          0. So it has lived through ``items_seen - est_count`` rounds, and
          ``1 <= est_count <= items_seen <= est_count + outer_sweeps``.
        - A tuple adds one to est_count and to sum(counts), an inner shed takes
          s2 + 1 from counts only, and a round takes one from est_count and one
          from counts unless they are empty. So ``sum(counts) <= est_count``,
          and the inner loss ``items_seen - sum(counts)`` is a multiple of
          s2 + 1 plus at most one unit per round lived through:
          ``(items_seen - sum(counts)) % (s2 + 1) <= items_seen - est_count``.
        Raises `SnapshotFormatError` on a state that breaks these rules. That
        the rules also suffice, so that some stream reaches every state they
        admit, is not proven; a test checks it exhaustively on the smallest
        table sizes and streams. Keys are distinct.
        """
        sketch = cls(params)
        sketch.n = n
        sweeps, rest = divmod(n - sum(row[1] for row in rows), params.s1 + 1)
        if rest or sweeps < 0 or len(rows) > params.s1:
            raise SnapshotFormatError("the primary counts and their number do not fit n and s1")
        sketch.outer_sweeps = sweeps
        for key, est_count, items_seen, counts in rows:
            total = sum(counts.values())
            if not (
                len(counts) <= params.s2
                and min(counts.values(), default=1) >= 1
                and total <= est_count
                and 1 <= est_count <= items_seen <= est_count + sweeps
                and (items_seen - total) % (params.s2 + 1) <= items_seen - est_count
            ):
                raise SnapshotFormatError(f"entry for key {key!r} violates sketch invariants")
            inner = MgSummary.restore(params.s2, items_seen, counts)
            entry = sketch._table[key] = PrimaryEntry(sweeps + est_count, inner, sweeps)
            sketch._file(key, entry)
        return sketch

    def __len__(self) -> int:
        return len(self._table)

    def derive(self, configs: list[ChhParams]) -> list[ChhSketch | None]:
        """For each of ``configs``, the sketch it would have built from this stream, or None.

        Write L for this sketch, with sizes (S1, S2), and R for a sketch with
        sizes (r1, r2) fed the same stream. R is read off L when both tests
        hold, and None is returned otherwise:
        - outer: r1 == S1, or L ran no outer round and ``len(L) <= r1``;
        - inner: r2 == S2, or L lost no mass (its inner totals sum to n) and
          no inner table of L holds more than r2 keys.
        Proof, by induction over the stream. Equal states stay equal under a
        tuple unless an insert overflows a table in one sketch but not in the
        other: sizes enter an update only through the two overflow tests, and
        a round and its settling do not read them. An outer table of L that
        ran no round never lost an entry, so its size never exceeded its final
        ``len(L)``; if that is at most r1, neither sketch's outer test ever
        fires. A tuple adds one unit of inner mass, and an inner shed, an
        outer round's unit and a dropped entry each take some away, so if L
        lost none, none of them happened in L. Then every inner table of L
        only grew and never exceeded its final size; if no final size exceeds
        r2, neither sketch's inner test ever fires. Otherwise both tests are
        the same test.
        The rule reads ``outer_sweeps`` and ``len`` first, and the inner
        tables only when L ran no round, at most once for all of ``configs``,
        so it settles nothing. Each result shares L's tables under its
        params, with no copy: it must take no update, and L none while it is
        in use.
        """
        own, rounds = self.params, self.outer_sweeps
        fill = None  # (sum of inner totals, largest inner size), read only if no round ran
        derived_all = []
        for params in configs:
            fits = params.s1 == own.s1 or (not rounds and len(self._table) <= params.s1)
            if fits and params.s2 != own.s2:
                if not rounds and fill is None:
                    inners = [entry.inner for entry in self._table.values()]
                    fill = sum(map(MgSummary.total, inners)), max(map(len, inners), default=0)
                fits = not rounds and fill[0] == self.n and fill[1] <= params.s2
            derived = None
            if fits:
                derived = ChhSketch(params)
                derived.n, derived.outer_sweeps = self.n, rounds
                derived._table, derived._calendar = self._table, self._calendar
            derived_all.append(derived)
        return derived_all

    def update(self, x: bytes, y: bytes) -> None:
        """Absorb one (x, y) tuple."""
        self.n += 1
        entry = self._table.get(x)
        sweeps = self.outer_sweeps
        if entry is not None:
            if entry.synced != sweeps:
                entry.settle(sweeps)
            entry.due += 1
            entry.inner.update(y)
            return
        inner = MgSummary(self.params.s2)
        inner.update(y)
        entry = self._table[x] = PrimaryEntry(sweeps + 1, inner, sweeps)
        self._file(x, entry)
        if len(self._table) > self.params.s1:
            self._shed_outer()

    def _file(self, key: bytes, entry: PrimaryEntry) -> None:
        """The calendar rule: ``key`` waits for the round its count reaches zero."""
        self._calendar[entry.due].append(key)

    def _shed_outer(self) -> None:
        # One unit of mass leaves every primary entry, and a paired unit
        # leaves its inner table (paid at the entry's next read), keeping
        # inner totals <= primary counts. Only this round's bucket is
        # visited: it holds the new key, which is due now, so the round
        # drops at least one entry. A hit only moves an entry's due round
        # later, so a key found early is filed again, never late.
        self.outer_sweeps = due = self.outer_sweeps + 1
        table = self._table
        file = self._file
        for key in self._calendar.pop(due):
            entry = table[key]
            if entry.due > due:
                file(key, entry)
            else:
                del table[key]

    def consume(self, tuples: Iterable[tuple[bytes, bytes]]) -> None:
        """Feed every (x, y) pair of an iterable through update()."""
        update = self.update
        for x, y in tuples:
            update(x, y)

    def estimate_primary(self, d: bytes) -> int:
        """Estimated frequency of primary value ``d`` (0 when not retained)."""
        entry = self._table.get(d)
        return 0 if entry is None else entry.due - self.outer_sweeps

    def primary_candidates(self) -> list[bytes]:
        """The retained primaries whose ``due`` exceeds floor(phi1 * n), unsorted.

        ``due`` is ``est_d + outer_sweeps``. With f_d the true count of d so
        far, and R = ``outer_sweeps``:
        - a retained d has ``f_d <= est_d + R = due``, since each round takes
          at most one unit from d, and nothing else takes any;
        - a d that is not retained has ``f_d <= R``: every unit it received
          has been taken, and no round took two;
        - each round takes s1 + 1 units, so ``(s1 + 1) * R <= n``; when
          ``s1 >= ceil(1/phi1) - 1``, s1 + 1 >= 1/phi1 and R <= phi1 * n, so
          no primary that is not retained is heavy (f_d > phi1 * n);
        - the dues sum to ``n - (s1 + 1) * R + len(self) * R <= n``, and each
          candidate's due is above phi1 * n, so there are fewer than 1/phi1
          candidates: at most ``ceil(1/phi1) - 1``.
        So under that size every heavy primary is a candidate, since an
        integer f_d exceeds phi1 * n exactly when it exceeds floor(phi1 * n).
        phi1 is this sketch's own; the compare is on integers, and nothing is
        settled.
        """
        phi1 = self.params.phi1
        floor = phi1.numerator * self.n // phi1.denominator
        return [key for key, entry in self._table.items() if entry.due > floor]

    def estimate_pair(self, d: bytes, s: bytes) -> int:
        """Estimated frequency of the pair (d, s) (0 when not retained).

        Settles the units entry ``d`` owes its inner table first.
        """
        entry = self._table.get(d)
        if entry is None:
            return 0
        entry.settle(self.outer_sweeps)
        return entry.inner.estimate(s)

    def entries(self) -> list[tuple[bytes, PrimaryEntry]]:
        """Current outer entries sorted by key. Treat the entries as read-only.

        Settles every entry first, so each inner table is current; this costs
        one `MgSummary.decrement_least` call per entry, O(1) when it owes none.
        """
        sweeps = self.outer_sweeps
        for entry in self._table.values():
            entry.settle(sweeps)
        return sorted(self._table.items())

    def report(self) -> ChhReport:
        """Heavy primaries and their correlated heavies at the current length.

        A primary d is reported when est_d >= phi1 * n - primary_slack(n),
        and a secondary s under it when est_{d,s} >= phi2 * est_d -
        pair_slack(est_d, n), with the `ChhParams` slack methods. Both
        thresholds are exact rationals, so boundary ties never fall to float
        rounding; an integer count meets one exactly when it meets its
        ceiling. With feasible parameters this reports every true heavy pair
        and nothing more than tolerance-close extras; with infeasible (raw)
        sizes it still evaluates the same thresholds verbatim. Only the
        reported primaries are settled and sorted.
        """
        p = self.params
        n = self.n
        sweeps = self.outer_sweeps
        primary_floor = ceil(p.phi1 * n - p.primary_slack(n))
        heavy = sorted((k, e) for k, e in self._table.items() if e.due - sweeps >= primary_floor)
        reported = []
        for key, entry in heavy:
            entry.settle(sweeps)
            count = entry.due - sweeps
            inner_floor = ceil(p.phi2 * count - p.pair_slack(count, n))
            secondaries = tuple(
                (skey, est) for skey, est in entry.inner.entries() if est >= inner_floor
            )
            reported.append(ReportedPrimary(key, count, secondaries))
        return ChhReport(primaries=tuple(reported))
