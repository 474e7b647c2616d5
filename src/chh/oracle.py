"""Exact correlated heavy-hitter identification, for ground truth.

Exact answers need more than one pass (or unbounded memory), so these
routines are validation tools, not streaming algorithms. Two routes exist
and must agree: a naive full count of every value and pair, and a scheme of
two or three passes that narrows each dimension to a bounded candidate set
with an `MgSummary` and then counts only the candidates exactly, holding at
most ceil(1/phi1) - 1 primaries and (ceil(1/phi1) - 1) * (ceil(1/phi2) - 1)
pairs. The third pass runs only when a heavy primary's pair summary shed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import UnsupportedSourceError, check_replay
from .mg import MgSummary
from .params import FractionLike, to_thresholds

TupleSource = Iterable[tuple[bytes, bytes]]


@dataclass
class ExactCounts:
    """True frequencies: every counted primary value and (primary, secondary) pair.

    Produced complete by :func:`exact_counts_naive`; the multipass route fills
    it only for candidate primaries and the candidate pairs under the heavy
    ones, which is all the error statistics need.
    """

    n: int
    primary: dict[bytes, int]
    pairs: dict[tuple[bytes, bytes], int]


@dataclass
class ExactChh:
    """Exact heavy primaries and exact correlated heavy pairs, with counts.

    Membership uses the strict definitions, applied by
    :func:`exact_chh_from_counts`: f_d above phi1 * n for primaries (the one
    rule that `_heavy_primaries` writes), and f_{d,s} above phi2 * f_d for
    pairs under a heavy d.
    """

    primaries: dict[bytes, int]
    pairs: dict[tuple[bytes, bytes], int]
    counts: ExactCounts


def require_replayable(source: TupleSource) -> None:
    """Reject one-shot iterators; multi-pass consumers must re-iterate."""
    if iter(source) is source:
        raise UnsupportedSourceError(
            "source is a one-shot iterator; a replayable source (file-backed, "
            "generator-backed, or an in-memory sequence) is required"
        )


def exact_counts_naive(source: TupleSource) -> ExactCounts:
    """Count every primary value and every pair of ``source`` in memory.

    Memory holds one count per distinct primary and one per distinct pair.
    """
    primary: dict[bytes, int] = {}
    pairs: dict[tuple[bytes, bytes], int] = {}
    n = 0
    for x, y in source:
        n += 1
        primary[x] = primary.get(x, 0) + 1
        key = (x, y)
        pairs[key] = pairs.get(key, 0) + 1
    return ExactCounts(n=n, primary=primary, pairs=pairs)


def exact_chh_from_counts(
    counts: ExactCounts, phi1: FractionLike, phi2: FractionLike
) -> ExactChh:
    """Apply the strict heavy-hitter definitions directly to exact counts."""
    phi1, phi2 = to_thresholds(phi1, phi2)
    heavy = _heavy_primaries(counts.primary, counts.n, phi1)
    heavy_pairs = {
        (d, s): c
        for (d, s), c in counts.pairs.items()
        if d in heavy and c > phi2 * heavy[d]
    }
    return ExactChh(primaries=heavy, pairs=heavy_pairs, counts=counts)


def _heavy_primaries(primary: dict[bytes, int], n: int, phi1: Fraction) -> dict[bytes, int]:
    """The primary rule: the counts of ``primary`` above phi1 * n."""
    threshold = phi1 * n
    return {d: c for d, c in primary.items() if c > threshold}


def exact_chh_naive(source: TupleSource, phi1: FractionLike, phi2: FractionLike) -> ExactChh:
    return exact_chh_from_counts(exact_counts_naive(source), phi1, phi2)


def exact_chh_multipass(
    source: TupleSource, phi1: FractionLike, phi2: FractionLike
) -> ExactChh:
    """Exact heavy pairs in two or three passes and bounded memory.

    Both candidate summaries have capacity ceil(1/phi) - 1 for their phi.
    That suffices: a summary of capacity c that has seen m items undercounts
    by at most m/(c+1), and here c+1 = ceil(1/phi) >= 1/phi, so the
    undercount is at most phi*m and a value seen more than phi*m times keeps
    a positive count. Since phi < 1, the capacity is at least 1.

    Pass 1 collects primary candidates, so no value above the phi1 threshold
    is missed. Pass 2 counts each candidate exactly and feeds its
    secondaries to its own summary, which sees exactly the candidate's
    sub-stream, so no secondary above phi2 * f_d is missed. Only heavy
    primaries keep their candidate pairs. A summary that never shed holds
    the exact count of every secondary it saw, so pass 3 recounts only the
    pairs of heavy primaries whose summary shed, and is skipped when there
    are none. Memory is at most ceil(1/phi1) - 1 primary counts and
    (ceil(1/phi1) - 1) * (ceil(1/phi2) - 1) pair counts; the strict
    thresholds are applied by :func:`exact_chh_from_counts`. Raises
    `InconsistentInputError` when pass 2 or 3 reads a different number of
    tuples than pass 1, as a pipe or a FIFO does.
    """
    phi1, phi2 = to_thresholds(phi1, phi2)
    require_replayable(source)

    candidates = _candidate_summary(phi1)
    for x, _ in source:
        candidates.update(x)
    keys = [d for d, _ in candidates.entries()]
    return _exact_from_candidates(source, keys, candidates.items_seen, phi1, phi2)


def _candidate_capacity(phi: Fraction) -> int:
    """ceil(1/phi) - 1, the capacity of a candidate summary; see :func:`exact_chh_multipass`."""
    return math.ceil(1 / phi) - 1


def _candidate_summary(phi: Fraction) -> MgSummary:
    """An empty candidate summary of capacity :func:`_candidate_capacity`."""
    return MgSummary(_candidate_capacity(phi))


def _exact_from_candidates(
    source: TupleSource,
    candidates: Iterable[bytes],
    n1: int,
    phi1: Fraction,
    phi2: Fraction,
    pass2: TupleSource | None = None,
) -> ExactChh:
    """Passes 2 and, when needed, 3 of :func:`exact_chh_multipass`.

    Pass 1 read ``n1`` tuples and found ``candidates``, distinct primary keys
    that include every primary above phi1 * n1: the keys of the caller's
    candidate summary, or `ChhSketch.primary_candidates` of a large enough
    sketch. See :func:`exact_chh_multipass` for when pass 3 runs. Pass 2
    reads ``pass2`` when it is given: one pass over ``source`` that also does
    other work per tuple.
    """
    secondary_candidates = {d: _candidate_summary(phi2) for d in candidates}
    n = 0
    for x, y in source if pass2 is None else pass2:
        n += 1
        summary = secondary_candidates.get(x)
        if summary is not None:
            summary.update(y)
    check_replay(n1, n, 2)
    primary_counts = {d: summary.items_seen for d, summary in secondary_candidates.items()}
    heavy = _heavy_primaries(primary_counts, n, phi1)

    # A summary that never shed holds the exact count of every secondary it
    # saw; only the pairs of a heavy candidate whose summary shed need pass 3.
    # It only ever gets `update` calls, so it shed iff its counts sum below f_d.
    pair_counts = {
        (d, skey): count
        for d in heavy
        for skey, count in secondary_candidates[d].entries()
    }
    shed = {d for d, f_d in heavy.items() if secondary_candidates[d].total() != f_d}
    recount = {key: 0 for key in pair_counts if key[0] in shed}
    if recount:
        read = 0
        for x, y in source:
            read += 1
            key = (x, y)
            if key in recount:
                recount[key] += 1
        check_replay(n, read, 3)
        pair_counts.update(recount)
    return exact_chh_from_counts(ExactCounts(n, primary_counts, pair_counts), phi1, phi2)
