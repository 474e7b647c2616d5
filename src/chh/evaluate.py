"""Error statistics against ground truth, parameter sweeps, and CSV output.

The error statistic for a heavy primary d is (f_d - est_d) / n; for a heavy
pair (d, s) it is (f_{d,s} - est_{d,s}) / f_d. Both are measured only over
the exact heavy sets (never over whatever extras a sketch reported), and
both stay below a closed-form ceiling whenever the sketch ran with feasible
parameters, read off the `ChhParams` slack methods: ``primary_slack(1)``, or
1/s1, for primaries, and ``pair_slack(f, 1) / f`` at f = phi1 - eps1, or
1/s2 + 1/((phi1 - eps1) s1), for pairs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, starmap
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, Union

from .errors import InconsistentInputError, InvalidParameterError
from .oracle import (
    ExactChh,
    ExactCounts,
    TupleSource,
    _candidate_capacity,
    _candidate_summary,
    _exact_from_candidates,
    _heavy_primaries,
    exact_chh_from_counts,
    require_replayable,
)
from .params import ChhParams, FractionLike, _to_threshold
from .sketch import ChhSketch

ErrorItem = Union[bytes, tuple[bytes, bytes]]

# Tuples fed to the sketches of pass 2 at a time.
FEED_TUPLES = 1024


@dataclass
class ErrorStats:
    """Per-item relative undercounts plus their max, mean, and ceiling.

    A measurement over no items reports max and mean as 0.
    """

    per_item_errors: list[tuple[ErrorItem, Fraction]]
    max_error: Fraction
    avg_error: Fraction
    theoretical_max: Fraction


def _finish(
    errors: list[tuple[ErrorItem, Fraction]], theoretical_max: Fraction
) -> ErrorStats:
    values = [err for _, err in errors]
    return ErrorStats(
        per_item_errors=errors,
        max_error=max(values, default=Fraction(0)),
        avg_error=sum(values, Fraction(0)) / max(len(values), 1),
        theoretical_max=theoretical_max,
    )


def _check_same_stream(exact: ExactCounts, sketch: ChhSketch) -> None:
    if exact.n != sketch.n:
        raise InconsistentInputError(
            f"exact counts cover {exact.n} tuples but the sketch saw {sketch.n}"
        )


def primary_error_stats(
    exact: ExactCounts, sketch: ChhSketch, phi1: FractionLike
) -> ErrorStats:
    """Relative undercount (f_d - est_d)/n over the exact heavy primaries."""
    _check_same_stream(exact, sketch)
    heavy = _heavy_primaries(exact.primary, exact.n, _to_threshold(phi1, "phi1"))
    return _primary_stats(sorted(heavy.items()), sketch)


def _primary_stats(heavy: list[tuple[bytes, int]], sketch: ChhSketch) -> ErrorStats:
    """`primary_error_stats` over ``heavy``, the exact heavy (d, f_d) sorted by d."""
    n = sketch.n
    errors = [(d, Fraction(count - sketch.estimate_primary(d), n)) for d, count in heavy]
    # The ceiling is primary_slack(n) / n, taken at n = 1 because n may be 0.
    return _finish(errors, sketch.params.primary_slack(1))


def secondary_theoretical_max(params: ChhParams) -> Fraction:
    """Ceiling for the pair error statistic: 1/s2 plus the outer-shed share.

    This is the pair slack per unit of f_d, taken at f_d = (phi1 - eps1) * n,
    because any reported primary's true count is at least that fraction of n.
    """
    f = params.phi1 - params.eps1
    return params.pair_slack(f, 1) / f


def secondary_error_stats(
    exact: ExactCounts,
    sketch: ChhSketch,
    phi1: FractionLike,
    phi2: FractionLike,
) -> ErrorStats:
    """Relative undercount (f_{d,s} - est_{d,s})/f_d over the exact heavy pairs."""
    _check_same_stream(exact, sketch)
    truth = exact_chh_from_counts(exact, phi1, phi2)
    return _secondary_stats(truth.primaries, sorted(truth.pairs.items()), sketch)


def _secondary_stats(
    primaries: dict[bytes, int], pairs: list[tuple[tuple[bytes, bytes], int]], sketch: ChhSketch
) -> ErrorStats:
    """`secondary_error_stats` over the exact heavy ``pairs``, sorted, under ``primaries``."""
    errors = [
        ((d, s), Fraction(count - sketch.estimate_pair(d, s), primaries[d]))
        for (d, s), count in pairs
    ]
    return _finish(errors, secondary_theoretical_max(sketch.params))


@dataclass
class SweepRow:
    """One sweep configuration with its measured and theoretical errors."""

    s1: int
    s2: int
    n: int
    primary: ErrorStats
    secondary: ErrorStats
    reported_primaries: int
    reported_pairs: int


def sweep(
    source: TupleSource,
    phi1: FractionLike,
    phi2: FractionLike,
    s1_values: Sequence[int],
    s2_values: Sequence[int],
    oracle: ExactChh | None = None,
) -> list[SweepRow]:
    """One row per (s1, s2) pair, each sketch scored against a single shared oracle run.

    Table sizes are taken as given (`ChhParams.from_raw`), so rows may run
    with infeasible sizes on purpose; the per-row theoretical columns then
    carry the tolerances those sizes imply. Every configuration's sizes are
    checked before the first pass over ``source``.

    Pass 1 feeds only the largest configuration L, (max s1, max s2). Without
    ``oracle``, the oracle's primary candidates are `ChhSketch.primary_candidates`
    of L, which include every heavy primary when max s1 is at least
    ceil(1/phi1) - 1; below that, pass 1 also feeds the candidate summary of
    :func:`exact_chh_multipass`. Every configuration that `ChhSketch.derive`
    can read off L is derived from it, with no copy. The others are fed in
    pass 2, in the same loop as the oracle's pass 2; its pass 3 follows when
    a heavy primary's pair summary shed. Pass 2 runs only when a
    configuration must be fed or, without ``oracle``, there is a candidate;
    otherwise no primary is heavy, and the counts hold n alone. So
    ``source`` is read once, twice, or (only without ``oracle``) three
    times. Memory is L plus the sketches that are not derived, held at once.
    """
    require_replayable(source)
    if not s1_values or not s2_values:
        raise InvalidParameterError("s1_values and s2_values must be non-empty")
    configs = [ChhParams.from_raw(phi1, phi2, s1, s2) for s1 in s1_values for s2 in s2_values]
    phi1, phi2 = configs[0].phi1, configs[0].phi2
    largest = ChhSketch(max(configs, key=lambda params: (params.s1, params.s2)))
    summary = None
    if oracle is None and largest.params.s1 < _candidate_capacity(phi1):
        summary = _candidate_summary(phi1)
    if summary is None:
        largest.consume(source)
    else:
        update = largest.update
        for x, y in source:
            summary.update(x)
            update(x, y)
    sketches, fed = [], []
    for params, sketch in zip(configs, largest._derive_all(configs)):
        if sketch is None:
            sketch = ChhSketch(params)
            fed.append(sketch.update)
        sketches.append(sketch)
    pass2 = chain.from_iterable(_fed_blocks(source, fed)) if fed else None
    if oracle is not None:
        if pass2 is not None:
            deque(pass2, 0)
        truth = exact_chh_from_counts(oracle.counts, phi1, phi2)
    else:
        if summary is None:
            candidates = largest.primary_candidates(phi1)
        else:
            candidates = [d for d, _ in summary.entries()]
        if candidates or fed:
            truth = _exact_from_candidates(source, candidates, largest.n, phi1, phi2, pass2)
        else:
            truth = ExactChh({}, {}, ExactCounts(largest.n, {}, {}))
    heavy, pairs = sorted(truth.primaries.items()), sorted(truth.pairs.items())
    rows = []
    for sketch in sketches:
        _check_same_stream(truth.counts, sketch)
        report = sketch.report()
        rows.append(
            SweepRow(
                s1=sketch.params.s1,
                s2=sketch.params.s2,
                n=sketch.n,
                primary=_primary_stats(heavy, sketch),
                secondary=_secondary_stats(truth.primaries, pairs, sketch),
                reported_primaries=len(report.primaries),
                reported_pairs=sum(len(p.secondaries) for p in report.primaries),
            )
        )
    return rows


def _fed_blocks(
    source: TupleSource, updates: list[Callable[[bytes, bytes], None]]
) -> Iterator[list[tuple[bytes, bytes]]]:
    """One pass over ``source`` in blocks of ``FEED_TUPLES`` tuples.

    Each block is fed to every one of ``updates`` before it is yielded, by a
    C-level loop per update, so a sketch costs no Python loop of its own.
    """
    tuples = iter(source)
    while block := list(islice(tuples, FEED_TUPLES)):
        for update in updates:
            deque(starmap(update, block), 0)
        yield block


SWEEP_CSV_HEADER = (
    "s1,s2,n,primary_max,primary_avg,primary_theory,"
    "secondary_max,secondary_avg,secondary_theory,reported_primaries,reported_pairs"
)


def _decimal(value: Fraction) -> str:
    return format(float(value), ".12g")


def sweep_csv_lines(rows: Iterable[SweepRow]) -> list[str]:
    lines = [SWEEP_CSV_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                (
                    str(row.s1),
                    str(row.s2),
                    str(row.n),
                    _decimal(row.primary.max_error),
                    _decimal(row.primary.avg_error),
                    _decimal(row.primary.theoretical_max),
                    _decimal(row.secondary.max_error),
                    _decimal(row.secondary.avg_error),
                    _decimal(row.secondary.theoretical_max),
                    str(row.reported_primaries),
                    str(row.reported_pairs),
                )
            )
        )
    return lines


def write_sweep_csv(rows: Iterable[SweepRow], path: str | Path) -> None:
    Path(path).write_bytes(("\n".join(sweep_csv_lines(rows)) + "\n").encode("ascii"))
