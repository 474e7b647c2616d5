import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chh import (
    ChhParams,
    ChhSketch,
    InconsistentInputError,
    InvalidParameterError,
    exact_chh_multipass,
    exact_chh_naive,
    exact_counts_naive,
    generate_zipf,
    primary_error_stats,
    secondary_error_stats,
    sketch_from_bytes,
    sketch_to_bytes,
    solve_params,
    sweep,
    sweep_csv_lines,
    ZipfWorkloadSpec,
)
from conftest import CountingSource, random_tuple_stream


def build(params, stream):
    sketch = ChhSketch(params)
    sketch.consume(stream)
    return sketch


def test_error_statistics_hand_derived_case():
    # stream: 3x(a,p), (b,q), (c,r) with s1=2 sheds once, leaving a at 2.
    stream = [(b"a", b"p")] * 3 + [(b"b", b"q"), (b"c", b"r")]
    params = ChhParams.from_raw("0.5", "0.5", 2, 4)
    sketch = build(params, stream)
    counts = exact_counts_naive(stream)

    primary = primary_error_stats(counts, sketch, "0.5")
    assert primary.per_item_errors == [(b"a", Fraction(1, 5))]
    assert primary.max_error == Fraction(1, 5)
    assert primary.avg_error == Fraction(1, 5)
    assert primary.theoretical_max == Fraction(1, 2)
    assert primary.per_item_errors

    secondary = secondary_error_stats(counts, sketch, "0.5", "0.5")
    assert secondary.per_item_errors == [((b"a", b"p"), Fraction(1, 3))]
    assert secondary.max_error == Fraction(1, 3)
    # implied eps1 = 1/4, so the ceiling is 1/4 + 1/((1/2 - 1/4) * 2) = 9/4
    assert secondary.theoretical_max == Fraction(1, 4) + Fraction(2)


def test_error_statistics_zero_without_shedding():
    stream = random_tuple_stream(4, 500, primaries=6, secondaries=4)
    params = ChhParams.from_raw("0.1", "0.1", 50, 50)
    sketch = build(params, stream)
    counts = exact_counts_naive(stream)
    primary = primary_error_stats(counts, sketch, "0.1")
    secondary = secondary_error_stats(counts, sketch, "0.1", "0.1")
    assert primary.per_item_errors
    assert primary.max_error == 0
    assert secondary.max_error == 0


def test_empty_heavy_sets_flagged():
    stream = [(str(i).encode(), b"y") for i in range(10)]
    params = ChhParams.from_raw("0.5", "0.5", 20, 4)
    sketch = build(params, stream)
    counts = exact_counts_naive(stream)
    stats = primary_error_stats(counts, sketch, "0.5")
    assert stats.per_item_errors == []
    assert stats.max_error == 0
    assert stats.avg_error == 0


def test_mismatched_stream_lengths_rejected():
    stream = [(b"a", b"p")] * 4
    sketch = build(ChhParams.from_raw("0.5", "0.5", 2, 2), stream)
    counts = exact_counts_naive(stream[:-1])
    with pytest.raises(InconsistentInputError):
        primary_error_stats(counts, sketch, "0.5")
    with pytest.raises(InconsistentInputError):
        secondary_error_stats(counts, sketch, "0.5", "0.5")


@pytest.mark.parametrize("phi1", ["0", "1", "-1", "3/2"])
def test_error_stats_reject_phi1_outside_unit_interval(phi1):
    stream = [(b"a", b"p")] * 4
    sketch = build(ChhParams.from_raw("0.5", "0.5", 2, 2), stream)
    counts = exact_counts_naive(stream)
    with pytest.raises(InvalidParameterError):
        primary_error_stats(counts, sketch, phi1)
    with pytest.raises(InvalidParameterError):
        secondary_error_stats(counts, sketch, phi1, "0.5")


def test_errors_measured_only_over_exact_heavy_sets():
    # b is reported by the sketch (tiny floor) but is not an exact heavy
    # hitter, so it must not contribute an error item.
    stream = [(b"a", b"p")] * 6 + [(b"b", b"q")] * 4
    params = ChhParams.from_raw("0.55", "0.5", 4, 4)
    sketch = build(params, stream)
    counts = exact_counts_naive(stream)
    stats = primary_error_stats(counts, sketch, "0.55")
    assert [item for item, _ in stats.per_item_errors] == [b"a"]


def test_bounds_hold_on_zipf_with_solver_params():
    spec = ZipfWorkloadSpec(
        tuple_count=30_000, primary_domain=500, secondary_domain=80,
        primary_skew=1.3, secondary_skew=1.1, seed=13,
    )
    source = generate_zipf(spec)
    params = solve_params("0.05", "0.1", "0.02", "0.08")
    sketch = build(params, source)
    counts = exact_counts_naive(source)
    primary = primary_error_stats(counts, sketch, "0.05")
    secondary = secondary_error_stats(counts, sketch, "0.05", "0.1")
    assert primary.max_error <= primary.theoretical_max
    assert secondary.max_error <= secondary.theoretical_max
    for stats in (primary, secondary):
        assert stats.per_item_errors
        assert 0 <= stats.avg_error <= stats.max_error
        assert all(err >= 0 for _, err in stats.per_item_errors)


def test_sweep_shapes_and_monotone_theory():
    stream = random_tuple_stream(21, 3000, primaries=60, secondaries=20)
    rows = sweep(stream, "0.05", "0.2", [20, 40], [5, 10, 20])
    assert [(r.s1, r.s2) for r in rows] == [
        (20, 5), (20, 10), (20, 20), (40, 5), (40, 10), (40, 20),
    ]
    for row in rows:
        assert row.n == 3000
        assert row.primary.theoretical_max == Fraction(1, row.s1)
        assert row.primary.max_error <= row.primary.theoretical_max
    # larger s2 at fixed s1 strictly lowers the secondary ceiling
    by_s1 = [r for r in rows if r.s1 == 20]
    assert (
        by_s1[0].secondary.theoretical_max
        > by_s1[1].secondary.theoretical_max
        > by_s1[2].secondary.theoretical_max
    )


def test_sweep_single_configuration_and_shared_oracle():
    stream = random_tuple_stream(22, 1000, primaries=30, secondaries=10)
    oracle = exact_chh_multipass(stream, "0.05", "0.2")
    rows = sweep(stream, "0.05", "0.2", [25], [10], oracle=oracle)
    assert len(rows) == 1
    again = sweep(stream, "0.05", "0.2", [25], [10], oracle=oracle)
    assert sweep_csv_lines(rows) == sweep_csv_lines(again)


def test_sweep_rejects_empty_lists():
    with pytest.raises(InvalidParameterError):
        sweep([(b"a", b"b")], "0.5", "0.5", [], [4])


def test_sweep_rejects_bad_size_before_reading():
    source = CountingSource([(b"a", b"b")] * 10)
    with pytest.raises(InvalidParameterError):
        sweep(source, "0.5", "0.5", [4, 0], [2])
    assert source.yielded == 0


def test_sweep_reads_three_passes_for_all_configurations():
    tuples = random_tuple_stream(24, 300, primaries=12, secondaries=6)
    source = CountingSource(tuples)
    rows = sweep(source, "0.1", "0.2", [10, 20], [4, 8])
    assert len(rows) == 4
    assert source.yielded == 3 * len(tuples)

    # With the oracle given, pass 1 feeds the largest configuration, (20, 8),
    # which holds 12 primaries and 6 secondaries under one of them. So no other
    # configuration can be read off it, and pass 2 feeds the other three.
    oracle = exact_chh_multipass(tuples, "0.1", "0.2")
    source = CountingSource(tuples)
    assert sweep(source, "0.1", "0.2", [10, 20], [4, 8], oracle=oracle) == rows
    assert source.yielded == 2 * len(tuples)


def test_sweep_reads_once_with_the_oracle_when_every_configuration_is_derived():
    # 12 primaries with at most 6 secondaries each: (20, 8) sheds nothing, and
    # every configuration fits what it holds. Summaries of capacity 9 never shed,
    # so the oracle skips its third pass.
    tuples = random_tuple_stream(24, 300, primaries=12, secondaries=6)
    assert len({x for x, _ in tuples}) == 12
    source = CountingSource(tuples)
    rows = sweep(source, "0.1", "0.1", [12, 20], [6, 8])
    assert source.yielded == 2 * len(tuples)
    oracle = exact_chh_multipass(tuples, "0.1", "0.1")
    source = CountingSource(tuples)
    assert sweep(source, "0.1", "0.1", [12, 20], [6, 8], oracle=oracle) == rows
    assert source.yielded == len(tuples)
    assert rows == [
        sweep(tuples, "0.1", "0.1", [s1], [s2], oracle=oracle)[0] for s1 in (12, 20) for s2 in (6, 8)
    ]


def test_sweep_reads_once_without_the_oracle_when_nothing_is_a_candidate():
    # 12 primaries of 25 tuples, each under 5 secondaries: (20, 8) sheds nothing,
    # so every configuration is derived. Its s1 is at least ceil(1/phi1) - 1 = 9,
    # so its dues give the candidates, and no due (25) exceeds floor(0.1 * 300).
    tuples = [(b"%d" % (i % 12), b"%d" % (i % 5)) for i in range(300)]
    naive = exact_chh_naive(tuples, "0.1", "0.1")
    expected = sweep(tuples, "0.1", "0.1", [12, 20], [5, 8], oracle=naive)
    source = CountingSource(tuples)
    assert sweep(source, "0.1", "0.1", [12, 20], [5, 8]) == expected
    assert source.yielded == len(tuples)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sweep_below_the_candidate_bound_matches_the_naive_oracle(seed):
    # With phi1 = 1/20, a sketch's dues give the candidates only from s1 = 19
    # on. Every s1 of the grid is below that, so the first pass feeds a sketch
    # of s1 = 19 that is no row, and the rows are fed in the second.
    rng = random.Random(seed)
    keys = [b"a"] * 6 + [b"b"] * 3 + [b"%d" % i for i in range(40)]
    tuples = [(rng.choice(keys), b"%d" % rng.randrange(8)) for _ in range(600)]
    source = CountingSource(tuples)
    rows = sweep(source, "1/20", "0.2", [5, 10], [3, 6])
    assert source.yielded <= 3 * len(tuples)
    assert [(row.s1, row.s2) for row in rows] == [(5, 3), (5, 6), (10, 3), (10, 6)]
    naive = exact_chh_naive(tuples, "1/20", "0.2")
    assert naive.primaries
    assert rows == sweep(tuples, "1/20", "0.2", [5, 10], [3, 6], oracle=naive)


def test_sweep_reads_twice_without_heavy_primaries():
    tuples = [(str(i).encode(), b"y") for i in range(10) for _ in range(10)]
    source = CountingSource(tuples)
    rows = sweep(source, "0.2", "0.5", [4, 8], [2])
    assert source.yielded == 2 * len(tuples)
    naive = exact_chh_naive(tuples, "0.2", "0.5")
    assert rows == sweep(tuples, "0.2", "0.5", [4, 8], [2], oracle=naive)
    assert all(not row.primary.per_item_errors and not row.secondary.per_item_errors for row in rows)


def test_sweep_csv_layout():
    stream = random_tuple_stream(23, 800, primaries=20, secondaries=8)
    lines = sweep_csv_lines(sweep(stream, "0.1", "0.2", [10], [4]))
    assert lines[0] == (
        "s1,s2,n,primary_max,primary_avg,primary_theory,"
        "secondary_max,secondary_avg,secondary_theory,"
        "reported_primaries,reported_pairs"
    )
    assert len(lines) == 2
    assert lines[1].startswith("10,4,800,")
    assert len(lines[1].split(",")) == 11


SHED_KINDS = {
    "sheds-nothing": (False, False),
    "sheds-outer": (True, False),
    "sheds-inner": (False, True),
    "sheds-both": (True, True),
}


@st.composite
def shedding_grids(draw, outer, inner):
    """A stream and a grid whose largest configuration L sheds as ``outer`` and ``inner`` say.

    A head of s2 + 1 secondaries under a fresh primary makes L shed an inner
    table; a tail of s1 + 1 fresh primaries makes it run an outer round.
    Without them, L's sizes are raised to at least what the stream holds, so
    it sheds nothing of that kind.
    """
    key = st.integers(0, 5).map(b"%d".__mod__)
    stream = draw(st.lists(st.tuples(key, key), max_size=40))
    s1, s2 = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    if inner:
        stream = [(b"head", b"%d" % i) for i in range(s2 + 1)] + stream
    else:
        per_primary = {}
        for x, y in stream:
            per_primary.setdefault(x, set()).add(y)
        s2 = max(s2, *map(len, per_primary.values()), 1) + draw(st.integers(0, 2))
    if outer:
        stream += [(b"tail%d" % i, b"0") for i in range(s1 + 1)]
    else:
        s1 = max(s1, len({x for x, _ in stream})) + draw(st.integers(0, 2))
    s1_values = list(dict.fromkeys(draw(st.lists(st.integers(1, s1), max_size=3)) + [s1]))
    s2_values = list(dict.fromkeys(draw(st.lists(st.integers(1, s2), max_size=3)) + [s2]))
    return stream, s1_values, s2_values


def sketch_state(sketch, stream):
    """Everything a sketch answers about ``stream``'s keys, with its settled entries."""
    keys = {x for x, _ in stream} | {b"absent"}
    pairs = set(stream) | {(b"absent", b"0")}
    return (
        sketch.params,
        sketch.n,
        sketch.outer_sweeps,
        sorted((d, sketch.estimate_primary(d)) for d in keys),
        sorted((pair, sketch.estimate_pair(*pair)) for pair in pairs),
        [
            (key, sketch.estimate_primary(key), entry.inner.items_seen, entry.inner.entries())
            for key, entry in sketch.entries()
        ],
    )


def check_derived_configurations(stream, s1_values, s2_values):
    """Sweep rows, and every sketch the rule derives, against directly built sketches."""
    naive = exact_chh_naive(stream, "1/4", "1/3")
    rows = sweep(stream, "1/4", "1/3", s1_values, s2_values, oracle=naive)
    assert rows == sweep(stream, "1/4", "1/3", s1_values, s2_values)
    assert rows == [
        sweep(stream, "1/4", "1/3", [s1], [s2], oracle=naive)[0] for s1 in s1_values for s2 in s2_values
    ]

    largest = build(ChhParams.from_raw("1/4", "1/3", max(s1_values), max(s2_values)), stream)
    assert largest.derive([largest.params])[0] is not None
    for s1 in s1_values:
        for s2 in s2_values:
            params = ChhParams.from_raw("1/4", "1/3", s1, s2)
            derived = largest.derive([params])[0]
            if derived is None:
                continue
            direct = build(params, stream)
            assert sketch_state(derived, stream) == sketch_state(direct, stream)
            data = sketch_to_bytes(derived)
            assert data == sketch_to_bytes(direct)
            assert sketch_state(sketch_from_bytes(data), stream) == sketch_state(direct, stream)


@pytest.mark.parametrize("outer, inner", SHED_KINDS.values(), ids=SHED_KINDS)
@given(data=st.data())
def test_derived_configurations_match_directly_built_sketches(outer, inner, data):
    stream, s1_values, s2_values = data.draw(shedding_grids(outer, inner))
    largest = build(ChhParams.from_raw("1/4", "1/3", max(s1_values), max(s2_values)), stream)
    assert (largest.outer_sweeps > 0) == outer
    if not outer:
        lost = largest.n - sum(entry.inner.total() for _, entry in largest.entries())
        assert (lost > 0) == inner
    check_derived_configurations(stream, s1_values, s2_values)


@pytest.mark.parametrize("s1_values, s2_values", [([1], [1]), ([1, 3], [2, 1]), ([4, 2], [3])])
def test_every_configuration_is_derived_from_an_empty_stream(s1_values, s2_values):
    largest = build(ChhParams.from_raw("1/4", "1/3", max(s1_values), max(s2_values)), [])
    for s1 in s1_values:
        for s2 in s2_values:
            assert largest.derive([ChhParams.from_raw("1/4", "1/3", s1, s2)])[0] is not None
    check_derived_configurations([], s1_values, s2_values)
