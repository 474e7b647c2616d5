from fractions import Fraction

import pytest

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

    # With the oracle given, one pass feeds every configuration.
    oracle = exact_chh_multipass(tuples, "0.1", "0.2")
    source = CountingSource(tuples)
    assert sweep(source, "0.1", "0.2", [10, 20], [4, 8], oracle=oracle) == rows
    assert source.yielded == len(tuples)


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
