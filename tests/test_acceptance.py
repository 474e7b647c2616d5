"""End-to-end guarantee suite over seeded Zipf workloads.

Each test prints one ``ACCEPTANCE <name>: PASS|FAIL`` line (visible with
``pytest -s`` or ``-rA``) so the whole gate can be read off the output.

The estimate and report guarantees are checked on 21 seeded workloads
(primary domain 10^4, secondary domain 10^3, skews spanning 0.8 to 1.4,
lengths 10^5 and 10^6) across three solver-produced parameter sets; the
inner-mass invariant is checked after every single update on the 10^5
streams. All comparisons run in exact integer or rational arithmetic.
"""

import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from chh import (
    ChhParams,
    ChhSketch,
    ZipfWorkloadSpec,
    exact_chh_multipass,
    exact_chh_naive,
    exact_counts_naive,
    generate_zipf,
    sketch_from_bytes,
    sketch_to_bytes,
    solve_params,
    sweep,
)
from conftest import brute_force_min_product

PARAM_SETS = [
    ("0.1", "0.1", "0.05", "0.1"),
    ("0.5", "0.5", "0.01", "0.25"),
    ("0.01", "0.05", "0.005", "0.04"),
]
SKEW_PAIRS = [(0.8, 1.4), (0.9, 1.2), (1.0, 1.0), (1.1, 0.9), (1.2, 1.1), (1.3, 0.8), (1.4, 1.3)]
PRIMARY_DOMAIN = 10_000
SECONDARY_DOMAIN = 1_000
SMALL_STREAM = 100_000
LARGE_STREAM = 1_000_000
LARGE_SKEW_INDEX = 3  # one million-tuple stream per parameter set


def _emit(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")


@dataclass
class SuiteTotals:
    streams: int = 0
    exact_pairs: int = 0
    overcount: int = 0
    primary_slack: int = 0
    inner_sum: int = 0
    pair_slack: int = 0
    missed_heavy_primary: int = 0
    reported_light_primary: int = 0
    missed_heavy_pair: int = 0
    reported_light_pair: int = 0
    missed_exact_pair: int = 0
    configs: list = field(default_factory=list)


def _build_checked(params: ChhParams, stream, per_update: bool):
    """Build a sketch; optionally verify inner totals after every update.

    An update can only change the entry it touched, unless an outer shed
    round ran, in which case every entry changed; checking the touched entry
    each step and scanning everything right after a shed round is therefore
    equivalent to a full scan after every update. The touched entry is
    settled by its update; the scan reads `entries()`, which settles the
    units every other entry owes from the round.
    """
    sketch = ChhSketch(params)
    violations = 0
    if per_update:
        table = sketch._table
        sweeps_seen = 0
        for x, y in stream:
            sketch.update(x, y)
            if sketch.outer_sweeps != sweeps_seen:
                sweeps_seen = sketch.outer_sweeps
                for key, entry in sketch.entries():
                    if entry.inner.total() > sketch.estimate_primary(key):
                        violations += 1
            else:
                entry = table.get(x)
                if entry is not None and entry.inner.total() > sketch.estimate_primary(x):
                    violations += 1
    else:
        sketch.consume(stream)
        for key, entry in sketch.entries():
            if entry.inner.total() > sketch.estimate_primary(key):
                violations += 1
    return sketch, violations


def _check_stream(totals: SuiteTotals, raw_params, skew1, skew2, size, seed):
    params = solve_params(*raw_params)
    phi1, phi2, eps1, eps2 = params.phi1, params.phi2, params.eps1, params.eps2
    s1, s2 = params.s1, params.s2
    spec = ZipfWorkloadSpec(
        tuple_count=size,
        primary_domain=PRIMARY_DOMAIN,
        secondary_domain=SECONDARY_DOMAIN,
        primary_skew=skew1,
        secondary_skew=skew2,
        seed=seed,
    )
    # Generated once: the sketch, the naive counts and the three oracle
    # passes all read the same list.
    stream = list(generate_zipf(spec))

    sketch, inner_violations = _build_checked(params, stream, per_update=size == SMALL_STREAM)
    totals.inner_sum += inner_violations

    counts = exact_counts_naive(stream)
    n = counts.n

    for d, fd in counts.primary.items():
        est = sketch.estimate_primary(d)
        if est > fd:
            totals.overcount += 1
        if est * s1 < fd * s1 - n:
            totals.primary_slack += 1

    for (d, s), fds in counts.pairs.items():
        est = sketch.estimate_pair(d, s)
        if est > fds:
            totals.overcount += 1
        if est * s1 * s2 < fds * s1 * s2 - counts.primary[d] * s1 - n * s2:
            totals.pair_slack += 1

    report = sketch.report()
    reported = {p.key: dict(p.secondaries) for p in report.primaries}

    heavy_floor = phi1 * n
    for d, fd in counts.primary.items():
        if fd > heavy_floor and d not in reported:
            totals.missed_heavy_primary += 1

    light_floor = (phi1 - eps1) * n
    for d in reported:
        if counts.primary[d] < light_floor:
            totals.reported_light_primary += 1

    p2n, p2d = phi2.numerator, phi2.denominator
    for (d, s), fds in counts.pairs.items():
        secondaries = reported.get(d)
        if secondaries is not None and fds * p2d > p2n * counts.primary[d]:
            if s not in secondaries:
                totals.missed_heavy_pair += 1

    pair_light_rate = phi2 - eps2
    for d, secondaries in reported.items():
        fd = counts.primary[d]
        for s in secondaries:
            if counts.pairs[(d, s)] < pair_light_rate * fd:
                totals.reported_light_pair += 1

    oracle = exact_chh_multipass(stream, phi1, phi2)
    totals.exact_pairs += len(oracle.pairs)
    for d, s in oracle.pairs:
        if s not in reported.get(d, ()):
            totals.missed_exact_pair += 1

    totals.streams += 1
    totals.configs.append((raw_params, skew1, skew2, size, seed))


@pytest.fixture(scope="module")
def suite() -> SuiteTotals:
    totals = SuiteTotals()
    for set_index, raw_params in enumerate(PARAM_SETS):
        for skew_index, (skew1, skew2) in enumerate(SKEW_PAIRS):
            size = LARGE_STREAM if skew_index == LARGE_SKEW_INDEX else SMALL_STREAM
            seed = 7000 + 100 * set_index + skew_index
            _check_stream(totals, raw_params, skew1, skew2, size, seed)
    return totals


def test_estimate_and_report_guarantee_suite(suite):
    ok = (
        suite.streams >= 20
        and suite.overcount == 0
        and suite.primary_slack == 0
        and suite.inner_sum == 0
        and suite.pair_slack == 0
        and suite.missed_heavy_primary == 0
        and suite.reported_light_primary == 0
        and suite.missed_heavy_pair == 0
        and suite.reported_light_pair == 0
    )
    _emit("estimate-and-report-guarantees", ok)
    assert suite.streams >= 20
    assert suite.overcount == 0, "an estimate exceeded its true frequency"
    assert suite.primary_slack == 0, "a primary estimate fell below f_d - n/s1"
    assert suite.inner_sum == 0, "an inner table total exceeded its primary count"
    assert suite.pair_slack == 0, "a pair estimate fell below f_ds - f_d/s2 - n/s1"
    assert suite.missed_heavy_primary == 0
    assert suite.reported_light_primary == 0
    assert suite.missed_heavy_pair == 0
    assert suite.reported_light_pair == 0


def test_no_false_negatives_against_multipass_oracle(suite):
    ok = suite.missed_exact_pair == 0 and suite.exact_pairs > 0
    _emit("no-false-negatives", ok)
    assert suite.exact_pairs > 0, "suite produced no exact heavy pairs to check"
    assert suite.missed_exact_pair == 0


def test_bounded_false_positives(suite):
    ok = suite.reported_light_primary == 0 and suite.reported_light_pair == 0
    _emit("bounded-false-positives", ok)
    assert suite.reported_light_primary == 0
    assert suite.reported_light_pair == 0


def test_error_statistic_bounds_across_sweep():
    spec = ZipfWorkloadSpec(
        tuple_count=200_000,
        primary_domain=PRIMARY_DOMAIN,
        secondary_domain=SECONDARY_DOMAIN,
        primary_skew=1.2,
        secondary_skew=1.2,
        seed=1234,
    )
    source = generate_zipf(spec)
    s1_values = [1000, 1500, 2000, 2500, 3000]
    rows = sweep(source, "0.01", "0.15", s1_values, [500])

    ok = True
    for row in rows:
        params = ChhParams.from_raw("0.01", "0.15", row.s1, row.s2)
        ok &= params.constraints_satisfied()
        ok &= row.primary.max_error <= Fraction(1, row.s1)
        ok &= row.secondary.max_error <= row.secondary.theoretical_max
    ceilings = [row.primary.theoretical_max for row in rows]
    ok &= all(a > b for a, b in zip(ceilings, ceilings[1:]))
    ok &= rows[0].primary.max_error <= Fraction(1, 1000)
    ok &= bool(rows[0].primary.per_item_errors and rows[0].secondary.per_item_errors)
    _emit("error-statistic-bounds", ok)

    for row in rows:
        assert ChhParams.from_raw("0.01", "0.15", row.s1, row.s2).constraints_satisfied()
        assert row.primary.max_error <= Fraction(1, row.s1)
        assert row.secondary.max_error <= row.secondary.theoretical_max
    assert all(a > b for a, b in zip(ceilings, ceilings[1:]))
    # the 1/s1 ceiling means at most 0.1% error at s1 = 1000
    assert rows[0].primary.max_error <= Fraction(1, 1000)
    assert rows[0].primary.per_item_errors
    assert rows[0].secondary.per_item_errors


def test_oracle_cross_validation_over_seeds():
    mismatches = 0
    populated = 0
    for seed in range(50):
        spec = ZipfWorkloadSpec(
            tuple_count=10_000,
            primary_domain=200 + 37 * (seed % 7),
            secondary_domain=50 + 11 * (seed % 5),
            primary_skew=0.8 + 0.1 * (seed % 7),
            secondary_skew=0.8 + 0.1 * (seed % 5),
            seed=40_000 + seed,
        )
        stream = generate_zipf(spec)
        multipass = exact_chh_multipass(stream, "0.05", "0.05")
        naive = exact_chh_naive(stream, "0.05", "0.05")
        if multipass.primaries != naive.primaries or multipass.pairs != naive.pairs:
            mismatches += 1
        if multipass.pairs:
            populated += 1
    ok = mismatches == 0 and populated > 0
    _emit("oracle-cross-validation", ok)
    assert mismatches == 0
    assert populated > 0


def test_solver_grid_feasibility_and_optimality():
    grid = []
    for p1 in (Fraction(2, 100), Fraction(10, 100), Fraction(25, 100),
               Fraction(50, 100), Fraction(90, 100)):
        for p2 in (Fraction(5, 100), Fraction(10, 100), Fraction(50, 100),
                   Fraction(90, 100)):
            for d1 in (2, 3, 10):
                for d2 in (2, 5):
                    grid.append((p1, p2, p1 / d1, p2 / d2))
    assert len(grid) >= 100

    ok = True
    for phi1, phi2, eps1, eps2 in grid:
        params = solve_params(phi1, phi2, eps1, eps2)
        feasible1 = Fraction(1, params.s1) <= eps1
        feasible2 = Fraction(1, params.s2) + params.alpha / params.s1 <= eps2
        expected_case = "I" if eps1 >= eps2 / (2 * params.alpha) else "II"
        best = brute_force_min_product(phi1, phi2, eps1, eps2, 2 * params.s1)
        near_optimal = best is not None and 2 * best >= params.s1 * params.s2
        if not (feasible1 and feasible2 and params.case == expected_case and near_optimal):
            ok = False
    _emit("solver-grid", ok)
    assert ok


def test_determinism_and_snapshot_fidelity(tmp_path):
    # snapshot round trip on a realistic sketch
    spec = ZipfWorkloadSpec(
        tuple_count=50_000, primary_domain=2_000, secondary_domain=200,
        primary_skew=1.1, secondary_skew=1.0, seed=99,
    )
    sketch = ChhSketch(solve_params("0.02", "0.1", "0.01", "0.08"))
    sketch.consume(generate_zipf(spec))
    blob = sketch_to_bytes(sketch)
    restored = sketch_from_bytes(blob)
    roundtrip_ok = (
        sketch_to_bytes(restored) == blob and restored.report() == sketch.report()
    )

    # byte-identical CLI runs with identical flags
    def run(*argv):
        result = subprocess.run(
            [sys.executable, "-m", "chh", *argv], capture_output=True
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    cli_ok = True
    stream_a, stream_b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    for path in (stream_a, stream_b):
        run("generate", "--n", "20000", "--primary-domain", "500",
            "--secondary-domain", "60", "--skew1", "1.2", "--skew2", "1.0",
            "--seed", "17", "--out", str(path))
    cli_ok &= stream_a.read_bytes() == stream_b.read_bytes()

    snap_a, snap_b = tmp_path / "a.snap", tmp_path / "b.snap"
    for stream, snap in ((stream_a, snap_a), (stream_b, snap_b)):
        run("build", "--in", str(stream), "--phi1", "0.02", "--phi2", "0.1",
            "--eps1", "0.01", "--eps2", "0.08", "--out", str(snap))
    cli_ok &= snap_a.read_bytes() == snap_b.read_bytes()
    cli_ok &= run("report", "--sketch", str(snap_a)) == run("report", "--sketch", str(snap_b))
    cli_ok &= run("exact", "--in", str(stream_a), "--phi1", "0.02", "--phi2", "0.1") == run(
        "exact", "--in", str(stream_b), "--phi1", "0.02", "--phi2", "0.1"
    )
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    for stream, out in ((stream_a, csv_a), (stream_b, csv_b)):
        run("evaluate", "--in", str(stream), "--phi1", "0.02", "--phi2", "0.1",
            "--s1-list", "100,200", "--s2-list", "20", "--out", str(out))
    cli_ok &= csv_a.read_bytes() == csv_b.read_bytes()

    _emit("determinism-and-fidelity", roundtrip_ok and cli_ok)
    assert roundtrip_ok
    assert cli_ok
