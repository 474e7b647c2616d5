import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import chh.mg
from chh import (
    ChhParams,
    ChhSketch,
    MgSummary,
    exact_counts_naive,
    sketch_from_bytes,
    sketch_to_bytes,
    solve_params,
)
from conftest import random_tuple_stream, true_counts

pair = st.tuples(st.binary(max_size=2), st.binary(max_size=2))
pair_streams = st.lists(pair, max_size=250)
small_sizes = st.integers(min_value=1, max_value=5)


def run_sketch(params, stream):
    sketch = ChhSketch(params)
    sketch.consume(stream)
    return sketch


def test_fresh_sketch_reports_nothing():
    sketch = ChhSketch(solve_params("0.1", "0.1", "0.05", "0.1"))
    assert sketch.n == 0
    report = sketch.report()
    assert report.primaries == ()
    assert [(p.key, s, c) for p in report.primaries for s, c in p.secondaries] == []


def test_single_tuple():
    sketch = ChhSketch(ChhParams.from_raw("0.5", "0.5", 3, 3))
    sketch.update(b"a", b"b")
    assert sketch.n == 1
    assert sketch.estimate_primary(b"a") == 1
    assert sketch.estimate_pair(b"a", b"b") == 1
    assert sketch.estimate_primary(b"zz") == 0
    assert sketch.estimate_pair(b"a", b"zz") == 0
    assert sketch.estimate_pair(b"zz", b"b") == 0


def test_update_hand_simulation(tiny_stream):
    sketch = run_sketch(ChhParams.from_raw("0.5", "0.5", 2, 2), tiny_stream)
    state = [(d, sketch.estimate_primary(d), e.inner.entries()) for d, e in sketch.entries()]
    assert state == [
        (b"a", 3, [(b"p", 2), (b"q", 1)]),
        (b"b", 1, [(b"p", 1)]),
    ]

    # (c, r) overflows the outer table: every primary count drops by one, the
    # smallest retained secondary key drops with it, zeros are discarded.
    sketch.update(b"c", b"r")
    state = [(d, sketch.estimate_primary(d), e.inner.entries()) for d, e in sketch.entries()]
    assert state == [(b"a", 2, [(b"p", 1), (b"q", 1)])]
    assert sketch.estimate_pair(b"a", b"p") == 1
    assert sketch.n == 5


def test_inner_overflow_can_empty_inner_table():
    sketch = run_sketch(
        ChhParams.from_raw("0.5", "0.5", 4, 2),
        [(b"a", b"p"), (b"a", b"q"), (b"a", b"r")],
    )
    ((key, entry),) = sketch.entries()
    assert key == b"a"
    assert sketch.estimate_primary(key) == 3
    assert entry.inner.entries() == []
    # a later outer shed must then skip the inner decrement
    sketch.update(b"b", b"x")
    sketch.update(b"c", b"x")
    sketch.update(b"d", b"x")
    sketch.update(b"e", b"x")
    assert sketch.estimate_primary(b"a") == 2


def test_report_thresholds_exact_case():
    # phi1 = phi2 = 0.5, s1 = s2 = 4, ten copies of (a, b):
    # primary floor (0.5 - 1/4) * 10 = 2.5; inner floor (0.5 - 1/4)*10 - 10/4 = 0.
    sketch = run_sketch(ChhParams.from_raw("0.5", "0.5", 4, 4), [(b"a", b"b")] * 10)
    report = sketch.report()
    assert [(p.key, p.est_count) for p in report.primaries] == [(b"a", 10)]
    assert [(p.key, s, c) for p in report.primaries for s, c in p.secondaries] == [
        (b"a", b"b", 10)
    ]


def test_report_keeps_tolerated_false_positives():
    # phi1 = 0.9 with s1 = 2 gives floor (0.9 - 0.5) * 2 = 0.8, so both
    # singletons get reported: small tables trade into extra answers.
    sketch = run_sketch(ChhParams.from_raw("0.9", "0.5", 2, 2), [(b"a", b"p"), (b"b", b"q")])
    report = sketch.report()
    assert [p.key for p in report.primaries] == [b"a", b"b"]


def test_report_boundary_is_exact_not_float():
    # f = 3 sits exactly on the floor (2/5 - 1/10) * 10 = 3; binary floats
    # would put the floor at 3.0000000000000004 and drop the key.
    stream = [(b"hh", b"x")] * 3 + [(str(i).encode(), b"x") for i in range(7)]
    sketch = run_sketch(ChhParams.from_raw("0.4", "0.5", 10, 4), stream)
    assert sketch.estimate_primary(b"hh") == 3
    assert b"hh" in [p.key for p in sketch.report().primaries]


def test_report_sorted_by_primary_then_secondary():
    stream = [(b"b", b"z"), (b"b", b"y"), (b"a", b"q"), (b"a", b"p")] * 3
    sketch = run_sketch(ChhParams.from_raw("0.1", "0.1", 8, 8), stream)
    report = sketch.report()
    assert [p.key for p in report.primaries] == [b"a", b"b"]
    for primary in report.primaries:
        keys = [s for s, _ in primary.secondaries]
        assert keys == sorted(keys)


@given(pair_streams, small_sizes, small_sizes)
def test_size_bounds_and_inner_totals_after_every_update(stream, s1, s2):
    params = ChhParams.from_raw("0.5", "0.5", s1, s2)
    sketch = ChhSketch(params)
    # Inner sheds per retained primary, counted from the settled entries
    # before each update, which is how the update's own settle leaves x.
    sheds = {}
    entries = {}
    for x, y in stream:
        entry = entries.get(x)
        if entry is None:
            sheds[x] = 0
        elif entry.inner.estimate(y) == 0 and len(entry.inner) == s2:
            sheds[x] += 1
        sketch.update(x, y)
        entries = dict(sketch.entries())
        assert len(sketch) <= s1
        for d, entry in entries.items():
            est = sketch.estimate_primary(d)
            assert est >= 1
            assert len(entry.inner) <= s2
            assert entry.inner.total() <= est
    # shed rounds remove s1+1 (outer) or s2+1 (inner) units of mass at once,
    # so their counts are bounded by the mass that ever entered
    assert sketch.outer_sweeps * (s1 + 1) <= sketch.n
    for d, entry in entries.items():
        # An inner table loses s2+1 units per inner shed, and at most one
        # more per outer round its primary lived through.
        seen = entry.inner.items_seen
        lost = seen - entry.inner.total() - (s2 + 1) * sheds[d]
        assert 0 <= lost <= seen - sketch.estimate_primary(d)


@given(pair_streams, small_sizes, small_sizes)
def test_estimates_undercount_within_bounds(stream, s1, s2):
    params = ChhParams.from_raw("0.5", "0.5", s1, s2)
    sketch = run_sketch(params, stream)
    n, primary, pairs = true_counts(stream)
    assert sketch.n == n
    for d, fd in primary.items():
        est = sketch.estimate_primary(d)
        assert est <= fd
        assert est * s1 >= fd * s1 - n
    for (d, s), fds in pairs.items():
        est = sketch.estimate_pair(d, s)
        assert est <= fds
        # est >= fds - fd/s2 - n/s1, cross-multiplied by s1*s2
        assert est * s1 * s2 >= fds * s1 * s2 - primary[d] * s1 - n * s2


@given(st.data())
def test_primary_candidates_bound_every_true_count_and_hold_every_heavy_primary(data):
    key = st.integers(0, 7).map(b"%d".__mod__)
    stream = data.draw(st.lists(st.tuples(key, key), max_size=80))
    s1 = data.draw(small_sizes)
    # s1 + 1 fresh primaries in a row overflow the outer table at least once.
    at = data.draw(st.integers(0, len(stream)))
    stream[at:at] = [(b"fresh%d" % i, b"0") for i in range(s1 + 1)]
    phi1 = data.draw(st.fractions(Fraction(1, s1 + 1), Fraction(9, 10), max_denominator=12))
    sketch = run_sketch(ChhParams.from_raw(phi1, "1/2", s1, data.draw(small_sizes)), stream)
    assert sketch.outer_sweeps > 0
    # s1 >= ceil(1/phi1) - 1, since phi1 >= 1/(s1 + 1).
    counts = exact_counts_naive(stream)
    heavy = {d for d, f in counts.primary.items() if f > phi1 * counts.n}
    for loaded in (sketch, sketch_from_bytes(sketch_to_bytes(sketch))):
        rounds = loaded.outer_sweeps
        due = {d: loaded.estimate_primary(d) + rounds for d, _ in loaded.entries()}
        for d, f in counts.primary.items():
            assert f <= due.get(d, rounds)
        candidates = loaded.primary_candidates()
        assert sorted(candidates) == sorted(d for d, v in due.items() if v > phi1 * counts.n)
        assert heavy <= set(candidates)
        assert len(candidates) <= math.ceil(1 / phi1) - 1


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_report_guarantees_with_solver_params(seed):
    params = solve_params("0.2", "0.25", "0.1", "0.2")
    stream = random_tuple_stream(seed, 4000, primaries=30, secondaries=12)
    sketch = run_sketch(params, stream)
    n, primary, pairs = true_counts(stream)

    report = sketch.report()
    reported = {p.key: dict(p.secondaries) for p in report.primaries}

    for d, fd in primary.items():
        if fd > params.phi1 * n:
            assert d in reported
    for d in reported:
        assert primary[d] >= (params.phi1 - params.eps1) * n
    for d, secondaries in reported.items():
        fd = primary[d]
        for (dd, s), fds in pairs.items():
            if dd == d and fds > params.phi2 * fd:
                assert s in secondaries
        for s in secondaries:
            assert pairs[(d, s)] >= (params.phi2 - params.eps2) * fd


def test_queries_valid_at_any_prefix():
    params = ChhParams.from_raw("0.4", "0.5", 4, 4)
    sketch = ChhSketch(params)
    stream = random_tuple_stream(99, 200, primaries=10, secondaries=5)
    seen = []
    for x, y in stream:
        sketch.update(x, y)
        seen.append((x, y))
        if len(seen) % 50 == 0:
            n, primary, _ = true_counts(seen)
            report = sketch.report()
            assert sketch.n == n
            floor = (params.phi1 - Fraction(1, params.s1)) * n
            for p in report.primaries:
                assert p.est_count >= floor
                assert p.est_count <= primary[p.key]


def test_hit_after_many_unread_rounds_pays_its_debt_in_one_call(monkeypatch):
    # Two primaries of 2*10^4 tuples over 4 secondaries (5000 each), then 10^4
    # new primaries, each of which runs one outer round that drops it. The next
    # hit on b"a" owes 10^4 inner units: all 5000 of s0 and of s1.
    sketch = ChhSketch(ChhParams.from_raw("0.4", "0.5", 2, 4))
    for i in range(2 * 10**4):
        sketch.update(b"a", b"s%d" % (i % 4))
        sketch.update(b"b", b"s%d" % (i % 4))
    for i in range(10**4):
        sketch.update(b"new%d" % i, b"s0")
    assert sketch.outer_sweeps == 10**4

    calls = {"decrement_least": 0, "decrement_least_key": 0, "heappop": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    for name in ("decrement_least", "decrement_least_key"):
        monkeypatch.setattr(MgSummary, name, counted(name, getattr(MgSummary, name)))
    monkeypatch.setattr(chh.mg, "heappop", counted("heappop", chh.mg.heappop))
    sketch.update(b"a", b"s3")
    monkeypatch.undo()

    assert calls["decrement_least"] == 1
    assert calls["decrement_least_key"] == 0
    assert calls["heappop"] <= sketch.params.s2
    assert sketch.estimate_primary(b"a") == 2 * 10**4 - 10**4 + 1
    assert [sketch.estimate_pair(b"a", b"s%d" % j) for j in range(4)] == [0, 0, 5000, 5001]
    assert [sketch.estimate_pair(b"b", b"s%d" % j) for j in range(4)] == [0, 0, 5000, 5000]


def churn_shaped_stream():
    """Full outer and inner tables, then new primaries that force outer rounds.

    Eight cold primaries bring six distinct secondaries each (s1=8, s2=6),
    one to three times over, so every inner table is full before the first
    shed. Then twelve new primaries arrive, one tuple each, and most rounds
    meet inner tables that no update has touched since the previous round;
    every third new primary is followed by a tuple for a cold primary, which
    touches one of them again.
    """
    cold = [b"c%d" % i for i in range(8)]
    stream = [
        (d, b"s%d" % ((i * 5 + j) % 9))
        for i, d in enumerate(cold)
        for j in range(6)
        for _ in range(1 + (i + j) % 3)
    ]
    for t in range(12):
        stream.append((b"t%02d" % t, b"s%d" % (t % 4)))
        if t % 3 == 2:
            stream.append((cold[t % 8], b"s%d" % (8 - t % 9)))
    return stream


def zipf_stream(seed, length, primaries, secondaries):
    """Seeded two-level Zipf stream (exponent 1) over integer-labelled keys."""
    rng = random.Random(seed)
    xs = rng.choices(range(primaries), weights=[1 / k for k in range(1, primaries + 1)], k=length)
    weights = [1 / k for k in range(1, secondaries + 1)]
    return [(b"%d" % x, b"%d" % rng.choices(range(secondaries), weights=weights)[0]) for x in xs]


@pytest.mark.parametrize(
    "stream, s1, s2, outer_sweeps, digest",
    [
        (
            churn_shaped_stream(), 8, 6, 12,
            "efc12fb6d84ebe858367c60ea2d9598bda9407fc073dbb151046c82d50043ba9",
        ),
        (
            zipf_stream(5, 3000, 200, 12), 30, 5, 68,
            "d241d52f71012aa1903c656a3952dcaae1c59e3c33964459cf8d02080a7b3c78",
        ),
    ],
    ids=["churn", "zipf"],
)
def test_golden_snapshot_bytes_on_shed_heavy_streams(stream, s1, s2, outer_sweeps, digest):
    # Pins the exact state after many outer rounds, including rounds that meet
    # inner tables left untouched since the previous round.
    sketch = run_sketch(ChhParams.from_raw("0.1", "0.2", s1, s2), stream)
    assert sketch.outer_sweeps == outer_sweeps
    assert hashlib.sha256(sketch_to_bytes(sketch)).hexdigest() == digest
    assert sketch_from_bytes(sketch_to_bytes(sketch)).outer_sweeps == outer_sweeps
