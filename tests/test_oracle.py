import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chh import (
    InconsistentInputError,
    InvalidParameterError,
    UnsupportedSourceError,
    exact_chh_from_counts,
    exact_chh_multipass,
    exact_chh_naive,
    exact_counts_naive,
)
from conftest import CountingSource, random_tuple_stream


def test_multipass_worked_example():
    stream = [(b"a", b"b")] * 3 + [(b"c", b"d")]
    result = exact_chh_multipass(stream, "0.5", "0.5")
    assert result.counts.n == 4
    assert result.primaries == {b"a": 3}
    assert result.pairs == {(b"a", b"b"): 3}


def test_uniform_stream_has_no_heavy_primaries():
    stream = [(str(i).encode(), b"y") for i in range(10) for _ in range(10)]
    result = exact_chh_multipass(stream, "0.2", "0.5")
    assert result.primaries == {}
    assert result.pairs == {}


def test_extreme_threshold_yields_empty_set():
    stream = random_tuple_stream(3, 500, primaries=5, secondaries=5)
    result = exact_chh_multipass(stream, "0.999", "0.5")
    assert result.pairs == {}


def test_thresholds_are_strict():
    # f_a = 2 = phi1 * n exactly: not heavy under the strict definition
    stream = [(b"a", b"p"), (b"a", b"q"), (b"b", b"p"), (b"c", b"p")]
    result = exact_chh_naive(stream, "0.5", "0.5")
    assert result.primaries == {}


def test_naive_counts_example():
    counts = exact_counts_naive([(b"a", b"p"), (b"a", b"p"), (b"b", b"q")])
    assert counts.n == 3
    assert counts.primary == {b"a": 2, b"b": 1}
    assert counts.pairs == {(b"a", b"p"): 2, (b"b", b"q"): 1}
    assert sum(counts.primary.values()) == counts.n


def test_empty_stream():
    counts = exact_counts_naive([])
    assert counts.n == 0
    assert counts.primary == {}
    result = exact_chh_from_counts(counts, "0.5", "0.5")
    assert result.pairs == {}
    assert exact_chh_multipass([], "0.5", "0.5").pairs == {}


def test_one_shot_iterator_rejected():
    stream = iter([(b"a", b"b")])
    with pytest.raises(UnsupportedSourceError):
        exact_chh_multipass(stream, "0.5", "0.5")


def test_phi_range_validated():
    with pytest.raises(InvalidParameterError):
        exact_chh_multipass([], "0", "0.5")
    with pytest.raises(InvalidParameterError):
        exact_chh_multipass([], "0.5", "1")


@pytest.mark.parametrize("seed", range(8))
def test_multipass_agrees_with_naive(seed):
    stream = random_tuple_stream(seed, 2000, primaries=40, secondaries=15)
    multipass = exact_chh_multipass(stream, "0.05", "0.1")
    naive = exact_chh_naive(stream, "0.05", "0.1")
    assert multipass.counts.n == naive.counts.n
    assert multipass.primaries == naive.primaries
    assert multipass.pairs == naive.pairs


def test_candidate_pass_never_sheds_a_heavy_primary():
    for seed in range(5):
        stream = random_tuple_stream(seed, 1500, primaries=25, secondaries=5)
        result = exact_chh_multipass(stream, "0.08", "0.5")
        naive = exact_chh_naive(stream, "0.08", "0.5")
        # every exact heavy primary made it through the candidate pass
        assert set(naive.primaries) <= set(result.counts.primary)


def test_multipass_pair_counts_bounded_by_primary_counts():
    stream = random_tuple_stream(11, 3000, primaries=20, secondaries=10)
    result = exact_chh_multipass(stream, "0.05", "0.05")
    for (d, _), count in result.counts.pairs.items():
        assert count <= result.counts.primary[d]


def test_multipass_reads_the_source_three_times():
    tuples = random_tuple_stream(5, 400, primaries=10, secondaries=5)
    source = CountingSource(tuples)
    exact_chh_multipass(source, "0.1", "0.2")
    assert source.yielded == 3 * len(tuples)


@pytest.mark.parametrize(
    "tuples, phi1, phi2, reads",
    [
        # the candidate summary ends empty: no primary is heavy, and pass 1 is the only one
        ([(str(i).encode(), b"y") for i in range(10) for _ in range(10)], "0.2", "0.5", 1),
        # every heavy primary has at most 4 secondaries, under capacity-4 summaries
        (random_tuple_stream(6, 400, primaries=3, secondaries=4), "0.1", "0.2", 2),
        # a fits its capacity-1 summary, b sheds: b's pairs are recounted
        (
            [(b"a", b"p")] * 10
            + [(b"b", b"q"), (b"b", b"r"), (b"b", b"q")] * 3
            + [(b"c", b"p"), (b"d", b"p")],
            "0.2",
            "0.5",
            3,
        ),
        # a and d stay candidates, but a's 2 of 5 tuples is not above 0.4 * 5
        ([(b"a", b"y")] * 2 + [(b"b", b"y"), (b"c", b"y"), (b"d", b"y")], "0.4", "0.5", 2),
    ],
)
def test_multipass_skips_the_third_read_when_heavy_summaries_did_not_shed(
    tuples, phi1, phi2, reads
):
    source = CountingSource(tuples)
    result = exact_chh_multipass(source, phi1, phi2)
    assert source.yielded == reads * len(tuples)
    naive = exact_chh_naive(tuples, phi1, phi2)
    assert result.primaries == naive.primaries
    assert result.pairs == naive.pairs
    # every kept pair count is exact and lies under a heavy primary
    assert result.counts.pairs.items() <= naive.counts.pairs.items()
    assert all(d in naive.primaries for d, _ in result.counts.pairs)


class ShortPassSource:
    """Replayable source that drops its last tuple on pass ``short``, as a pipe drops all."""

    def __init__(self, tuples, short):
        self.tuples = tuples
        self.short = short
        self.passes = 0

    def __iter__(self):
        self.passes += 1
        yield from self.tuples[:-1] if self.passes == self.short else self.tuples


@pytest.mark.parametrize("short", [2, 3])
def test_multipass_rejects_a_pass_that_reads_fewer_tuples(short):
    # a is heavy and b is heavy with a shed pair summary, so pass 3 runs
    tuples = (
        [(b"a", b"p")] * 10 + [(b"b", b"q"), (b"b", b"r"), (b"b", b"q")] * 3 + [(b"c", b"p")]
    )
    full = ShortPassSource(tuples, None)
    exact_chh_multipass(full, "0.2", "0.5")
    assert full.passes == 3
    source = ShortPassSource(tuples, short)
    with pytest.raises(InconsistentInputError, match=f"pass 1 read 20 tuples but pass {short} read 19"):
        exact_chh_multipass(source, "0.2", "0.5")
    assert source.passes == short


# 1/k thresholds make exact ties f_d = phi1 * n and f_{d,s} = phi2 * f_d common.
small_rationals = st.one_of(
    st.integers(2, 8).map(lambda k: Fraction(1, k)),
    st.tuples(st.integers(1, 9), st.integers(2, 10))
    .filter(lambda t: t[0] < t[1])
    .map(lambda t: Fraction(*t)),
)


@settings(max_examples=300)
@given(
    stream=st.lists(
        st.tuples(st.sampled_from([b"a", b"b", b"c", b"d"]), st.sampled_from([b"p", b"q", b"r"])),
        max_size=40,
    ),
    phi1=small_rationals,
    phi2=small_rationals,
)
def test_multipass_equals_naive_at_any_threshold(stream, phi1, phi2):
    multipass = exact_chh_multipass(stream, phi1, phi2)
    naive = exact_chh_naive(stream, phi1, phi2)
    assert multipass.counts.n == naive.counts.n
    assert multipass.primaries == naive.primaries
    assert multipass.pairs == naive.pairs
    # pairs are kept only under heavy primaries
    assert all(d in multipass.primaries for d, _ in multipass.counts.pairs)
    # the memory bound: candidate primaries, and candidate pairs under them
    assert len(multipass.counts.primary) <= math.ceil(1 / phi1) - 1
    assert len(multipass.counts.pairs) <= (math.ceil(1 / phi1) - 1) * (math.ceil(1 / phi2) - 1)
