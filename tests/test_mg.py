from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chh import InvalidParameterError, MgSummary

keys = st.binary(min_size=0, max_size=2)
streams = st.lists(keys, max_size=300)
capacities = st.integers(min_value=1, max_value=8)


def test_new_summary_is_empty():
    summary = MgSummary(4)
    assert len(summary) == 0
    assert summary.capacity == 4
    assert summary.items_seen == 0
    assert summary.entries() == []


def test_capacity_one_is_valid():
    summary = MgSummary(1)
    summary.update(b"a")
    assert summary.estimate(b"a") == 1


@pytest.mark.parametrize("bad", [0, -3, 1.5, "4", None, True])
def test_bad_capacity_rejected(bad):
    with pytest.raises(InvalidParameterError):
        MgSummary(bad)


def test_overflow_hand_simulation():
    # capacity 2, stream a a b c: inserting c overflows {a:2, b:1, c:1},
    # every count drops by one, b and c leave.
    summary = MgSummary(2)
    for key in [b"a", b"a", b"b", b"c"]:
        summary.update(key)
    assert summary.entries() == [(b"a", 1)]
    assert summary.estimate(b"a") == 1
    assert summary.estimate(b"b") == 0
    assert summary.estimate(b"z") == 0
    assert summary.items_seen == 4


def test_no_overflow_keeps_exact_counts():
    summary = MgSummary(2)
    summary.update(b"a")
    summary.update(b"b")
    assert summary.entries() == [(b"a", 1), (b"b", 1)]

    nine = MgSummary(3)
    for _ in range(9):
        nine.update(b"a")
    assert nine.estimate(b"a") == 9


def test_entries_sorted_by_key():
    summary = MgSummary(4)
    for key in [b"b", b"b", b"a"]:
        summary.update(key)
    assert summary.entries() == [(b"a", 1), (b"b", 2)]


@given(capacities, streams)
def test_size_bound_and_estimate_bounds(capacity, stream):
    summary = MgSummary(capacity)
    truth = Counter()
    for key in stream:
        summary.update(key)
        truth[key] += 1
        assert len(summary) <= capacity
        assert all(count >= 1 for _, count in summary.entries())
    n = summary.items_seen
    for key in set(stream) | {b"never"}:
        est = summary.estimate(key)
        assert est <= truth[key]
        # est >= f - n/(capacity+1), cross-multiplied to stay in integers
        assert est * (capacity + 1) >= truth[key] * (capacity + 1) - n
    assert summary.sweeps * (capacity + 1) <= n


@given(capacities, streams)
def test_exact_when_distinct_keys_fit(capacity, stream):
    distinct = len(set(stream))
    summary = MgSummary(max(capacity, distinct, 1))
    truth = Counter()
    for key in stream:
        summary.update(key)
        truth[key] += 1
    for key, count in truth.items():
        assert summary.estimate(key) == count


def test_decrement_least_key_picks_smallest_and_drops_zero():
    summary = MgSummary(4)
    for key in [b"p", b"p", b"q"]:
        summary.update(key)
    summary.decrement_least_key()
    assert summary.entries() == [(b"p", 1), (b"q", 1)]
    summary.decrement_least_key()
    assert summary.entries() == [(b"q", 1)]
    assert summary.total() == 1
    # not an observed item
    assert summary.items_seen == 3
