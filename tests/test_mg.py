from collections import Counter

import pytest
from hypothesis import given, settings
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


@given(capacities, streams, streams)
def test_restored_summary_equals_and_continues_like_the_original(capacity, head, tail):
    summary = MgSummary(capacity)
    for key in head:
        summary.update(key)
    restored = MgSummary.restore(capacity, summary.items_seen, dict(summary.entries()))
    assert (restored.items_seen, restored.entries()) == (summary.items_seen, summary.entries())
    for key in tail:
        summary.update(key)
        restored.update(key)
    if len(summary):
        summary.decrement_least_key()
        restored.decrement_least_key()
    assert (restored.items_seen, restored.entries()) == (summary.items_seen, summary.entries())


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


def test_decrement_least_key_on_empty_summary_raises_value_error():
    with pytest.raises(ValueError):
        MgSummary(3).decrement_least_key()

    emptied = MgSummary(3)
    emptied.update(b"a")
    emptied.update(b"b")
    emptied.decrement_least_key()
    emptied.decrement_least_key()
    assert len(emptied) == 0
    # a summary emptied by decrements raises on every later call too
    for _ in range(2):
        with pytest.raises(ValueError):
            emptied.decrement_least_key()


small_keys = st.sampled_from([b"", b"a", b"b", b"c", b"d", b"e", b"f", b"g"])
# A key is an update; None is one decrement_least_key call, in runs of 1 to 8;
# an int k is one decrement_least(k) call.
operations = st.lists(
    st.one_of(
        small_keys.map(lambda key: [key]),
        st.integers(1, 8).map(lambda run: [None] * run),
        st.integers(0, 12).map(lambda units: [units]),
    ),
    max_size=80,
).map(lambda runs: [step for run in runs for step in run])


@settings(max_examples=300)
@given(st.integers(min_value=1, max_value=6), operations)
def test_decrements_interleaved_with_updates_match_a_min_model(capacity, steps):
    # Decrements pop keys from a heap built per call; the model recomputes
    # min() every time.
    summary = MgSummary(capacity)
    model: dict[bytes, int] = {}
    seen = 0
    for key in steps:
        if isinstance(key, bytes):
            summary.update(key)
            seen += 1
            model[key] = model.get(key, 0) + 1
            if len(model) > capacity:
                model = {k: count - 1 for k, count in model.items() if count > 1}
        elif key is None and not model:
            with pytest.raises(ValueError):
                summary.decrement_least_key()
        else:
            if key is None:
                summary.decrement_least_key()
            else:
                summary.decrement_least(key)
            # One unit at a time from the least key; nothing once empty.
            for _ in range(1 if key is None else key):
                if not model:
                    break
                least = min(model)
                model[least] -= 1
                if model[least] == 0:
                    del model[least]
        assert summary.entries() == sorted(model.items())
        assert summary.items_seen == seen
