import random
from collections import Counter

import hypothesis
import pytest

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=60, derandomize=True
)
hypothesis.settings.load_profile("default")


def true_counts(stream):
    """Full reference counts for a tuple stream: n, f_d, f_{d,s}."""
    primary = Counter()
    pairs = Counter()
    n = 0
    for x, y in stream:
        n += 1
        primary[x] += 1
        pairs[(x, y)] += 1
    return n, primary, pairs


def random_tuple_stream(seed, length, primaries, secondaries):
    """Seeded stream over small integer-labelled key alphabets."""
    rng = random.Random(seed)
    return [
        (
            str(rng.randrange(primaries)).encode(),
            str(rng.randrange(secondaries)).encode(),
        )
        for _ in range(length)
    ]


class CountingSource:
    """Replayable source that counts every tuple it yields, across passes."""

    def __init__(self, tuples):
        self.tuples = tuples
        self.yielded = 0

    def __iter__(self):
        for item in self.tuples:
            self.yielded += 1
            yield item


@pytest.fixture
def tiny_stream():
    return [(b"a", b"p"), (b"a", b"p"), (b"a", b"q"), (b"b", b"p")]
