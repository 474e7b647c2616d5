import io
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


def brute_force_min_product(phi1, phi2, eps1, eps2, s1_limit):
    """Smallest feasible s1*s2 with s1 up to ``s1_limit``, by integer search.

    Takes `Fraction` arguments; returns None when no s1 in range is feasible.
    """
    alpha = (1 + phi2) / (phi1 - eps1)
    an, ad = alpha.numerator, alpha.denominator
    en, ed = eps2.numerator, eps2.denominator
    s1_floor = -(-eps1.denominator // eps1.numerator)  # ceil(1/eps1)
    best = None
    for s1 in range(s1_floor, s1_limit + 1):
        slack_num = en * ad * s1 - an * ed
        if slack_num <= 0:
            continue
        slack_den = ed * ad * s1
        s2 = -(-slack_den // slack_num)
        product = s1 * s2
        if best is None or product < best:
            best = product
    return best


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


def read_by_lines(data, strict):
    """The line-iteration reader the block reader replaced, as a reference.

    Returns the tuples, the skipped-line count and, in strict mode, the
    number of the first malformed line (None when there is none).
    """
    tuples, skipped = [], 0
    for number, line in enumerate(io.BytesIO(data), 1):
        if line[-1:] == b"\n":
            line = line[:-2] if line[-2:-1] == b"\r" else line[:-1]
        x, tab, y = line.partition(b"\t")
        if tab:
            tuples.append((x, y))
        elif strict:
            return tuples, skipped, number
        else:
            skipped += 1
    return tuples, skipped, None


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
