import copy
import hashlib
import math
import pickle
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from chh import InvalidParameterError, ZipfWorkloadSpec, generate_zipf, zipf_probabilities


def spec(**overrides):
    base = dict(
        tuple_count=2000,
        primary_domain=50,
        secondary_domain=20,
        primary_skew=1.1,
        secondary_skew=1.0,
        seed=7,
    )
    base.update(overrides)
    return ZipfWorkloadSpec(**base)


def test_identical_specs_give_identical_streams():
    first = list(generate_zipf(spec()))
    second = list(generate_zipf(spec()))
    assert first == second
    assert len(first) == 2000


def test_stream_replays_identically():
    source = generate_zipf(spec())
    assert list(source) == list(source)


def test_different_seeds_differ():
    assert list(generate_zipf(spec())) != list(generate_zipf(spec(seed=8)))


def test_zero_skew_is_uniform():
    draws = Counter(
        x for x, _ in generate_zipf(spec(tuple_count=100_000, primary_skew=0.0))
    )
    expected = 100_000 / 50
    assert len(draws) == 50
    for count in draws.values():
        assert abs(count - expected) / expected < 0.2


def test_head_probability_matches_analytic_zipf():
    # rank 1 frequency should sit near 1 / sum(r^-skew)
    workload = spec(
        tuple_count=100_000, primary_domain=10_000, primary_skew=1.2, seed=11
    )
    counts = Counter(x for x, _ in generate_zipf(workload))
    harmonic = sum(r ** -1.2 for r in range(1, 10_001))
    expected = 100_000 / harmonic
    observed = counts[b"1"]
    assert abs(observed - expected) / expected < 0.2


def test_probabilities_normalized_and_monotone():
    probs = zipf_probabilities(100, 1.3)
    assert abs(probs.sum() - 1.0) < 1e-12
    assert all(probs[i] >= probs[i + 1] for i in range(99))


def test_secondary_ranks_permuted_per_primary():
    # with a shared secondary distribution but per-primary permutations, the
    # most popular secondary should differ across popular primaries
    source = generate_zipf(
        spec(tuple_count=50_000, primary_domain=5, secondary_domain=100,
             primary_skew=0.0, secondary_skew=1.3)
    )
    tops = {}
    by_primary: dict[bytes, Counter] = {}
    for x, y in source:
        by_primary.setdefault(x, Counter())[y] += 1
    for x, counter in by_primary.items():
        tops[x] = counter.most_common(1)[0][0]
    assert len(set(tops.values())) > 1


def test_empty_and_single_domains():
    assert list(generate_zipf(spec(tuple_count=0))) == []
    only = list(generate_zipf(spec(tuple_count=5, primary_domain=1, secondary_domain=1)))
    assert only == [(b"1", b"1")] * 5


def test_invalid_specs_rejected():
    with pytest.raises(InvalidParameterError):
        spec(primary_domain=0)
    with pytest.raises(InvalidParameterError):
        spec(secondary_domain=0)
    with pytest.raises(InvalidParameterError):
        spec(tuple_count=-1)
    with pytest.raises(InvalidParameterError):
        spec(primary_skew=-0.5)
    with pytest.raises(InvalidParameterError):
        spec(secondary_skew=float("inf"))
    with pytest.raises(InvalidParameterError, match="primary_skew"):
        spec(primary_skew=10**400)  # an int past the float range
    for name in ("tuple_count", "primary_domain", "secondary_domain"):
        for value in (2.5, 20.0, "20", True):
            with pytest.raises(InvalidParameterError, match=name):
                spec(**{name: value})
    for value in (1.5, "x", True, None):
        with pytest.raises(InvalidParameterError, match="seed"):
            spec(seed=value)
    for name in ("primary_skew", "secondary_skew"):
        for value in ("1.1", True, None):
            with pytest.raises(InvalidParameterError, match=name):
                spec(**{name: value})


def test_spec_is_immutable_and_copies_pass_the_checks_again():
    base = spec()
    with pytest.raises(AttributeError):
        base.seed = 1
    assert pickle.loads(pickle.dumps(base)) == base and copy.deepcopy(base) == base
    assert hash(spec()) == hash(base) and spec(seed=1) != base
    cls, args = base.__reduce__()
    with pytest.raises(InvalidParameterError, match="tuple_count"):
        cls(-1, *args[1:])


def test_package_and_cli_import_without_numpy():
    # `import chh` loads no submodule, so every exported name is resolved first.
    code = ("import sys, chh, chh.cli; [getattr(chh, name) for name in chh.__all__]; "
            "sys.exit('numpy' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_numpy_is_only_in_the_generate_extra():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert not [dep for dep in project["dependencies"] if dep.startswith("numpy")]
    assert [dep for dep in project["optional-dependencies"]["generate"] if dep.startswith("numpy")]


def reference_stream(spec):
    """The per-tuple generator with its scalar coprime walk, as a reference."""
    import numpy as np

    mask = 0xFFFFFFFFFFFFFFFF
    primary_cdf = np.cumsum(zipf_probabilities(spec.primary_domain, spec.primary_skew))
    secondary_cdf = np.cumsum(zipf_probabilities(spec.secondary_domain, spec.secondary_skew))
    primary_cdf[-1] = 1.0
    secondary_cdf[-1] = 1.0
    m = spec.secondary_domain
    rng = np.random.default_rng([spec.seed & mask, 0x5EC0])
    if m == 1:
        mult = shift = np.zeros(spec.primary_domain, dtype=np.int64)
    else:
        mult = rng.integers(1, m, size=spec.primary_domain, dtype=np.int64)
        shift = rng.integers(0, m, size=spec.primary_domain, dtype=np.int64)
        for i in range(spec.primary_domain):
            a = int(mult[i])
            while math.gcd(a, m) != 1:
                a = a % m + 1
            mult[i] = a
    rng = np.random.default_rng(spec.seed & mask)
    remaining = spec.tuple_count
    while remaining > 0:
        k = min(1 << 16, remaining)
        remaining -= k
        x_idx = np.searchsorted(primary_cdf, rng.random(k), side="right")
        y_rank = np.searchsorted(secondary_cdf, rng.random(k), side="right")
        y_idx = (mult[x_idx] * y_rank + shift[x_idx]) % m
        for xi, yi in zip(x_idx.tolist(), y_idx.tolist()):
            yield str(xi + 1).encode(), str(yi + 1).encode()


@pytest.mark.parametrize("overrides", [
    dict(tuple_count=150_000, primary_domain=500, secondary_domain=40),
    dict(primary_skew=0.0, secondary_skew=0.0, seed=2**70 + 3),
    dict(secondary_domain=1),
    dict(primary_domain=3000, secondary_domain=1000),
    dict(tuple_count=0),
    dict(primary_domain=1),
], ids=["several-chunks", "skew-0", "one-secondary", "many-gcd-walks", "empty", "one-primary"])
def test_stream_matches_per_tuple_reference(overrides):
    workload = spec(**overrides)
    source = generate_zipf(workload)
    expected = list(reference_stream(workload))
    assert list(source) == expected
    assert list(source) == expected


# `chh generate --n 70000 --primary-domain 2000 --secondary-domain 360
# --skew1 1.1 --skew2 0.9 --seed 9`: two chunks, and 360 has the prime
# factors 2, 3 and 5, so most multipliers take a coprime walk.
GOLDEN_GENERATE_SHA256 = "ee6e1b453ccfcbdd18eda05a6c6e78ed93ac403ae13b49a44315b0fc095fd31d"


def test_generate_output_is_pinned(tmp_path):
    out = tmp_path / "stream.tsv"
    argv = ["generate", "--n", "70000", "--primary-domain", "2000", "--secondary-domain", "360",
            "--skew1", "1.1", "--skew2", "0.9", "--seed", "9", "--out", str(out)]
    assert subprocess.run([sys.executable, "-m", "chh", *argv]).returncode == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_GENERATE_SHA256
