"""Seeded synthetic two-dimensional Zipf workloads.

Real tuple streams of interest (traffic traces, text n-grams) are heavily
skewed along both dimensions, so the generator draws primary values from a
Zipf distribution and, within each primary value, secondary values from a
second Zipf distribution whose rank order is permuted per primary value.
That way different popular primaries favour different secondaries, which is
what exercises the per-primary inner tables.

numpy is imported inside the functions that draw or weight ranks, so the
rest of the package (and every CLI command but ``generate``) runs without
loading it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Iterator

from .errors import InvalidParameterError, check_positive_int

if TYPE_CHECKING:
    import numpy as np

_CHUNK = 1 << 16


@dataclass(frozen=True)
class ZipfWorkloadSpec:
    """Deterministic workload description; equal specs give equal streams."""

    tuple_count: int
    primary_domain: int
    secondary_domain: int
    primary_skew: float = 1.1
    secondary_skew: float = 1.0
    seed: int = 0

    def __post_init__(self):
        count = self.tuple_count
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise InvalidParameterError(f"tuple_count must be an integer >= 0, got {count!r}")
        check_positive_int(self.primary_domain, "primary_domain")
        check_positive_int(self.secondary_domain, "secondary_domain")
        for name in ("primary_skew", "secondary_skew"):
            skew = getattr(self, name)
            if (
                not isinstance(skew, (int, float))
                or isinstance(skew, bool)
                or not 0 <= skew <= sys.float_info.max  # NaN and huge ints fail too
            ):
                raise InvalidParameterError(f"{name} must be a finite value >= 0, got {skew!r}")
        seed = self.seed
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise InvalidParameterError(f"seed must be an integer, got {seed!r}")


def zipf_probabilities(domain: int, skew: float) -> np.ndarray:
    """Probability of each rank 1..domain under Zipf(skew); skew 0 is uniform."""
    import numpy as np

    ranks = np.arange(1, domain + 1, dtype=np.float64)
    weights = ranks ** (-float(skew))
    return weights / weights.sum()


class ZipfStream:
    """Replayable (x, y) byte-tuple stream drawn from a `ZipfWorkloadSpec`.

    Ranks are sampled by inverse CDF from a seeded generator, so every pass
    yields the identical sequence. Labels are the decimal rank (1-based) as
    bytes. Secondary ranks go through a per-primary affine permutation
    ``rank -> (a * rank + b) mod domain`` with ``a`` coprime to the domain.
    """

    def __init__(self, spec: ZipfWorkloadSpec):
        import numpy as np

        self.spec = spec
        self._primary_cdf = np.cumsum(
            zipf_probabilities(spec.primary_domain, spec.primary_skew)
        )
        self._secondary_cdf = np.cumsum(
            zipf_probabilities(spec.secondary_domain, spec.secondary_skew)
        )
        # Draws are uniform on [0, 1); pinning the top keeps searchsorted in
        # range even when rounding leaves the cumulative sum under 1.
        self._primary_cdf[-1] = 1.0
        self._secondary_cdf[-1] = 1.0
        self._mult, self._shift = self._permutation_tables()
        self._primary_labels = [str(i).encode() for i in range(1, spec.primary_domain + 1)]
        self._secondary_labels = [
            str(i).encode() for i in range(1, spec.secondary_domain + 1)
        ]

    def _permutation_tables(self) -> tuple[np.ndarray, np.ndarray]:
        import numpy as np

        spec = self.spec
        m = spec.secondary_domain
        rng = np.random.default_rng([spec.seed & 0xFFFFFFFFFFFFFFFF, 0x5EC0])
        if m == 1:
            zeros = np.zeros(spec.primary_domain, dtype=np.int64)
            return zeros, zeros
        mult = rng.integers(1, m, size=spec.primary_domain, dtype=np.int64)
        shift = rng.integers(0, m, size=spec.primary_domain, dtype=np.int64)
        # Each multiplier not coprime to m walks 1..m cyclically until it is;
        # 1 always is, so every walk ends.
        bad = np.gcd(mult, m) != 1
        while bad.any():
            mult[bad] = mult[bad] % m + 1
            bad = np.gcd(mult, m) != 1
        return mult, shift

    def __iter__(self) -> Iterator[tuple[bytes, bytes]]:
        return chain.from_iterable(self._chunks())

    def _chunks(self) -> Iterator[Iterator[tuple[bytes, bytes]]]:
        """The tuples of each ``_CHUNK`` draws, labelled by C-level ``zip`` and ``map``."""
        import numpy as np

        spec = self.spec
        rng = np.random.default_rng(spec.seed & 0xFFFFFFFFFFFFFFFF)
        m = spec.secondary_domain
        xlabels = self._primary_labels
        ylabels = self._secondary_labels
        remaining = spec.tuple_count
        while remaining > 0:
            k = min(_CHUNK, remaining)
            remaining -= k
            x_idx = np.searchsorted(self._primary_cdf, rng.random(k), side="right")
            y_rank = np.searchsorted(self._secondary_cdf, rng.random(k), side="right")
            y_idx = (self._mult[x_idx] * y_rank + self._shift[x_idx]) % m
            yield zip(
                map(xlabels.__getitem__, x_idx.tolist()),
                map(ylabels.__getitem__, y_idx.tolist()),
            )


def generate_zipf(spec: ZipfWorkloadSpec) -> ZipfStream:
    """Replayable tuple source for ``spec``."""
    return ZipfStream(spec)
