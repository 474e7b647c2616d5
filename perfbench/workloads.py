"""Workload definitions: how each input is made and which flags it runs with.

Each workload names a seeded input and the flags of every `chh` command it
runs. See README.md in this directory for why each workload exists and which
layer it stresses or bypasses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ZipfInput:
    """A `chh generate` stream; skews of 0 make it uniform."""

    tuples: int
    primary_domain: int
    secondary_domain: int
    skew1: float
    skew2: float

    def generate_args(self, seed: int, out: str) -> list[str]:
        return [
            "generate",
            "--n", str(self.tuples),
            "--primary-domain", str(self.primary_domain),
            "--secondary-domain", str(self.secondary_domain),
            "--skew1", repr(self.skew1),
            "--skew2", repr(self.skew2),
            "--seed", str(seed),
            "--out", out,
        ]


@dataclass(frozen=True)
class ChurnInput:
    """The worst-case adversary for the outer shed round.

    ``s1 - 1`` cold primaries each bring exactly ``s2`` distinct secondaries,
    which fills the outer table and every inner table to capacity without a
    single shed. One hot primary (``hot`` tuples over four secondaries,
    spread through the fill) gives the report and the oracle something
    heavy to find. Then ``tail`` new primaries arrive, one tuple each; every
    one of them overflows the outer table and forces a shed round against
    full inner tables. ``tail < s2`` keeps the cold primaries from draining.
    """

    s1: int
    s2: int
    hot: int
    tail: int

    @property
    def tuples(self) -> int:
        return (self.s1 - 1) * self.s2 + self.hot + self.tail

    def make(self, seed: int) -> list[tuple[bytes, bytes]]:
        rng = random.Random(seed)
        cold_count = self.s1 - 1
        labels = [
            b"%012x" % v
            for v in rng.sample(range(1 << 48), cold_count + 1 + self.tail + self.s2 + 4)
        ]
        cold = labels[:cold_count]
        hot_key = labels[cold_count]
        tail = labels[cold_count + 1:cold_count + 1 + self.tail]
        secondaries = labels[cold_count + 1 + self.tail:-4]
        hot_secondaries = labels[-4:]
        out: list[tuple[bytes, bytes]] = []
        hot_left = self.hot
        for i, d in enumerate(cold):
            order = secondaries[:]
            rng.shuffle(order)
            out.extend((d, s) for s in order)
            burst = hot_left // (cold_count - i)
            hot_left -= burst
            out.extend((hot_key, hot_secondaries[rng.randrange(4)]) for _ in range(burst))
        out.extend((d, secondaries[0]) for d in tail)
        return out


@dataclass(frozen=True)
class Workload:
    name: str
    source: ZipfInput | ChurnInput
    phi1: str
    phi2: str
    size_flags: tuple[str, ...]  # solver (--eps1/--eps2) or raw (--s1/--s2) sizes
    s1_list: str
    s2_list: str

    @property
    def tuples(self) -> int:
        return self.source.tuples

    def build_args(self, tsv: str, snap: str) -> list[str]:
        return ["build", "--in", tsv, "--phi1", self.phi1, "--phi2", self.phi2,
                *self.size_flags, "--out", snap]

    def exact_args(self, tsv: str) -> list[str]:
        return ["exact", "--in", tsv, "--phi1", self.phi1, "--phi2", self.phi2]

    def evaluate_args(self, tsv: str, out: str) -> list[str]:
        return ["evaluate", "--in", tsv, "--phi1", self.phi1, "--phi2", self.phi2,
                "--s1-list", self.s1_list, "--s2-list", self.s2_list, "--out", out]

    def params(self):
        """The `ChhParams` that `build` derives from ``size_flags``."""
        from chh import ChhParams, solve_params

        flags = dict(zip(self.size_flags[::2], self.size_flags[1::2]))
        if "--s1" in flags:
            return ChhParams.from_raw(self.phi1, self.phi2, int(flags["--s1"]), int(flags["--s2"]))
        return solve_params(self.phi1, self.phi2, flags["--eps1"], flags["--eps2"])


WORKLOADS = {
    w.name: w
    for w in (
        # Typical skewed traffic; the ROADMAP baseline shape at a twentieth of
        # its length. s1=5500, s2=25.
        Workload(
            "zipf",
            ZipfInput(50_000, 10_000, 1_000, 1.1, 1.0),
            "0.01", "0.1", ("--eps1", "0.005", "--eps2", "0.08"),
            "2000,5500,10000", "25",
        ),
        # Worst case for the outer shed round: every shed meets full inner
        # tables, so each costs O(s1 * s2).
        Workload(
            "churn",
            ChurnInput(s1=300, s2=120, hot=9_000, tail=80),
            "0.1", "0.1", ("--s1", "300", "--s2", "120"),
            "300", "60,120,240",
        ),
        # Uniform, insert-heavy: no outer sheds, nearly every tuple a new
        # pair, and a large snapshot. s1=505000, s2=250.
        Workload(
            "wide",
            ZipfInput(110_000, 11_000, 1_000, 0.0, 0.0),
            "0.001", "0.01", ("--eps1", "0.0005", "--eps2", "0.008"),
            "505000", "250,500,1000",
        ),
    )
}

# Same shapes at a few thousand tuples, for the self-test.
TINY = {
    "zipf": replace(WORKLOADS["zipf"], source=ZipfInput(3_000, 300, 50, 1.1, 1.0)),
    "churn": replace(
        WORKLOADS["churn"],
        source=ChurnInput(s1=200, s2=30, hot=1_500, tail=20),
        size_flags=("--s1", "200", "--s2", "30"),
        s1_list="200",
        s2_list="30,45,60",
    ),
    "wide": replace(WORKLOADS["wide"], source=ZipfInput(3_000, 2_000, 100, 0.0, 0.0)),
}
