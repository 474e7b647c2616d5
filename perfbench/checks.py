"""Output checks: every `chh` output is compared with an independent count.

The benchmark counts the input itself (a plain dictionary count over the
TSV), so no check trusts the code it is checking. Each check is one attempt
in the tally; a check that does not hold is one failure.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path


@dataclass
class Tally:
    """Attempted and failed commands and checks; failures keep a reason."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(what)
            print(f"FAIL {what}", file=sys.stderr, flush=True)
        return ok


@dataclass
class Truth:
    """Exact counts of one input and the heavy sets they imply."""

    n: int
    primary: Counter
    pairs: Counter
    heavy_pairs: dict[tuple[bytes, bytes], int]

    @classmethod
    def from_tsv(cls, path: Path, phi1: Fraction, phi2: Fraction) -> "Truth":
        pairs: Counter = Counter()
        with open(path, "rb") as handle:
            for line in handle:
                x, _, y = line.rstrip(b"\n").partition(b"\t")
                pairs[x, y] += 1
        primary: Counter = Counter()
        for (x, _), count in pairs.items():
            primary[x] += count
        n = sum(primary.values())
        heavy = {d for d, c in primary.items() if c > phi1 * n}
        heavy_pairs = {
            (d, s): c for (d, s), c in pairs.items() if d in heavy and c > phi2 * primary[d]
        }
        return cls(n, primary, pairs, heavy_pairs)


def parse_report_csv(data: bytes):
    """(primaries {d: est}, pairs {(d, s): est}) from `chh report --format csv`."""
    lines = data.splitlines()
    if not lines or lines[0] != b"kind,d,s,est_count":
        raise ValueError("bad report csv header")
    primaries, pairs = {}, {}
    for line in lines[1:]:
        kind, d, s, est = line.split(b",")
        if kind == b"primary":
            primaries[d] = int(est)
        elif kind == b"pair":
            pairs[d, s] = int(est)
        else:
            raise ValueError(f"bad report csv row {line!r}")
    return primaries, pairs


def report_csv_as_text(data: bytes) -> bytes:
    """The text report that carries the same rows as a CSV report."""
    out = []
    for line in data.splitlines()[1:]:
        kind, d, s, est = line.split(b",")
        out.append(b"%s %d\n" % (d, int(est)) if kind == b"primary" else b"%s %s %d\n" % (d, s, int(est)))
    return b"".join(out)


def parse_exact(data: bytes) -> dict[tuple[bytes, bytes], int]:
    """{(d, s): count} from `chh exact` lines ``(d,s) count``."""
    out = {}
    for line in data.splitlines():
        pair, count = line.rsplit(b" ", 1)
        d, s = pair[1:-1].split(b",", 1)
        out[d, s] = int(count)
    return out


def check_snapshot(tally: Tally, data: bytes, n: int) -> None:
    tally.check(b"\nn %d\n" % n in data, "snapshot records the input length")


def check_report(tally: Tally, text: bytes, csv: bytes, truth: Truth, params) -> None:
    """Report agrees with itself, misses no heavy pair, and stays in tolerance."""
    try:
        primaries, pairs = parse_report_csv(csv)
    except ValueError as exc:
        tally.check(False, f"report csv parses ({exc})")
        return
    tally.check(report_csv_as_text(csv) == text, "report text and csv carry the same rows")
    missing = [p for p in truth.heavy_pairs if p not in pairs]
    tally.check(not missing, f"no false negatives (missing {missing[:3]})")
    n = truth.n
    primary_floor = (params.phi1 - params.eps1) * n
    bad = [d for d, est in primaries.items()
           if not (truth.primary[d] >= primary_floor and est <= truth.primary[d])]
    tally.check(not bad, f"reported primaries meet the floor, estimates one-sided ({bad[:3]})")
    bad = [(d, s) for (d, s), est in pairs.items()
           if not (truth.pairs[d, s] >= (params.phi2 - params.eps2) * truth.primary[d]
                   and est <= truth.pairs[d, s])]
    tally.check(not bad, f"reported pairs meet the floor, estimates one-sided ({bad[:3]})")


def check_exact(tally: Tally, data: bytes, truth: Truth) -> None:
    try:
        exact = parse_exact(data)
    except ValueError as exc:
        tally.check(False, f"exact output parses ({exc})")
        return
    tally.check(exact == truth.heavy_pairs, "exact lists exactly the heavy pairs with true counts")


SWEEP_HEADER = (
    b"s1,s2,n,primary_max,primary_avg,primary_theory,"
    b"secondary_max,secondary_avg,secondary_theory,reported_primaries,reported_pairs"
)


def check_sweep(tally: Tally, data: bytes, workload, n: int) -> None:
    """One row per configuration, over the whole input, within its ceilings.

    The ceilings are guaranteed only for feasible table sizes, so only
    those rows are held to them.
    """
    from chh import ChhParams

    lines = data.splitlines()
    configs = [(int(a), int(b)) for a in workload.s1_list.split(",") for b in workload.s2_list.split(",")]
    tally.check(lines[:1] == [SWEEP_HEADER] and len(lines) == len(configs) + 1,
                "sweep csv has its header and one row per configuration")
    for line, (s1, s2) in zip(lines[1:], configs):
        f = line.split(b",")
        try:
            ok = [int(f[0]), int(f[1]), int(f[2])] == [s1, s2, n]
            if ChhParams.from_raw(workload.phi1, workload.phi2, s1, s2).constraints_satisfied():
                ok = ok and float(f[3]) <= float(f[5]) and float(f[6]) <= float(f[8])
        except (ValueError, IndexError):
            ok = False
        tally.check(ok, f"sweep row s1={s1} s2={s2} covers the input and meets its ceilings")
