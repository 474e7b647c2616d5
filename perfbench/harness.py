"""Child processes and input set-up shared by the end-to-end and traced runs."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import ChurnInput

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_MIN_REPEATS = 3
SETUP_BUDGET_S = 3.0


@dataclass
class Child:
    seconds: float
    exit_code: int
    peak_rss_mb: float
    stdout: Path


def chh_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_child(argv: list[str], out: Path) -> Child:
    """Run one child to completion; its own rusage gives its peak RSS.

    Standard output goes to ``out`` and standard error next to it, so a
    large output can never block the child on a full pipe.
    """
    with open(out, "wb") as stdout, open(out.with_suffix(".err"), "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=chh_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(seconds, proc.returncode, usage.ru_maxrss / 1024, out)


def run_chh(args: list[str], out: Path) -> Child:
    return run_child([sys.executable, "-m", "chh", *args], out)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def setup_input(workload, seed: int, tsv: Path, tally) -> float:
    """Write the workload's input TSV; returns the seconds it took."""
    source = workload.source
    if isinstance(source, ChurnInput):
        from chh import write_tuples

        tuples = source.make(seed)
        start = time.perf_counter()
        write_tuples(tsv, tuples)
        return time.perf_counter() - start
    child = run_chh(source.generate_args(seed, str(tsv)), tsv.with_suffix(".gen.out"))
    tally.check(child.exit_code == 0, f"generate exits 0 (got {child.exit_code})")
    return child.seconds


def setup(workload, seed: int, work: Path, tally, min_repeats: int = SETUP_MIN_REPEATS,
          budget_s: float = SETUP_BUDGET_S) -> tuple[Path, list[float]]:
    """Set the input up at least ``min_repeats`` times and for ``budget_s``.

    Every repeat must write the same bytes.
    """
    tsv = work / "input.tsv"
    seconds, digests = [], []
    start = time.perf_counter()
    while len(seconds) < min_repeats or time.perf_counter() - start < budget_s:
        seconds.append(setup_input(workload, seed, tsv, tally))
        digests.append(sha256(tsv))
    tally.check(len(set(digests)) == 1, "every set-up writes identical input bytes")
    return tsv, seconds
