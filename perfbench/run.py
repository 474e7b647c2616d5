#!/usr/bin/env python3
"""Benchmark of the `chh` command line, end to end and layer by layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload zipf --seed 1 --seconds 35 --trace 0

The seed fixes the workload's input. The input is written several times and
the median time is ``setup_s``. Then, for
``--seconds``, one client runs the workload's `chh` commands as child
processes one after another (closed loop): build, report (text), report
(csv), exact and evaluate. Every output is checked against an independent
count of the input, and its sha256 must repeat from round to round.

With ``--trace 0`` the last line of standard output is the end-to-end
result; with ``--trace 1`` a separate in-process run times each module's
public calls instead (see layers.py). Either way the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it carry the provenance, the output digests and every sample.
The program is taken from ``src/`` of the checkout; without it the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

from checks import Tally, Truth, check_exact, check_report, check_snapshot, check_sweep
from harness import ROOT, SRC, run_chh, setup, sha256
from workloads import WORKLOADS

WORK = ROOT / ".perfbench_work"
MIN_ROUNDS = 2  # the digest repeat check needs a second round


def provenance(workload, seed: int) -> dict:
    import numpy

    sources = hashlib.sha256()
    for path in sorted((SRC / "chh").rglob("*.py")):
        sources.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "source_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "seed": seed,
        "input_tuples": workload.tuples,
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` directly; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ")[0]
    except OSError:
        pass
    return None


def end_to_end(workload, seed: int, seconds: float, work: Path, tally) -> tuple[dict, dict]:
    """Run the closed loop for ``seconds``; returns metrics and detail."""
    tsv, setup_seconds = setup(workload, seed, work, tally)
    params = workload.params()
    truth = Truth.from_tsv(tsv, params.phi1, params.phi2)
    tally.check(truth.n == workload.tuples, "input holds the workload's tuple count")
    snap, sweep_csv = work / "sketch.snap", work / "sweep.csv"
    commands = {
        "build": workload.build_args(str(tsv), str(snap)),
        "report": ["report", "--sketch", str(snap)],
        "report_csv": ["report", "--sketch", str(snap), "--format", "csv"],
        "exact": workload.exact_args(str(tsv)),
        "evaluate": workload.evaluate_args(str(tsv), str(sweep_csv)),
    }
    samples: dict[str, list[float]] = {name: [] for name in commands}
    peak_rss: list[float] = []
    digests: dict[str, str] = {}
    rounds = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        outputs = {}
        for name, args in commands.items():
            child = run_chh(args, work / f"{name}.out")
            samples[name].append(child.seconds)
            tally.check(child.exit_code == 0, f"{name} exits 0 (got {child.exit_code})")
            outputs[name] = child.stdout.read_bytes()
            if name == "build":
                peak_rss.append(child.peak_rss_mb)
        outputs["snapshot"] = snap.read_bytes() if snap.exists() else b""
        outputs["sweep_csv"] = sweep_csv.read_bytes() if sweep_csv.exists() else b""
        check_snapshot(tally, outputs["snapshot"], workload.tuples)
        check_report(tally, outputs["report"], outputs["report_csv"], truth, params)
        check_exact(tally, outputs["exact"], truth)
        check_sweep(tally, outputs["sweep_csv"], workload, workload.tuples)
        for name in ("snapshot", "report", "report_csv", "exact", "sweep_csv"):
            digest = hashlib.sha256(outputs[name]).hexdigest()
            if rounds:
                tally.check(digest == digests[name], f"{name} bytes repeat across rounds")
            else:
                digests[name] = digest
        rounds += 1
        now = time.perf_counter()
        if rounds >= MIN_ROUNDS and now - start + (now - round_start) > seconds:
            break

    median = statistics.median
    metrics = {
        "setup_s": (median(setup_seconds), "s"),
        "build_tuples_per_s": (median(workload.tuples / s for s in samples["build"]), "tuples/s"),
        "build_peak_rss_mb": (median(peak_rss), "MB"),
        "report_s": (median(samples["report"]), "s"),
        "exact_s": (median(samples["exact"]), "s"),
        "evaluate_s": (median(samples["evaluate"]), "s"),
    }
    detail = {
        "rounds": rounds,
        "measured_s": time.perf_counter() - start,
        "setup_s_samples": setup_seconds,
        "command_s_samples": samples,
        "build_peak_rss_mb_samples": peak_rss,
        "digests": digests,
        "input_sha256": sha256(tsv),
    }
    return metrics, detail


def main(argv=None, workloads=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "chh" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'chh'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads = workloads or WORKLOADS
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    workload = workloads[args.workload]

    tally = Tally()
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            from layers import traced  # imports chh, which needs SRC on the path

            metrics, detail = traced(workload, args.seed, args.seconds, work, tally)
        else:
            metrics, detail = end_to_end(workload, args.seed, args.seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # fails while another run still uses it

    detail["provenance"] = provenance(workload, args.seed)
    detail["error_rate"] = tally.failed / tally.attempted
    detail["failures"] = tally.reasons
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} = {value} {unit}")
    print(f"{workload.name} error_rate = {tally.failed}/{tally.attempted}")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
