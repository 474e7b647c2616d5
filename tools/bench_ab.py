#!/usr/bin/env python3
"""Paired benchmark runs of a parent and a change checkout, written as one JSON record.

Usage, from the root of the change's checkout:

    git clone -q . ../parent && git -C ../parent checkout -q PARENT_SHA
    python3 tools/bench_ab.py --parent ../parent --out BENCH_7.json \\
        --pairs zipf=3,churn=10,wide=9 --traced churn

The change is the checkout this script lives in. Each pair runs
``perfbench/run.py`` of both checkouts, one after the other, with the same
workload, seed and settings, for the ``run_seconds`` that ``BENCHMARK.json``
fixes. The side that runs first alternates from pair to pair, and pair i of
a workload uses seed i + 1. Every ``--traced`` workload gets one more pair
with ``--trace 1``. The record holds both result lines of every pair (the last JSON line of each run, and the
detail line before it), whether the output digests of the two sides agree,
and per workload and trace setting the median change/parent ratio of each
metric both sides report, each side's median and quartiles, and how many pairs
the change won; a metric only one side reports is listed under ``one_sided``.
``gain_rule_met`` says whether a gain may be claimed for the metric: the change
won at least nine tenths of the pairs, ties counting for neither, and its
median beats the parent's by more than the parent's quartile spread.

Every run of a checkout, and every process it starts, writes and reads its
bytecode under ``PYTHONPYCACHEPREFIX``, set to a fresh directory the script
makes for that checkout and removes at the end. So no ``__pycache__`` left in
either tree is read, and both sides start from the same cold cache: when only
one checkout held one, commands the change did not touch read as slower.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int, pycache: Path) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    env = {**os.environ, "PYTHONPYCACHEPREFIX": str(pycache)}
    done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    return {"result": json.loads(lines[-1]), "detail": json.loads(lines[-2])["detail"]}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Summarize each metric both sides report, keyed by its name.

    A metric only one side reports cannot be paired; when there are any, the
    ``one_sided`` key lists their names under ``parent`` and ``change``.
    """
    metrics = pairs[0]["parent"]["result"]["metrics"]
    change_metrics = pairs[0]["change"]["result"]["metrics"]
    summary = {}
    one_sided = {"parent": sorted(metrics.keys() - change_metrics.keys()),
                 "change": sorted(change_metrics.keys() - metrics.keys())}
    if one_sided["parent"] or one_sided["change"]:
        summary["one_sided"] = one_sided
    for name in metrics:
        if name not in change_metrics:
            continue
        parent = [p["parent"]["result"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["result"]["metrics"][name]["value"] for p in pairs]
        lower = better.get(name, "lower") == "lower"
        parent_median, change_median = statistics.median(parent), statistics.median(change)
        q1, q3 = quartiles(parent)
        wins = sum((c < p) if lower else (c > p) for c, p in zip(change, parent))
        gain = parent_median - change_median if lower else change_median - parent_median
        summary[name] = {
            "unit": metrics[name]["unit"],
            "better": "lower" if lower else "higher",
            "median_ratio": statistics.median(c / p for c, p in zip(change, parent)) if all(parent) else None,
            "parent_median": parent_median,
            "change_median": change_median,
            "parent_quartiles": [q1, q3],
            "change_quartiles": quartiles(change),
            "change_wins": wins,
            "pairs": len(pairs),
            "gain_rule_met": 10 * wins >= 9 * len(pairs) and gain > q3 - q1,
        }
    return summary


def record(pairs: list[dict], seconds: float, better: dict[str, str]) -> dict:
    summary: dict[str, dict] = {}
    for workload, trace in dict.fromkeys((p["workload"], p["trace"]) for p in pairs):
        group = [p for p in pairs if p["workload"] == workload and p["trace"] == trace]
        summary.setdefault(workload, {})[f"trace{trace}"] = summarize(group, better)
    checkouts = ("parent", "change")
    return {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds "
                   f"{seconds:g} --trace T",
        "parent_git_sha": pairs[0]["parent"]["detail"]["provenance"]["git_sha"],
        "change_git_sha": pairs[0]["change"]["detail"]["provenance"]["git_sha"],
        "provenance": {side: pairs[0][side]["detail"]["provenance"] for side in checkouts},
        "all_correct": all(p[side]["result"]["correct"] for p in pairs for side in checkouts),
        "failed": sum(p[side]["result"]["failed"] for p in pairs for side in checkouts),
        "digests_identical": all(p.get("digests_identical", True) for p in pairs),
        "summary": summary,
        "pairs": pairs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", required=True, help="WORKLOAD=PAIRS,... with --trace 0")
    parser.add_argument("--traced", default="", help="WORKLOAD,... with one --trace 1 pair each")
    args = parser.parse_args(argv)
    try:
        plan = [(name, int(count)) for name, count in (item.split("=") for item in args.pairs.split(","))]
    except ValueError:
        parser.error(f"--pairs takes WORKLOAD=PAIRS,...; got {args.pairs!r}")
    if any(count < 1 for _, count in plan):
        parser.error(f"--pairs takes at least one pair per workload; got {args.pairs!r}")
    if len({name for name, _ in plan}) < len(plan):
        parser.error(f"--pairs names a workload twice, which would rerun its seeds; got {args.pairs!r}")
    traced = [name for name in args.traced.split(",") if name]
    if len(set(traced)) < len(traced):
        parser.error(f"--traced names a workload twice, which would rerun its traced pair; got {args.traced!r}")
    checkouts = {"parent": args.parent.resolve(), "change": Path(__file__).resolve().parents[1]}
    declared = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}
    known = {w["name"] for w in declared["workloads"]}
    unknown = sorted({name for name, _ in plan}.union(traced) - known)
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}; BENCHMARK.json declares "
                     f"{', '.join(sorted(known))}")

    runs = [(name, i + 1, 0) for name, count in plan for i in range(count)]
    runs += [(name, 1, 1) for name in traced]
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as scratch:
        pycache = {side: Path(scratch) / side for side in checkouts}
        for path in pycache.values():
            path.mkdir()
        for index, (workload, seed, trace) in enumerate(runs):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            pair = {"workload": workload, "seed": seed, "trace": trace, "first": order[0]}
            for side in order:
                pair[side] = run(checkouts[side], workload, seed, seconds, trace, pycache[side])
            if trace == 0:
                pair["digests_identical"] = pair["parent"]["detail"]["digests"] == pair["change"]["detail"]["digests"]
            pairs.append(pair)
            print(f"{time.strftime('%H:%M:%S')} pair {index + 1}/{len(runs)}: {workload} seed {seed}"
                  f" trace {trace}", file=sys.stderr)

    args.out.write_text(json.dumps(record(pairs, seconds, better), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
