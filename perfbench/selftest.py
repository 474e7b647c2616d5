#!/usr/bin/env python3
"""Self-test: every workload at a tiny size, with output checks and no timing bounds.

    python3 perfbench/selftest.py

Runs each workload of workloads.TINY on two seeds, untraced and traced, and
requires every run to pass its output checks and to print exactly the
metrics, with the units, that BENCHMARK.json names. It also requires the
benchmark to fail, without a result, in a copy that holds only
BENCHMARK.json and this directory. Exits 0 when everything holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent
SEEDS = (1, 2)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS) == set(workloads.TINY)
    print(f"{'ok' if ok else 'FAIL'} BENCHMARK.json names the workloads of workloads.py")
    for name in workloads.TINY:
        for seed in SEEDS:
            for trace in (0, 1):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = run.main(["--workload", name, "--seed", str(seed), "--seconds", "0",
                                     "--trace", str(trace)], workloads.TINY)
                result = json.loads(out.getvalue().splitlines()[-1])
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                good = code == 0 and result["correct"] and units == expected[trace]
                ok &= good
                print(f"{'ok' if good else 'FAIL'} {name} seed={seed} trace={trace} "
                      f"failed {result['failed']}/{result['attempted']}")

    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", "zipf", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()
    good = proc.returncode != 0 and '"correct"' not in proc.stdout
    ok &= good
    print(f"{'ok' if good else 'FAIL'} without src/chh the benchmark exits {proc.returncode}, no result")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
