"""Traced run: per-layer numbers from calls into each module of `chh`.

Every span is recorded here, around public calls into the program, never
inside it. A layer is a module of `src/chh`:

    cli        interpreter start and package import of a `chh` child
    workload   ZipfStream iteration (the churn input comes from workloads.py)
    tsv        write_tuples and one TsvTupleSource pass
    sketch     ChhSketch.consume, per-update timings, report
    mg         the public MgSummary methods, wrapped by MgProbe
    snapshot   save_sketch and load_sketch
    oracle     exact_chh_naive and exact_chh_multipass on in-memory tuples
    evaluate   sweep and the error statistics

Counts are read from the program's own counters (ChhSketch.n and
outer_sweeps, MgSummary.items_seen and sweeps, TsvTupleSource.skipped_lines,
len()); the benchmark keeps no copy of them. The one count the program does
not keep, calls to MgSummary.decrement_least_key, is counted by MgProbe.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from checks import Truth
from chh import (
    ChhSketch,
    MgSummary,
    TsvTupleSource,
    exact_chh_multipass,
    exact_chh_naive,
    generate_zipf,
    load_sketch,
    primary_error_stats,
    save_sketch,
    secondary_error_stats,
    sketch_to_bytes,
    sweep,
    write_tuples,
    ZipfWorkloadSpec,
)
from harness import run_chh, run_child, setup
from workloads import ChurnInput

CLI_REPEATS = 5
BUILD_REPEATS = 3
TAIL_SAMPLES = 10  # a tail percentile needs this many samples beyond it


class Tracer:
    """In-memory spans: name, parent index, start and end (perf_counter seconds)."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, self._open[-1] if self._open else None, time.perf_counter(), None])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][3] = time.perf_counter()
            self._open.pop()

    def median(self, name: str) -> float:
        return statistics.median(end - start for n, _, start, end in self.spans if n == name)


class MgProbe:
    """Wraps the public MgSummary methods while the with-block runs.

    Every MgSummary created in the block is kept, so its counters can be
    read after its sketch entry was shed.
    """

    def __init__(self):
        self.instances: list[MgSummary] = []
        self.update_s = 0.0
        self.decrement_calls = 0
        self.decrement_s = 0.0

    def __enter__(self):
        self._saved = init, update, decrement = (
            MgSummary.__init__, MgSummary.update, MgSummary.decrement_least_key)
        clock = time.perf_counter
        probe = self

        def traced_init(summary, capacity):
            init(summary, capacity)
            probe.instances.append(summary)

        def traced_update(summary, key):
            start = clock()
            update(summary, key)
            probe.update_s += clock() - start

        def traced_decrement(summary):
            start = clock()
            decrement(summary)
            probe.decrement_s += clock() - start
            probe.decrement_calls += 1

        MgSummary.__init__ = traced_init
        MgSummary.update = traced_update
        MgSummary.decrement_least_key = traced_decrement
        return self

    def __exit__(self, *exc):
        MgSummary.__init__, MgSummary.update, MgSummary.decrement_least_key = self._saved


def tail_percentile(count: int) -> float:
    """Highest of 50, 90, 99, 99.9, ... with at least TAIL_SAMPLES samples beyond it."""
    best = 50.0
    for pct in (90.0, 99.0, 99.9, 99.99, 99.999, 99.9999):
        if count * (100 - pct) / 100 >= TAIL_SAMPLES:
            best = pct
    return best


def timed_updates(sketch: ChhSketch, tuples) -> tuple[list[int], int]:
    """Each update's nanoseconds, and the total of those that ran an outer shed."""
    clock = time.perf_counter_ns
    update = sketch.update
    samples = []
    record = samples.append
    shed_ns = 0
    for x, y in tuples:
        before = sketch.outer_sweeps
        start = clock()
        update(x, y)
        elapsed = clock() - start
        record(elapsed)
        if sketch.outer_sweeps != before:
            shed_ns += elapsed
    return samples, shed_ns


def layer_pass(workload, seed: int, tsv: Path, work: Path, tracer: Tracer) -> tuple[dict, dict]:
    """One pass over every in-process layer.

    Returns the counts and output digests, which must repeat exactly from
    pass to pass, and the timings that are not spans.
    """
    params = workload.params()
    source = workload.source
    counts, timings = {}, {}
    with tracer.span("pass"):
        with tracer.span("workload.generate_s"):
            if isinstance(source, ChurnInput):
                source.make(seed)
            else:
                for _ in generate_zipf(ZipfWorkloadSpec(
                        source.tuples, source.primary_domain, source.secondary_domain,
                        source.skew1, source.skew2, seed)):
                    pass
        reader = TsvTupleSource(tsv)
        with tracer.span("tsv.parse_s"):
            tuples = list(reader)
        counts["tsv.lines"] = len(tuples) + reader.skipped_lines
        counts["tsv.skipped_lines"] = reader.skipped_lines
        rewritten = work / "rewritten.tsv"
        with tracer.span("tsv.write_s"):
            write_tuples(rewritten, tuples)
        counts["tsv_roundtrip_sha256"] = hashlib.sha256(rewritten.read_bytes()).hexdigest()

        sketch = ChhSketch(params)
        with tracer.span("sketch.consume_s"):
            sketch.consume(tuples)
        counts["sketch.update_calls"] = sketch.n
        counts["sketch.outer_sweeps"] = sketch.outer_sweeps
        counts["sketch.outer_fill"] = len(sketch) / params.s1
        counts["sketch.stored_pairs"] = sum(len(entry.inner) for _, entry in sketch.entries())
        with tracer.span("sketch.report_s"):
            report = sketch.report()
        counts["sketch.reported_primaries"] = len(report.primaries)
        counts["sketch.reported_pairs"] = sum(len(p.secondaries) for p in report.primaries)

        with tracer.span("sketch.timed_updates"):
            samples, shed_ns = timed_updates(ChhSketch(params), tuples)
        samples.sort()
        pct = tail_percentile(len(samples))
        timings["sketch.update_p50_ns"] = samples[len(samples) // 2]
        counts["sketch.update_tail_pct"] = pct
        timings["sketch.update_tail_ns"] = samples[max(0, math.ceil(pct / 100 * len(samples)) - 1)]
        timings["sketch.shed_update_s"] = shed_ns / 1e9

        with tracer.span("mg.probe"), MgProbe() as probe:
            ChhSketch(params).consume(tuples)
        counts["mg.update_calls"] = sum(m.items_seen for m in probe.instances)
        counts["mg.inner_sweeps"] = sum(m.sweeps for m in probe.instances)
        timings["mg.update_s"] = probe.update_s
        counts["mg.decrement_least_key_calls"] = probe.decrement_calls
        timings["mg.decrement_least_key_s"] = probe.decrement_s

        snap = work / "layer.snap"
        with tracer.span("snapshot.save_s"):
            save_sketch(sketch, snap)
        counts["snapshot.bytes"] = snap.stat().st_size
        with tracer.span("snapshot.load_s"):
            loaded = load_sketch(snap)
        counts["snapshot_sha256"] = hashlib.sha256(snap.read_bytes()).hexdigest()
        counts["snapshot_reload_equal"] = sketch_to_bytes(loaded) == snap.read_bytes()

        with tracer.span("oracle.naive_s"):
            naive = exact_chh_naive(tuples, workload.phi1, workload.phi2)
        with tracer.span("oracle.multipass_s"):
            multipass = exact_chh_multipass(tuples, workload.phi1, workload.phi2)
        counts["oracle_heavy_pairs"] = sorted(naive.pairs.items())
        counts["oracles_agree"] = naive.pairs == multipass.pairs

        s1s = [int(v) for v in workload.s1_list.split(",")]
        s2s = [int(v) for v in workload.s2_list.split(",")]
        with tracer.span("evaluate.sweep_s"):
            sweep(tuples, workload.phi1, workload.phi2, s1s, s2s, oracle=multipass)
        with tracer.span("evaluate.error_stats_s"):
            primary_error_stats(naive.counts, sketch, workload.phi1)
            secondary_error_stats(naive.counts, sketch, workload.phi1, workload.phi2)
    return counts, timings


def cli_start(work: Path) -> tuple[list[float], list[float]]:
    """Seconds of a bare interpreter and of one that imports chh, alternating."""
    bare, imported = [], []
    for _ in range(CLI_REPEATS):
        bare.append(run_child([sys.executable, "-c", "pass"], work / "cli.out").seconds)
        imported.append(run_child([sys.executable, "-c", "import chh"], work / "cli.out").seconds)
    return bare, imported


def build_overhead(workload, tsv: Path, work: Path, tally) -> tuple[list[float], list[float]]:
    """`chh build` untraced and with MgProbe installed, alternating.

    Both must write the same snapshot bytes: tracing may cost time but may
    not change what the program does.
    """
    plain, traced = [], []
    for _ in range(BUILD_REPEATS):
        child = run_chh(workload.build_args(str(tsv), str(work / "plain.snap")), work / "build.out")
        tally.check(child.exit_code == 0, f"build exits 0 (got {child.exit_code})")
        plain.append(child.seconds)
        child = run_child(
            [sys.executable, str(Path(__file__).with_name("traced_build.py")),
             *workload.build_args(str(tsv), str(work / "traced.snap"))],
            work / "traced.out")
        tally.check(child.exit_code == 0, f"traced build exits 0 (got {child.exit_code})")
        traced.append(child.seconds)
        tally.check((work / "plain.snap").read_bytes() == (work / "traced.snap").read_bytes(),
                    "traced and untraced build write the same snapshot")
    return plain, traced


def traced(workload, seed: int, seconds: float, work: Path, tally) -> tuple[dict, dict]:
    """The --trace 1 run: layer passes repeated for ``seconds``, medians reported."""
    start = time.perf_counter()
    tracer = Tracer()
    tsv, _ = setup(workload, seed, work, tally, min_repeats=1, budget_s=0)
    params = workload.params()
    truth = Truth.from_tsv(tsv, params.phi1, params.phi2)
    with tracer.span("cli"):
        bare, imported = cli_start(work)
    with tracer.span("build_overhead"):
        plain, traced_builds = build_overhead(workload, tsv, work, tally)
    cli_snapshot = (work / "plain.snap").read_bytes()

    passes, pass_timings = [], []
    while True:
        pass_start = time.perf_counter()
        counts, timings = layer_pass(workload, seed, tsv, work, tracer)
        passes.append(counts)
        pass_timings.append(timings)
        tally.check(counts == passes[0], "layer counts and output digests repeat across passes")
        tally.check(counts["tsv.lines"] == workload.tuples and counts["tsv.skipped_lines"] == 0,
                    "one TSV pass reads every input line")
        tally.check(counts["tsv_roundtrip_sha256"] == hashlib.sha256(tsv.read_bytes()).hexdigest(),
                    "write_tuples reproduces the input bytes")
        tally.check(counts["snapshot_sha256"] == hashlib.sha256(cli_snapshot).hexdigest(),
                    "in-process sketch saves the bytes `chh build` wrote")
        tally.check(counts["snapshot_reload_equal"], "a loaded snapshot saves to the same bytes")
        tally.check(counts["oracles_agree"], "naive and multipass oracles agree")
        tally.check(dict(counts["oracle_heavy_pairs"]) == truth.heavy_pairs,
                    "oracle heavy pairs match an independent count")
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break

    median = statistics.median
    interpreter = median(bare)
    consume = tracer.median("sketch.consume_s")
    metrics = {
        "cli.interpreter_s": (interpreter, "s"),
        "cli.import_s": (median(imported) - interpreter, "s"),
        "trace.overhead_s": (median(traced_builds) - median(plain), "s"),
    }
    for name in ("workload.generate_s", "tsv.write_s", "tsv.parse_s", "sketch.consume_s",
                 "sketch.report_s", "snapshot.save_s", "snapshot.load_s", "oracle.naive_s",
                 "oracle.multipass_s", "evaluate.sweep_s", "evaluate.error_stats_s"):
        metrics[name] = (tracer.median(name), "s")
    last = passes[-1]
    for name, unit in (
        ("tsv.lines", "count"), ("tsv.skipped_lines", "count"),
        ("sketch.update_calls", "count"), ("sketch.outer_sweeps", "count"),
        ("sketch.outer_fill", "ratio"), ("sketch.stored_pairs", "count"),
        ("sketch.reported_primaries", "count"), ("sketch.reported_pairs", "count"),
        ("sketch.update_tail_pct", "%"), ("mg.update_calls", "count"),
        ("mg.inner_sweeps", "count"), ("mg.decrement_least_key_calls", "count"),
        ("snapshot.bytes", "B"),
    ):
        metrics[name] = (last[name], unit)
    for name, unit in (("sketch.update_p50_ns", "ns"), ("sketch.update_tail_ns", "ns"),
                       ("mg.update_s", "s")):
        metrics[name] = (median(t[name] for t in pass_timings), unit)
    # Without outer sheds these two times are exactly 0 s, which would read
    # like a stopped clock; they are reported as shares of the pass that
    # ran them, and the seconds go to the detail line.
    shed_s = median(t["sketch.shed_update_s"] for t in pass_timings)
    decrement_s = median(t["mg.decrement_least_key_s"] for t in pass_timings)
    metrics["sketch.shed_share"] = (shed_s / consume, "ratio")
    metrics["mg.decrement_least_key_share"] = (decrement_s / tracer.median("mg.probe"), "ratio")

    detail = {
        "passes": len(passes),
        "measured_s": time.perf_counter() - start,
        "cli_bare_s_samples": bare,
        "cli_import_s_samples": imported,
        "build_plain_s_samples": plain,
        "build_traced_s_samples": traced_builds,
        "sketch.shed_update_s": shed_s,
        "mg.decrement_least_key_s": decrement_s,
        "spans": tracer.spans,
    }
    return metrics, detail
