import importlib.util
import json
import types
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

BETTER = {"build_tuples_per_s": "higher", "evaluate_s": "lower"}


def side(sha, failed, **values):
    units = {"build_tuples_per_s": "tuples/s", "evaluate_s": "s", "report_s": "s", "exact_s": "s"}
    return {
        "result": {
            "correct": True,
            "failed": failed,
            "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
        },
        "detail": {"provenance": {"git_sha": sha}},
    }


def pair(parent, change, failed=(0, 0)):
    return {
        "workload": "churn",
        "trace": 0,
        "parent": side("p0", failed[0], **parent),
        "change": side("c0", failed[1], **change),
    }


def two_pairs(failed=((0, 0), (0, 0))):
    # Pair 1: the change builds faster and evaluates faster, so it wins both.
    # Pair 2: the change builds slower and evaluates slower, so it wins neither.
    return [
        pair({"build_tuples_per_s": 100.0, "evaluate_s": 2.0},
             {"build_tuples_per_s": 150.0, "evaluate_s": 1.0}, failed[0]),
        pair({"build_tuples_per_s": 100.0, "evaluate_s": 2.0},
             {"build_tuples_per_s": 50.0, "evaluate_s": 4.0}, failed[1]),
    ]


def test_summarize_counts_wins_in_the_direction_each_metric_improves():
    summary = bench_ab.summarize(two_pairs(), BETTER)
    build = summary["build_tuples_per_s"]
    assert build["better"] == "higher"
    assert build["change_wins"] == 1
    assert build["median_ratio"] == pytest.approx((1.5 + 0.5) / 2)
    evaluate = summary["evaluate_s"]
    assert evaluate["better"] == "lower"
    assert evaluate["change_wins"] == 1
    assert evaluate["median_ratio"] == pytest.approx((0.5 + 2.0) / 2)
    assert evaluate["pairs"] == 2

    both_won = bench_ab.summarize(two_pairs()[:1], BETTER)
    assert both_won["build_tuples_per_s"]["change_wins"] == 1
    assert both_won["evaluate_s"]["change_wins"] == 1
    both_lost = bench_ab.summarize(two_pairs()[1:], BETTER)
    assert both_lost["build_tuples_per_s"]["change_wins"] == 0
    assert both_lost["evaluate_s"]["change_wins"] == 0


def ten_pairs(parent_evaluate, change_evaluate):
    return [pair({"build_tuples_per_s": 100.0, "evaluate_s": p},
                 {"build_tuples_per_s": 100.0, "evaluate_s": c})
            for p, c in zip(parent_evaluate, change_evaluate)]


PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]  # quartiles 1.0225, 1.0675


@pytest.mark.parametrize("change, wins, met", [
    # 9 of 10 won, medians 1.045 and 0.945: a gap of 0.1 beyond the spread of 0.045.
    ([c - 0.1 for c in PARENT[:9]] + [1.10], 9, True),
    # 8 of 10 won with the same gap.
    ([c - 0.1 for c in PARENT[:8]] + [1.10, 1.10], 8, False),
    # 10 of 10 won, but the medians differ by 0.01, within the spread.
    ([c - 0.01 for c in PARENT], 10, False),
])
def test_gain_rule_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_spread(change, wins, met):
    summary = bench_ab.summarize(ten_pairs(PARENT, change), BETTER)
    evaluate = summary["evaluate_s"]
    assert evaluate["change_wins"] == wins
    assert evaluate["parent_quartiles"] == pytest.approx([1.0225, 1.0675])
    assert evaluate["gain_rule_met"] is met
    # Tied in every pair: nothing won, no gain.
    assert summary["build_tuples_per_s"]["gain_rule_met"] is False


def test_median_ratio_is_none_when_a_parent_value_is_zero():
    pairs = two_pairs()
    pairs[1]["parent"]["result"]["metrics"]["evaluate_s"]["value"] = 0.0
    summary = bench_ab.summarize(pairs, BETTER)
    assert summary["evaluate_s"]["median_ratio"] is None
    assert summary["build_tuples_per_s"]["median_ratio"] is not None


def test_summarize_pairs_shared_metrics_and_lists_one_sided_ones():
    pairs = [pair({"evaluate_s": 2.0, "report_s": 1.0}, {"evaluate_s": 1.0, "exact_s": 3.0}),
             pair({"evaluate_s": 2.0, "report_s": 1.0}, {"evaluate_s": 4.0, "exact_s": 3.0})]
    summary = bench_ab.summarize(pairs, BETTER)
    assert set(summary) == {"evaluate_s", "one_sided"}
    assert summary["evaluate_s"]["change_wins"] == 1
    assert summary["one_sided"] == {"parent": ["report_s"], "change": ["exact_s"]}
    assert "one_sided" not in bench_ab.summarize(two_pairs(), BETTER)


def test_record_sums_failed_over_both_sides():
    out = bench_ab.record(two_pairs(failed=((1, 2), (0, 4))), 35, BETTER)
    assert out["failed"] == 7
    assert out["all_correct"] is True
    assert (out["parent_git_sha"], out["change_git_sha"]) == ("p0", "c0")
    assert set(out["summary"]) == {"churn"}
    assert out["summary"]["churn"]["trace0"]["evaluate_s"]["pairs"] == 2


@pytest.mark.parametrize("flags, message", [
    (["--pairs", "zipf=1,nosuch=2"], "unknown workload(s) nosuch;"),
    (["--pairs", "zipf=1", "--traced", "nosuch"], "unknown workload(s) nosuch;"),
    (["--pairs", "zipf"], "--pairs takes WORKLOAD=PAIRS"),
    (["--pairs", "zipf=x"], "--pairs takes WORKLOAD=PAIRS"),
    (["--pairs", "zipf=0"], "--pairs takes at least one pair per workload"),
    (["--pairs", "churn=1,zipf=-2"], "--pairs takes at least one pair per workload"),
    (["--pairs", "zipf=3,zipf=2"], "--pairs names a workload twice"),
    (["--pairs", "churn=1", "--traced", "churn,churn"], "--traced names a workload twice"),
])
def test_bad_workload_plan_exits_two_before_any_run(monkeypatch, tmp_path, capsys, flags, message):
    def no_run(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(bench_ab, "run", no_run)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as excinfo:
        bench_ab.main(["--parent", str(tmp_path), "--out", str(out), *flags])
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_each_checkout_runs_under_its_own_fresh_bytecode_cache(monkeypatch, tmp_path):
    calls = []

    def fake_run(command, cwd, env, **kwargs):
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        calls.append((Path(cwd), cache, cache.is_dir() and not any(cache.iterdir()), env["MARK"]))
        detail = {"detail": {"provenance": {"git_sha": "sha"}, "digests": {"csv": "d"}}}
        result = {"correct": True, "failed": 0, "metrics": {"evaluate_s": {"value": 1.0, "unit": "s"}}}
        return types.SimpleNamespace(stdout=json.dumps(detail) + "\n" + json.dumps(result) + "\n")

    monkeypatch.setattr(bench_ab.subprocess, "run", fake_run)
    monkeypatch.setenv("MARK", "passed through")
    monkeypatch.delenv("PYTHONPYCACHEPREFIX", raising=False)
    parent, out = tmp_path / "parent", tmp_path / "bench.json"
    parent.mkdir()
    assert bench_ab.main(["--parent", str(parent), "--out", str(out), "--pairs", "zipf=2"]) == 0
    change = _PATH.parents[1]
    assert [cwd for cwd, *_ in calls] == [parent, change, change, parent]
    assert all(empty and mark == "passed through" for *_, empty, mark in calls)
    caches = {cwd: {cache for c, cache, *_ in calls if c == cwd} for cwd in (parent, change)}
    assert all(len(paths) == 1 for paths in caches.values())
    (parent_cache,), (change_cache,) = caches.values()
    assert parent_cache != change_cache
    for cache in (parent_cache, change_cache):
        assert parent not in cache.parents and change not in cache.parents
        assert not cache.exists()
    assert json.loads(out.read_text())["digests_identical"] is True
