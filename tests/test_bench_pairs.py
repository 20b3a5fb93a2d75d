"""The summary arithmetic of scripts/bench_pairs.py, on fixed numbers, the
cleanup of its temporary exports, and the snapshot it keeps reachable."""

import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def run(value: float, failed: int = 0, digest: str = "d", unit: str = "s",
        name: str = "wall_s") -> dict:
    return {"correct": failed == 0, "attempted": 10, "failed": failed, "digest": digest,
            "metrics": {name: {"value": value, "unit": unit}}}


def test_compare_by_hand():
    # exclusive quartiles of 1..5 are 1.5, 3 and 4.5
    got = bench_pairs.compare([1, 2, 3, 4, 5], [0.5, 1.5, 2.5, 3.5, 6])
    assert got == {"parent_q1_median_q3": [1.5, 3.0, 4.5],
                   "change_q1_median_q3": [1.0, 2.5, 4.75],
                   "change_over_parent": 0.833,
                   "change_lower_in_pairs": 4,
                   "median_gap_over_parent_iqr": 0.17}
    # a rise reads as a negative gap; no spread on the parent's side, no gap
    assert bench_pairs.compare([2, 2, 4, 6], [3, 3, 5, 7])["median_gap_over_parent_iqr"] == -0.29
    assert bench_pairs.compare([2, 2, 2], [1, 1, 1])["median_gap_over_parent_iqr"] is None


def test_compare_flags_a_median_worse_beyond_its_bound():
    # the parent's median is 3; a bound of 0.15 allows up to 3.45 when lower
    # is better and down to 2.55 when higher is better
    parent = [1, 2, 3, 4, 5]
    for change, better, worse in (([3.3] * 5, "lower", False), ([3.6] * 5, "lower", True),
                                  ([2.7] * 5, "higher", False), ([2.4] * 5, "higher", True),
                                  ([9.0] * 5, "higher", False), ([0.1] * 5, "lower", False)):
        got = bench_pairs.compare(parent, change, (0.15, better))
        assert got["worse_beyond_bound"] is worse, (change, better)
    assert "worse_beyond_bound" not in bench_pairs.compare(parent, [3.6] * 5)


def test_bounds_come_from_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    got = bench_pairs.bounds()
    assert got == {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    pairs = [{"parent": run(1.0), "change": run(2.0)}] * 3
    assert bench_pairs.summarize(pairs, ["wall_s"], got)["wall_s"]["worse_beyond_bound"]


def test_summarize_counts_failures_and_digests():
    pairs = [{"parent": run(1.0 + i, digest=f"d{i}"),
              "change": run(0.5 + i, failed=int(i == 2), digest=f"d{min(i, 1)}")}
             for i in range(4)]
    got = bench_pairs.summarize(pairs, metrics=("wall_s",))
    assert got["pairs"] == 4
    assert got["failed"] == {"parent": 0, "change": 1}
    assert got["correct"] == {"parent": True, "change": False}
    assert got["digests_equal_in_pairs"] == 2
    assert got["wall_s"]["change_lower_in_pairs"] == 4
    assert got["wall_s"]["change_over_parent"] == round(2.0 / 2.5, 3)


def test_summarize_traced_compares_counts_and_time_ratios():
    def traced(ms: float, states: float) -> dict:
        return {"failed": 0, "correct": True, "metrics": {
            "snfa.product.ms": {"value": ms, "unit": "ms"},
            "snfa.concat.ms": {"value": 0.0, "unit": "ms"},
            "snfa.product.states_out": {"value": states, "unit": "count"}}}

    pairs = [{"parent": traced(100.0, 7.0), "change": traced(50.0, 7.0)},
             {"parent": traced(80.0, 7.0), "change": traced(60.0, 7.0)}]
    got = bench_pairs.summarize_traced(pairs)
    # a layer that reads 0 on the parent has no ratio
    assert got == {"counts_equal": True, "counts_differing": {},
                   "ms_change_over_parent": {"snfa.product.ms": 0.625}}
    pairs[1]["change"]["metrics"]["snfa.product.states_out"]["value"] = 8.0
    got = bench_pairs.summarize_traced(pairs)
    assert not got["counts_equal"]
    # each count that differs in some pair, with both sides' values pair by pair
    assert got["counts_differing"] == {
        "snfa.product.states_out": {"parent": [7.0, 7.0], "change": [7.0, 8.0]}}


def test_summarize_traced_scales_each_run_by_its_calibration():
    def traced(ms: float, wall_s: float, raw_ms: float) -> dict:
        return {"failed": 0, "correct": True, "raw_traced_ms": raw_ms, "metrics": {
            "snfa.product.ms": {"value": ms, "unit": "ms"},
            "trace.wall_s": {"value": wall_s, "unit": "s"}}}

    # pair 1: the parent ran on a machine twice as slow as the calibration
    # says (scale 0.5 against 1.0), so 100 ms against 60 ms is 50 against 60
    pairs = [{"parent": traced(100.0, 0.2, 400.0), "change": traced(60.0, 0.2, 200.0)},
             {"parent": traced(80.0, 0.1, 100.0), "change": traced(40.0, 0.1, 100.0)}]
    got = bench_pairs.summarize_traced(pairs)
    assert got["ms_change_over_parent"] == {"snfa.product.ms": 0.55}  # median of 0.6, 0.5
    assert got["ms_calibrated_change_over_parent"] == {"snfa.product.ms": 0.85}  # of 1.2, 0.5
    # a run without its raw traced pass time gives no calibrated ratios
    pairs[1]["change"]["raw_traced_ms"] = None
    assert "ms_calibrated_change_over_parent" not in bench_pairs.summarize_traced(pairs)


def test_run_side_reads_the_raw_traced_pass_time(monkeypatch, tmp_path):
    stdout = ("digest sha256 abc123\n"
              "traced pass 131.4 ms uncalibrated, of which 2.0 ms outside every span; "
              "tracing overhead +0.0100 s calibrated\n"
              '{"correct": true, "attempted": 1, "failed": 0, "metrics": {}}\n')
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *args, **kw:
                        bench_pairs.subprocess.CompletedProcess(args, 0, stdout, ""))
    got = bench_pairs.run_side(tmp_path, "long_models", 1, 1, trace=1)
    assert (got["digest"], got["raw_traced_ms"]) == ("abc123", 131.4)
    untraced = stdout.replace("traced pass", "pass")
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *args, **kw:
                        bench_pairs.subprocess.CompletedProcess(args, 0, untraced, ""))
    assert bench_pairs.run_side(tmp_path, "long_models", 1, 1, trace=0)["raw_traced_ms"] is None


def test_benchmark_definition_comes_from_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds, workloads, end_to_end = bench_pairs.benchmark()
    assert seconds == spec["run_seconds"]
    assert workloads == [w["name"] for w in spec["workloads"]]
    assert end_to_end == [m["name"] for m in spec["end_to_end"]]
    assert "wall_s" in end_to_end and "long_models" in workloads


@pytest.mark.parametrize("name", ["BENCH_5.json", "BENCH_6.json"])
def test_summarize_reproduces_a_committed_summary(name):
    report = json.loads((ROOT / name).read_text())
    end_to_end = bench_pairs.benchmark()[2]
    for workload, pairs in report["trace0"].items():
        if not isinstance(pairs, list):
            continue
        got = bench_pairs.summarize(pairs, end_to_end)
        want = report["summary"][workload]
        for key in ("pairs", "failed", "correct"):
            assert got[key] == want[key], (workload, key)
        for metric in end_to_end:
            # BENCH_5.json, made before the script, rounded the gap from a
            # differently ordered expression: it may differ by one in the last place
            gap = want[metric].pop("median_gap_over_parent_iqr")
            assert got[metric].pop("median_gap_over_parent_iqr") == pytest.approx(gap, abs=0.011)
            assert got[metric] == want[metric], (workload, metric)


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs the git repository")
def test_sigterm_removes_the_exports(tmp_path):
    # a run stopped by SIGTERM leaves neither source export behind; with
    # --change HEAD it makes no `git stash create` snapshot
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    code = (
        "import importlib.util, sys, time\n"
        "spec = importlib.util.spec_from_file_location('bench_pairs', sys.argv[1])\n"
        "bench_pairs = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(bench_pairs)\n"
        "bench_pairs.run_side = lambda *args: time.sleep(60)\n"
        "bench_pairs.main(['--out', sys.argv[2], '--parent', 'HEAD', '--change', 'HEAD'])\n")
    child = subprocess.Popen([sys.executable, "-c", code, str(ROOT / "scripts" / "bench_pairs.py"),
                              str(tmp_path / "out.json")], env=dict(os.environ, TMPDIR=str(tmp)))
    try:
        deadline = time.monotonic() + 60
        while not list(tmp.glob("bench_pairs-*")):
            assert child.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        child.send_signal(signal.SIGTERM)
        assert child.wait(timeout=60) == 128 + signal.SIGTERM
    finally:
        child.kill()
        child.wait()
    assert list(tmp.iterdir()) == []


def test_a_working_tree_snapshot_outlives_git_gc(tmp_path, monkeypatch):
    # in a repository of its own, with no user or system configuration
    for name, value in (("HOME", str(tmp_path)), ("GIT_CONFIG_NOSYSTEM", "1"),
                        ("GIT_AUTHOR_NAME", "bench"), ("GIT_AUTHOR_EMAIL", "bench@example.com"),
                        ("GIT_COMMITTER_NAME", "bench"),
                        ("GIT_COMMITTER_EMAIL", "bench@example.com")):
        monkeypatch.setenv(name, value)
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*command: str) -> str:
        return subprocess.run(["git", *command], cwd=repo, capture_output=True, text=True,
                              check=True).stdout.strip()

    git("init", "-q")
    (repo / "f.txt").write_text("parent\n")
    git("add", "f.txt")
    git("commit", "-q", "-m", "parent")
    head = git("rev-parse", "HEAD")
    # a clean tree is HEAD, and needs no ref
    assert bench_pairs.revisions("HEAD", None, "BENCH_clean", repo) == {"parent": head,
                                                                        "change": head}
    (repo / "f.txt").write_text("change\n")
    assert bench_pairs.revisions("HEAD", "HEAD", "BENCH_given", repo)["change"] == head
    assert git("for-each-ref", "refs/bench") == ""
    revs = bench_pairs.revisions("HEAD", None, "BENCH_22", repo)
    assert revs["parent"] == head and revs["change"] != head
    assert git("rev-parse", "refs/bench/BENCH_22") == revs["change"]
    git("reflog", "expire", "--expire=now", "--all")
    git("gc", "-q", "--prune=now")
    assert git("show", f"{revs['change']}:f.txt") == "change"
