"""Benchmark a change against its parent in alternating pairs of runs.

  python3 scripts/bench_pairs.py --out BENCH_<n>.json [--parent REV]
      [--change REV] [--pairs 10] [--trace-pairs 0]

The run length, the workloads and the end-to-end metrics are those of
BENCHMARK.json. Each side runs `perfbench/run.py` from its own source
tree, exported with `git archive` into a temporary directory: the parent
revision (default HEAD) and the change (default a `git stash create`
snapshot of the tracked files of the working tree, or HEAD when they hold
no change; untracked files are not in it, so `git add` new files first).
Both revisions are recorded as commit ids. No branch holds a snapshot, so
it is kept reachable as `refs/bench/<stem of --out>`, and `git gc` does
not prune the commit the output names. A temporary export, unlike a
`git worktree`, leaves nothing behind in the repository if the run is
killed.

For each workload, pair i (1-based) runs both sides at seed i + 1 with
`--trace 0`; odd pairs run the parent first and even pairs the change
first, so that a drift of the shared machine's speed falls on both sides.
`--trace-pairs N` adds N traced pairs per workload at seed 1 (`--trace 1`),
for the per-layer metrics. Every run keeps its JSON result and its
determinism digest, and the output file is rewritten after every run, so
an interrupted benchmark keeps the runs it finished.

The summary gives, per workload and end-to-end metric, each side's
quartiles (`statistics.quantiles(n=4)`, exclusive method), the ratio of
the medians, the number of pairs in which the change was lower, and the gap
between the medians in units of the parent's interquartile range
(positive when the change is lower), and whether the change's median is
worse than the parent's by more than the metric's `bound` in
BENCHMARK.json, as a fraction of the parent's median
(`worse_beyond_bound`). For the traced pairs it gives, per workload,
whether the counts agree, each count that differs with its values, and
the change/parent ratio of each layer time, raw and scaled by each run's
calibration (`summarize_traced`).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
DIGEST_PREFIX = "digest sha256 "
# a traced run prints "traced pass <ms> ms uncalibrated, of which ..."
TRACED_PREFIX, RAW_MARK = "traced pass ", " ms uncalibrated"
COMMAND = "python3 perfbench/run.py --workload W --seed N --seconds {seconds} --trace {trace}"


def benchmark() -> tuple[int, list[str], list[str]]:
    """run_seconds, the workload names and the end-to-end metric names
    declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (spec["run_seconds"], [w["name"] for w in spec["workloads"]],
            [m["name"] for m in spec["end_to_end"]])


def bounds() -> dict[str, tuple[float, str]]:
    """The `bound` and `better` ("lower" or "higher") of each end-to-end
    metric declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def quartiles(values: list[float]) -> list[float]:
    """q1, median and q3, rounded to 4 places."""
    return [round(v, 4) for v in statistics.quantiles(values, n=4)]


def compare(parent: list[float], change: list[float],
            bound: tuple[float, str] | None = None) -> dict:
    """The summary of one metric over pairs; parent[i] and change[i] share pair i.

    With the metric's (bound, better) from `bounds()`, it also says whether
    the change's median is worse than the parent's by more than the bound,
    as a fraction of the parent's median."""
    p1, pm, p3 = statistics.quantiles(parent, n=4)
    cm = statistics.median(change)
    iqr = p3 - p1
    out = {
        "parent_q1_median_q3": quartiles(parent),
        "change_q1_median_q3": quartiles(change),
        "change_over_parent": round(cm / pm, 3),
        "change_lower_in_pairs": sum(c < p for p, c in zip(parent, change)),
        "median_gap_over_parent_iqr": round((pm - cm) / iqr, 2) if iqr else None,
    }
    if bound is not None:
        limit, better = bound
        out["worse_beyond_bound"] = (cm > pm * (1 + limit) if better == "lower"
                                     else cm < pm * (1 - limit))
    return out


def summarize(pairs: list[dict], metrics: list[str],
              metric_bounds: dict[str, tuple[float, str]] | None = None) -> dict:
    """The summary of one workload's pairs, each {"parent": run, "change": run};
    `metric_bounds` (from `bounds()`) adds `worse_beyond_bound` to each metric."""
    out: dict = {
        "pairs": len(pairs),
        "failed": {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")},
        "correct": {side: all(p[side]["correct"] for p in pairs)
                    for side in ("parent", "change")},
        "digests_equal_in_pairs": sum(p["parent"].get("digest") == p["change"].get("digest")
                                      for p in pairs),
    }
    for name in metrics:
        out[name] = compare([p["parent"]["metrics"][name]["value"] for p in pairs],
                            [p["change"]["metrics"][name]["value"] for p in pairs],
                            (metric_bounds or {}).get(name))
    return out


def summarize_traced(pairs: list[dict]) -> dict:
    """Per traced workload: whether every count metric agrees in every pair,
    the values of each count that differs in some pair (`counts_differing`,
    its parent and change values pair by pair), and the median over pairs
    of change/parent for each time metric.

    perfbench reports the layer times of a traced pass raw, so a drift of
    the machine's speed between the two runs of a pair goes into their
    ratio. When every run carries its raw traced pass time (`run_side`),
    `ms_calibrated_change_over_parent` also gives the ratio with each run's
    layer times scaled by its calibration, trace.wall_s·1000 / raw ms."""
    names = pairs[0]["parent"]["metrics"]
    counts = [n for n, m in names.items() if m["unit"] == "count"]
    # a layer that reads 0 on the parent has no ratio
    ms = [n for n, m in names.items()
          if m["unit"] == "ms" and all(value(p, "parent", n) for p in pairs)]

    def ratios(scaled: Callable[[dict, str, str], float]) -> dict[str, float]:
        return {n: round(statistics.median(scaled(p, "change", n) / scaled(p, "parent", n)
                                           for p in pairs), 3)
                for n in ms}

    differing = {n: {side: [value(p, side, n) for p in pairs] for side in ("parent", "change")}
                 for n in counts
                 if any(value(p, "parent", n) != value(p, "change", n) for p in pairs)}
    summary = {
        "counts_equal": not differing,
        "counts_differing": differing,
        "ms_change_over_parent": ratios(value),
    }
    if all(p[side].get("raw_traced_ms") for p in pairs for side in ("parent", "change")):
        summary["ms_calibrated_change_over_parent"] = ratios(calibrated)
    return summary


def value(pair: dict, side: str, name: str) -> float:
    """The value of metric `name` in the run of `side` in `pair`."""
    return pair[side]["metrics"][name]["value"]


def calibrated(pair: dict, side: str, name: str) -> float:
    """A layer time of a traced run, scaled as perfbench scales the traced
    pass: by trace.wall_s (calibrated, s) over the raw traced pass (ms)."""
    scale = value(pair, side, "trace.wall_s") * 1000.0 / pair[side]["raw_traced_ms"]
    return value(pair, side, name) * scale


def export(rev: str, into: Path) -> Path:
    """Write the files of git revision `rev` under `into` and return it."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryFile() as f:
        f.write(archive)
        f.seek(0)
        with tarfile.open(fileobj=f) as tar:
            tar.extractall(into, filter="data")
    return into


def run_side(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One perfbench run in `tree`: its JSON result plus the digest it printed."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench failed in {tree} ({workload}, seed {seed}):\n"
                         f"{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digests = [ln[len(DIGEST_PREFIX):].split()[0] for ln in lines
               if ln.startswith(DIGEST_PREFIX)]
    result["digest"] = digests[0] if digests else None
    raw = [ln for ln in lines if ln.startswith(TRACED_PREFIX) and RAW_MARK in ln]
    result["raw_traced_ms"] = float(raw[0].split()[2]) if raw else None
    return result


def revisions(parent: str, change: str | None, stem: str, cwd: Path = ROOT) -> dict[str, str]:
    """The commit ids of both sides in the repository at `cwd`. Without
    `change`, the change side is a `git stash create` snapshot of the
    working tree, kept reachable as refs/bench/<stem>, or HEAD when the
    tracked files hold no change."""
    def git(*command: str) -> str:
        return subprocess.run(["git", *command], cwd=cwd, capture_output=True,
                              text=True, check=True).stdout.strip()

    snapshot = None if change else git("stash", "create")
    if snapshot:
        git("update-ref", f"refs/bench/{stem}", snapshot)
    return {"parent": git("rev-parse", parent),
            "change": git("rev-parse", change or snapshot or "HEAD")}


def machine() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2 ** 30
    return {"cpus": os.cpu_count(), "cpu_model": model, "mem_gb": round(mem, 1),
            "python": platform.python_version(), "platform": platform.platform(),
            "note": "shared machine; solve times are calibrated by perfbench "
                    "against a reference kernel"}


def _exit_on_signal(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--change", default=None)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace-pairs", type=int, default=0)
    args = parser.parse_args(argv)
    seconds, workloads, end_to_end = benchmark()

    revs = revisions(args.parent, args.change, args.out.stem)
    report: dict = {
        "what": "perfbench/run.py on the parent commit and on this change, alternating pairs",
        "parent_commit": revs["parent"],
        "change_commit": revs["change"],
        "machine": machine(),
        "trace0": {"command": COMMAND.format(seconds=seconds, trace=0),
                   "pairs": "pair i uses seed i+1; odd pairs run the parent first, "
                            "even pairs the change first"},
    }
    if args.trace_pairs:
        report["trace1"] = {"command": COMMAND.format(seconds=seconds, trace=1)
                            .replace("--seed N", "--seed 1"),
                            "pairs": "odd pairs run the parent first"}

    def save() -> None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")

    # a SIGTERM unwinds the `with` below, which removes both exports
    signal.signal(signal.SIGTERM, _exit_on_signal)
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {side: export(rev, Path(tmp) / side) for side, rev in revs.items()}
        plan = [("trace0", 0, i, i + 1) for i in range(1, args.pairs + 1)]
        plan += [("trace1", 1, i, 1) for i in range(1, args.trace_pairs + 1)]
        for section, trace, i, seed in plan:
            for workload in workloads:
                order = ("parent", "change") if i % 2 else ("change", "parent")
                pair: dict = {"pair": i, "seed": seed}
                for side in order:
                    pair[side] = run_side(trees[side], workload, seed, seconds, trace)
                    print(f"{section} {workload} pair {i} seed {seed} {side}: "
                          f"failed {pair[side]['failed']}, digest {pair[side]['digest']}",
                          flush=True)
                report[section].setdefault(workload, []).append(
                    {"pair": i, "seed": seed, "parent": pair["parent"],
                     "change": pair["change"]})
                save()
    report["summary"] = {"quartiles": "statistics.quantiles(n=4), exclusive method, "
                                      "over the runs of each side"}
    for workload in workloads:
        report["summary"][workload] = summarize(report["trace0"][workload], end_to_end,
                                                bounds())
    if args.trace_pairs:
        report["trace1_summary"] = {w: summarize_traced(report["trace1"][w])
                                    for w in workloads}
    save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
