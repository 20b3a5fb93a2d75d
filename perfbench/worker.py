"""Child process of the benchmark: the mini-corpus check, or one workload.

Runs with the package default of validation off. Each workload gets its
own process, so that its peak RSS is its own; the mini check runs in
another, because its budget probe (doubling k=13) would otherwise set the
peak of every workload. run.py starts it with PYTHONPATH=DIR/src:

  worker.py mini --root DIR
  worker.py workload --root DIR --workload NAME --seed N --seconds S
            --trace 0|1 --workdir DIR [--spans FILE]

Prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import check
import gen
import trace
from strsolve import cli
from strsolve.errors import ResourceLimitError

MINI_DEADLINE_MS = 10_000
# Budget of the mini corpus's timeout file (doubling k=13, about 11 s
# unbounded); the time it takes to stop is solver.stop_s.
STOP_DEADLINE_MS = 500

# Calibrated times: every solve time is divided by the time of the
# reference() kernel run next to it and multiplied by REF_SECONDS, about
# the kernel's median time on the 2-CPU machine the benchmark was built on.
# This takes out the slowdowns other tenants of a shared machine cause.
REF_SECONDS = 0.0003
REF_EVERY_S = 0.02


def _check_source(root: Path) -> None:
    src = (root / "src").resolve()
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"strsolve was imported from {cli.__file__}, not from {src}")


def _solve(path: Path, deadline_ms: int):
    """One timed solve_path call: (seconds, result or exception)."""
    start = time.perf_counter()
    try:
        result = cli.solve_path(path, timeout_ms=deadline_ms)
    except ResourceLimitError as err:
        result = err
    except Exception as err:  # noqa: BLE001 - a crash fails the instance, not the run
        result = RuntimeError(f"{type(err).__name__}: {err}")
    return time.perf_counter() - start, result


def _outcome(name: str, result) -> dict:
    if isinstance(result, ResourceLimitError):
        return {"kind": "resource", "detail": str(result)}
    if isinstance(result, Exception):
        return {"kind": "error", "detail": str(result)}
    verdict, stats, nvars = result
    record = cli.stats_record(name, verdict, stats, nvars)
    del record["millis"]
    return {"kind": verdict.kind, "reason": verdict.reason, "witness": verdict.witness,
            "model": verdict.model if verdict.kind == "sat" else None,
            "sizes": {v: list(s) for v, s in stats.var_sizes.items()},
            "record": record, "rounds": stats.iterations}


def _digest_line(name: str, outcome: dict) -> bytes:
    fields = [name, outcome["kind"], outcome.get("reason"), outcome.get("witness"),
              outcome.get("model"), outcome.get("record"), outcome.get("detail")]
    return (json.dumps(fields, sort_keys=True, ensure_ascii=True) + "\n").encode("ascii")


def run_mini(root: Path) -> dict:
    """Solve benchmarks/mini and compare each verdict with its file name."""
    _check_source(root)
    files = sorted((root / "benchmarks" / "mini").glob("*.smt2"))
    mismatches, stop_s = [], None
    for path in files:
        expected = path.stem.split("_")[0]
        deadline = STOP_DEADLINE_MS if expected == "timeout" else MINI_DEADLINE_MS
        elapsed, result = _solve(path, deadline)
        got = _outcome(path.name, result)["kind"]
        if expected == "timeout":
            stop_s = elapsed
            expected = "resource"
        if got != expected:
            mismatches.append(f"{path.name}: got {got}, expected {expected}")
    if not files:
        mismatches.append("benchmarks/mini holds no .smt2 files")
    return {"files": len(files), "mismatches": mismatches, "stop_s": stop_s}


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99), interpolated as statistics.quantiles does."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def reference() -> float:
    """Seconds taken by a fixed piece of pure-Python work.

    It builds tuples, dicts, sets and small sorted lists, as the solver
    does, with the cyclic collector off so that the program's heap cannot
    change its cost; it imports nothing from strsolve, so no change to the
    program can change its cost either. Its time follows the speed the
    machine currently gives this process.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table, seen, rows = {}, set(), []
        for i in range(400):
            key = (i, i * 7 % 13, i & 31)
            table[key] = i
            seen.add(key[1:])
            rows.append(sorted((key[2], key[1])))
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def timed_pass(instances, paths, tracer=None, tag=0) -> tuple[list, list[float]]:
    """Solve every instance once, in order.

    Returns the (seconds, result) pairs and, per instance, its solve time
    divided by the mean time of the reference runs just before and just
    after it. The reference runs once per REF_EVERY_S of solving, so
    consecutive short solves share a pair.
    """
    results, ratios = [], []
    block: list[int] = []
    before = reference()
    block_start = time.perf_counter()
    for i, (inst, path) in enumerate(zip(instances, paths)):
        if tracer is not None:
            tracer.instance = (tag, i)
        results.append(_solve(path, inst.deadline_ms))
        block.append(i)
        if time.perf_counter() - block_start >= REF_EVERY_S or i == len(instances) - 1:
            after = reference()
            ref = (before + after) / 2.0
            ratios.extend(results[j][0] / ref for j in block)
            block, before, block_start = [], after, time.perf_counter()
    return results, ratios


def run_workload(args) -> dict:
    _check_source(args.root)
    instances = gen.generate(args.workload, args.seed)
    args.workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for inst in instances:
        path = args.workdir / inst.name
        path.write_text(inst.text, encoding="utf-8")
        paths.append(path)

    # Fill module-level caches before timing; a CLI user pays them inside
    # setup_s or the first solve, not per instance.
    for inst, path in list(zip(instances, paths))[:max(1, len(instances) // 50)]:
        _solve(path, inst.deadline_ms)

    # Per instance and pass, keyed by whether the pass was traced: the solve
    # time over the reference time (calibrated), and the raw solve time.
    ratios: dict[bool, list[list[float]]] = {False: [], True: []}
    raw: dict[bool, list[list[float]]] = {False: [], True: []}
    layers: list[dict] = []
    spans: list[list] = []
    failures: list[str] = []
    digests: set[str] = set()
    attempted = failed = decided = rounds = peak_transitions = 0
    start = time.perf_counter()
    while (not raw[False] or time.perf_counter() - start < args.seconds
           or (args.trace and not raw[True])):
        traced = bool(args.trace) and len(raw[False]) > len(raw[True])
        if traced:
            with trace.Tracer() as tracer:
                results, pass_ratios = timed_pass(instances, paths, tracer, len(raw[True]))
        else:
            results, pass_ratios = timed_pass(instances, paths)
        ratios[traced].append(pass_ratios)
        raw[traced].append([elapsed for elapsed, _ in results])

        digest = hashlib.sha256()
        rounds = 0
        for inst, (_, result) in zip(instances, results):
            outcome = _outcome(inst.name, result)
            digest.update(_digest_line(inst.name, outcome))
            attempted += 1
            err = check.outcome_error(inst, outcome)
            if err is not None:
                failed += 1
                if len(failures) < 10:
                    failures.append(f"{inst.name}: {err}")
            decided += outcome["kind"] in ("sat", "unsat")
            rounds += outcome.get("rounds", 0)
            peak_transitions = max(peak_transitions,
                                   outcome.get("record", {}).get("max_transitions", 0))
        digests.add(digest.hexdigest())
        if traced:
            layer = trace.layer_metrics(tracer.spans, tracer.counts)
            layer["unattributed_ms"] = sum(raw[True][-1]) * 1000.0 - layer.pop("attributed_ms")
            layers.append(layer)
            spans.extend(tracer.spans)

    def calibrated(passes: list[list[float]]) -> list[float]:
        """Per instance: the median over passes of its ratio, in seconds at REF_SECONDS."""
        return [statistics.median(column) * REF_SECONDS for column in zip(*passes)]

    latencies = [t * 1000.0 for t in calibrated(ratios[False])]
    out = {
        "instances": len(instances), "passes": len(raw[False]) + len(raw[True]),
        "attempted": attempted, "failed": failed, "failures": failures,
        "decided": decided, "digest": sorted(digests)[0], "deterministic": len(digests) == 1,
        "rounds": rounds, "peak_transitions": peak_transitions,
        "wall_s": sum(latencies) / 1000.0,
        "latency_ms": {f"p{q}": _percentile(latencies, q) for q in (50, 90, 99)},
        "raw_wall_s": statistics.median(sum(p) for p in raw[False]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if layers:
        out["layers"] = {k: statistics.median(layer[k] for layer in layers) for k in layers[0]}
        out["traced_wall_s"] = sum(calibrated(ratios[True]))
        out["raw_traced_wall_s"] = statistics.median(sum(p) for p in raw[True])
        if args.spans:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            with open(args.spans, "w", encoding="utf-8") as fh:
                for span in spans:
                    fh.write(json.dumps(span[:trace.SIZE]) + "\n")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=("mini", "workload"))
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()
    result = run_mini(args.root) if args.mode == "mini" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
