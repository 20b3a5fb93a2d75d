"""The strsolve benchmark: one command, one workload per run.

  python3 perfbench/run.py --workload doubling|smt_mix|long_models
                           --seed N --seconds S --trace 0|1

Run from the root of a source checkout; strsolve is imported from its
`src/` directory, and nothing needs installing. A run

1. times `import strsolve.cli` in fresh interpreters (setup_s);
2. solves benchmarks/mini in a child process and compares every verdict
   with the one its file name encodes, refusing to go on on a mismatch;
3. generates the workload's instances from the seed and solves them in
   another child process, in whole passes with one client and no threads,
   until S seconds are spent, checking every outcome against the truth
   planted by the generator;
4. prints a summary and, as its last line, one JSON object with
   `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
   with `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.

See perfbench/README.md for the workloads, the metrics and the noise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gen import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench_run"

# A run gives up after this long, inside the 180 s a run may take.
RUN_LIMIT_S = 170.0
SETUP_LAUNCHES = 9
IMPORT_CLI = "import strsolve.cli"
# A bare interpreter's start-up time on the 2-CPU machine the benchmark was
# built on; setup_s is in seconds at that start-up speed.
BARE_SECONDS = 0.065

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "latency_ms.p99": "ms",
    "peak_rss_mb": "MB",
}

_LAYER_MS = ("cli.solve_path.self_ms", "smtlib.parse_smt.ms", "regex.compile.ms",
             "regex.length_automaton.ms", "regex.word_automaton.ms",
             "constraints.desugar.self_ms", "constraints.sat_str.ms",
             "constraints.check_tree.ms", "snfa.product.ms", "snfa.concat.ms",
             "snfa.is_empty.ms", "snfa.some_word.ms", "snfa.split_word.ms",
             "solver.forward_prop.self_ms", "solver.extract_model.self_ms",
             "solver.classify.self_ms", "trace.unattributed_ms")
_LAYER_COUNTS = ("smtlib.bytes_in", "regex.compile.calls", "regex.compile.transitions_out",
                 "constraints.problems_out", "constraints.vars_out",
                 "snfa.product.calls", "snfa.product.states_out",
                 "snfa.product.transitions_out", "snfa.concat.calls",
                 "snfa.concat.states_out", "snfa.concat.transitions_out",
                 "snfa.split_word.calls", "snfa.accepts.calls", "solver.rounds",
                 "solver.peak_transitions")
PER_LAYER = {
    **{name: "ms" for name in _LAYER_MS},
    **{name: "count" for name in _LAYER_COUNTS},
    "smtlib.parse_smt.kb_per_s": "KiB/s",
    "snfa.split_word.accepts_per_split": "1",
    "solver.stop_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# The layers each workload was chosen to stress, for the summary's share lines.
STRESSED = {
    "doubling": ("snfa.product.ms", "snfa.concat.ms"),
    "long_models": ("snfa.split_word.ms",),
    "smt_mix": ("smtlib.parse_smt.ms", "regex.compile.ms", "regex.length_automaton.ms",
                "regex.word_automaton.ms", "constraints.desugar.self_ms",
                "constraints.sat_str.ms", "constraints.check_tree.ms"),
}


class BenchError(Exception):
    """The run cannot produce trustworthy metrics."""


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _run_child(args: list[str], deadline: float) -> dict:
    """Run perfbench/worker.py and return the JSON object it printed last."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args, "--root", str(ROOT)],
                              capture_output=True, text=True, timeout=timeout,
                              env=_child_env(), cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} ran past the {RUN_LIMIT_S:.0f} s limit") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {args[0]} failed (exit {proc.returncode}):\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _launch(code: str, deadline: float) -> float:
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=_child_env(), cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"python -c {code!r} ran past the {RUN_LIMIT_S:.0f} s limit") from None
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"python -c {code!r} failed:\n{proc.stderr[-2000:]}")
    return elapsed


def measure_setup(deadline: float) -> tuple[list[float], list[float]]:
    """Seconds to start an interpreter and import strsolve.cli: (calibrated, raw).

    Import launches alternate with launches of a bare interpreter, and each
    import launch is divided by the mean of the bare launches either side of
    it and multiplied by BARE_SECONDS, which takes out how fast the machine
    starts processes just then. One import launch comes first, untimed, so
    that the bytecode caches exist as they do for anyone who has run the CLI.
    """
    _launch(IMPORT_CLI, deadline)
    calibrated, raw = [], []
    before = _launch("pass", deadline)
    for _ in range(SETUP_LAUNCHES):
        elapsed = _launch(IMPORT_CLI, deadline)
        after = _launch("pass", deadline)
        calibrated.append(elapsed / ((before + after) / 2.0) * BARE_SECONDS)
        raw.append(elapsed)
        before = after
    return calibrated, raw


def run(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "strsolve" / "cli.py").is_file():
        raise BenchError(f"no strsolve sources under {ROOT / 'src'}; run from a source checkout")
    if not (ROOT / "benchmarks" / "mini").is_dir():
        raise BenchError(f"no mini corpus under {ROOT / 'benchmarks' / 'mini'}")

    setup, setup_raw = measure_setup(deadline)
    mini = _run_child(["mini"], deadline)
    if mini["mismatches"]:
        raise BenchError("benchmarks/mini check failed; no metrics printed:\n  "
                         + "\n  ".join(mini["mismatches"]))
    print(f"mini corpus: {mini['files']} files as their names say; "
          f"budget stop after {mini['stop_s']:.3f} s")

    workdir = RUN_DIR / f"{workload}-{seed}-{os.getpid()}"
    spans = RUN_DIR / f"spans-{workload}.jsonl"
    try:
        res = _run_child(["workload", "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(int(traced)),
                          "--workdir", str(workdir), "--spans", str(spans)], deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n = res["instances"]
    print(f"workload {workload}, seed {seed}: {n} instances, {res['passes']} passes, "
          f"{res['attempted']} solves, {res['failed']} failed")
    print(f"decided_ratio {res['decided'] / res['attempted']:.4f}  "
          f"failed_ratio {res['failed'] / res['attempted']:.4f}")
    print(f"digest sha256 {res['digest']}"
          + ("" if res["deterministic"] else "  (passes disagree: NOT deterministic)"))
    for line in res["failures"]:
        print(f"FAIL {line}")
    correct = res["failed"] == 0 and res["deterministic"]

    if not traced:
        metrics = {"setup_s": statistics.median(setup), "wall_s": res["wall_s"],
                   "peak_rss_mb": res["peak_rss_mb"]}
        for q, value in res["latency_ms"].items():
            metrics[f"latency_ms.{q}"] = value
        print(f"setup_s calibrated over {len(setup)} launches; uncalibrated median "
              f"{statistics.median(setup_raw):.3f} s")
        print(f"wall_s and latencies calibrated over {n} instances x {res['passes']} passes; "
              f"uncalibrated median pass {res['raw_wall_s']:.3f} s")
        units = END_TO_END
    else:
        layers = res["layers"]
        metrics = {k: v for k, v in layers.items() if k != "unattributed_ms"}
        metrics.update({
            "trace.unattributed_ms": layers["unattributed_ms"],
            "solver.rounds": float(res["rounds"]),
            "solver.peak_transitions": float(res["peak_transitions"]),
            "solver.stop_s": mini["stop_s"],
            "trace.wall_s": res["traced_wall_s"],
            "trace.overhead_s": res["traced_wall_s"] - res["wall_s"],
        })
        wall_ms = res["raw_traced_wall_s"] * 1000.0
        print(f"traced pass {wall_ms:.1f} ms uncalibrated, of which "
              f"{layers['unattributed_ms']:.1f} ms outside every span; "
              f"tracing overhead {metrics['trace.overhead_s']:+.4f} s calibrated")
        for name, stressed in STRESSED.items():
            share = sum(layers[k] for k in stressed) / wall_ms
            print(f"share of the traced pass in the layers {name} stresses: {share:.3f}")
        print(f"spans in {spans.relative_to(ROOT)}")
        units = PER_LAYER
    if set(metrics) != set(units):
        raise BenchError(f"metric names drifted: {sorted(set(metrics) ^ set(units))}")
    return {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
