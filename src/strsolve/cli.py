"""Command-line entry points: single-file solving and batch benchmarking.

`solve` prints exactly one of sat/unsat/unknown as its first stdout line
and exits 0 for any verdict, 1 on parse/unsupported input or a malformed
command line, 2 on resource exhaustion (including the cooperative
timeout). `bench` runs every .smt2 file under a directory in subprocesses
with a per-file wall-clock timeout (the authoritative one; the child also
gets the cooperative deadline), writes one JSON record per file, and
prints a summary table with the columns
total/sat/unknown/unsat/solved%/avg-time/timeout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import NoReturn, Optional

from .constraints import desugar
from .errors import ResourceLimitError, StrSolveError, UnsupportedError
from .smtlib import encode_string, parse_smt
from .snfa import DEFAULT_MAX_TRANSITIONS, Budget, to_dot
from .solver import RefinedReg, SolveStats, Verdict, solve

EXIT_VERDICT = 0
EXIT_PARSE = 1
EXIT_RESOURCE = 2

# The largest --timeout: 2^31 - 1 ms, about 24.8 days. Far larger values
# overflow the clocks of the deadline and of the bench child's timeout.
MAX_TIMEOUT_MS = 2 ** 31 - 1


def solve_path(path: str | Path, optimize: bool = False,
               max_transitions: int = DEFAULT_MAX_TRANSITIONS,
               timeout_ms: Optional[int] = None,
               dump_dot_dir: Optional[str | Path] = None) -> tuple[Verdict, SolveStats, int]:
    """Solve one SMT file. Disjunctions produce several problems, solved in
    order with sat winning early. The timeout counts from before the file is
    read. Returns (verdict, file stats, var count)."""
    deadline = time.monotonic() + timeout_ms / 1000.0 if timeout_ms else None
    budget = Budget(max_transitions, deadline)
    src = Path(path).read_text(encoding="utf-8")
    script = parse_smt(src)
    declared = [name for name, _ in script.declarations]
    # memberships of one variable are intersected here, under the same budget
    problems = desugar(list(script.assertions), base_vars=declared, budget=budget)

    total = SolveStats()
    nvars = 0
    verdicts: list[Verdict] = []
    for idx, problem in enumerate(problems):
        verdict = solve(problem, optimize=optimize, budget=budget)
        nvars = max(nvars, len(problem.variables))
        total.iterations += verdict.stats.iterations
        total.millis += verdict.stats.millis
        for v, size in verdict.stats.var_sizes.items():
            key = v if len(problems) == 1 else f"{idx}:{v}"
            total.var_sizes[key] = size
        if dump_dot_dir is not None:
            _dump_dots(Path(dump_dot_dir), Path(path).stem, idx, verdict.refined)
        verdict.refined = None  # the returned verdicts must not pin the automata
        verdicts.append(verdict)
        if verdict.kind == "sat":
            break
    return _combine(verdicts, declared), total, nvars


def _combine(verdicts: list[Verdict], declared: list[str]) -> Verdict:
    for v in verdicts:
        if v.kind == "sat":
            model = {name: v.model.get(name, "") for name in declared} if v.model is not None else {}
            return Verdict("sat", model=model, stats=v.stats)
    if verdicts and all(v.kind == "unsat" for v in verdicts):
        return verdicts[0]
    for v in verdicts:
        if v.kind == "unknown":
            return v
    raise AssertionError("no verdicts to combine")


def _dump_dots(directory: Path, stem: str, idx: int, refined: Optional[RefinedReg]) -> None:
    """Write the refined automata one problem's verdict was read from; a
    cyclic problem has none."""
    directory.mkdir(parents=True, exist_ok=True)
    if refined is None:
        return
    for var in sorted(refined):
        out = directory / f"{stem}.d{idx}.{_file_part(var)}.dot"
        out.write_text(to_dot(refined[var], name="snfa"), encoding="utf-8")


_FILE_SAFE = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-")


def _file_part(name: str) -> str:
    """`name` as part of a file name: every character outside
    [A-Za-z0-9_.-], and a leading dot, becomes %XX per UTF-8 byte, so the
    result is reversible and never a path of its own."""
    return "".join(
        ch if ch in _FILE_SAFE and not (i == 0 and ch == ".")
        else "".join(f"%{b:02X}" for b in ch.encode("utf-8", "surrogatepass"))
        for i, ch in enumerate(name))


def stats_record(path: str | Path, verdict: Verdict, stats: SolveStats,
                 nvars: int) -> dict:
    """The per-solve JSON-lines record; field names are part of the interface."""
    return {
        "file": str(path),
        "verdict": verdict.kind,
        "vars": nvars,
        "max_states": stats.max_states,
        "max_transitions": stats.max_transitions,
        "iterations": stats.iterations,
        "millis": round(stats.millis, 3),
    }


def _cmd_solve(args: argparse.Namespace) -> int:
    try:
        verdict, stats, nvars = solve_path(args.file, optimize=args.optimize,
                                           max_transitions=args.max_transitions,
                                           timeout_ms=args.timeout,
                                           dump_dot_dir=args.dump_dot)
    except UnsupportedError as err:
        print(str(err), file=sys.stderr)
        return EXIT_PARSE
    except ResourceLimitError as err:
        print(f"resource: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except (OSError, StrSolveError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_PARSE

    print(verdict.kind)
    if args.model and verdict.kind == "sat" and verdict.model is not None:
        for name in sorted(verdict.model):
            print(f'(define-fun {name} () String "{encode_string(verdict.model[name])}")')
    if args.stats:
        with open(args.stats, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(stats_record(args.file, verdict, stats, nvars)) + "\n")
    return EXIT_VERDICT


# ---------------------------------------------------------------------------
# Benchmark harness

@dataclass
class GroupRow:
    group: str
    total: int = 0
    sat: int = 0
    unknown: int = 0
    unsat: int = 0
    timeout: int = 0
    time_sum_s: float = 0.0
    timed: int = 0

    @property
    def solved_pct(self) -> float:
        return 100.0 * (self.sat + self.unsat) / self.total if self.total else 0.0

    @property
    def avg_time_s(self) -> float:
        # average over files that produced a verdict
        return self.time_sum_s / self.timed if self.timed else 0.0


@dataclass
class BenchReport:
    rows: list[GroupRow]
    records: list[dict]
    unsupported: int = 0
    errors: int = 0
    notes: list[str] = field(default_factory=list)


def bench(directory: str | Path, timeout_ms: int = 60_000, jobs: int = 1,
          optimize: bool = False, max_transitions: int = DEFAULT_MAX_TRANSITIONS,
          stats_path: Optional[str | Path] = None, quiet: bool = False) -> BenchReport:
    """Run every .smt2 file under `directory` and tabulate verdicts per group.

    A file's group is its immediate subdirectory ("." for toplevel files).
    Each file runs in its own interpreter; the harness wall clock kills it
    at the timeout, and a budget failure inside the child counts as a
    timeout too (same kind of give-up). Unsupported files are counted
    separately; unreadable ones are reported and skipped.
    """
    directory = Path(directory)
    files = sorted(directory.rglob("*.smt2"))
    rows: dict[str, GroupRow] = {}
    report = BenchReport(rows=[], records=[])

    def run_one(path: Path) -> tuple[Path, str, Optional[dict], float]:
        if not path.is_file() or not _readable(path):
            return path, "error", None, 0.0
        with tempfile.NamedTemporaryFile(suffix=".jsonl", delete=False) as tmp:
            tmp_path = Path(tmp.name)
        cmd = [sys.executable, "-m", "strsolve", "solve", str(path),
               "--timeout", str(timeout_ms), "--stats", str(tmp_path),
               "--max-transitions", str(max_transitions)]
        if optimize:
            cmd.append("--optimize")
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=timeout_ms / 1000.0)
            wall = time.perf_counter() - start
            if proc.returncode == EXIT_VERDICT:
                verdict = proc.stdout.splitlines()[0].strip()
                return path, verdict, _read_record(tmp_path), wall
            if proc.returncode == EXIT_RESOURCE:
                return path, "timeout", None, wall
            outcome = "unsupported" if "unsupported" in proc.stderr else "error"
            return path, outcome, None, wall
        except subprocess.TimeoutExpired:
            return path, "timeout", None, time.perf_counter() - start
        finally:
            tmp_path.unlink(missing_ok=True)

    with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
        outcomes = list(pool.map(run_one, files))

    for path, outcome, record, wall in outcomes:
        rel = path.relative_to(directory)
        group = rel.parts[0] if len(rel.parts) > 1 else "."
        row = rows.setdefault(group, GroupRow(group))
        row.total += 1
        if outcome in ("sat", "unsat", "unknown"):
            setattr(row, outcome, getattr(row, outcome) + 1)
            row.time_sum_s += wall
            row.timed += 1
        elif outcome == "timeout":
            row.timeout += 1
        elif outcome == "unsupported":
            report.unsupported += 1
        else:
            report.errors += 1
            report.notes.append(f"skipped unreadable/failing file: {path}")
        report.records.append(record if record is not None
                              else {"file": str(path), "verdict": outcome, "vars": 0,
                                    "max_states": 0, "max_transitions": 0,
                                    "iterations": 0, "millis": round(wall * 1000.0, 3)})

    report.rows = [rows[g] for g in sorted(rows)]
    if stats_path is not None:
        with open(stats_path, "a", encoding="utf-8") as fh:
            for record in report.records:
                fh.write(json.dumps(record) + "\n")
    if not quiet:
        print(format_table(report))
    return report


def _readable(path: Path) -> bool:
    try:
        with open(path, "rb"):
            return True
    except OSError:
        return False


def _read_record(tmp_path: Path) -> Optional[dict]:
    try:
        lines = tmp_path.read_text(encoding="utf-8").strip().splitlines()
        return json.loads(lines[-1]) if lines else None
    except (OSError, json.JSONDecodeError):
        return None


def format_table(report: BenchReport) -> str:
    header = (f"{'group':<16}{'total':>7}{'sat':>6}{'unknown':>9}{'unsat':>7}"
              f"{'solved%':>9}{'avg-time':>10}{'timeout':>9}")
    lines = [header, "-" * len(header)]
    total = GroupRow("total")
    for row in report.rows:
        lines.append(f"{row.group:<16}{row.total:>7}{row.sat:>6}{row.unknown:>9}{row.unsat:>7}"
                     f"{row.solved_pct:>8.1f}%{row.avg_time_s:>9.2f}s{row.timeout:>9}")
        total.total += row.total
        total.sat += row.sat
        total.unknown += row.unknown
        total.unsat += row.unsat
        total.timeout += row.timeout
        total.time_sum_s += row.time_sum_s
        total.timed += row.timed
    if len(report.rows) != 1:
        lines.append(f"{total.group:<16}{total.total:>7}{total.sat:>6}{total.unknown:>9}{total.unsat:>7}"
                     f"{total.solved_pct:>8.1f}%{total.avg_time_s:>9.2f}s{total.timeout:>9}")
    for note in report.notes:
        lines.append(note)
    if report.unsupported:
        lines.append(f"unsupported files: {report.unsupported}")
    return "\n".join(lines)


def _cmd_bench(args: argparse.Namespace) -> int:
    report = bench(args.dir, timeout_ms=args.timeout, jobs=args.jobs,
                   optimize=args.optimize, max_transitions=args.max_transitions,
                   stats_path=args.stats)
    return EXIT_VERDICT if not report.errors else EXIT_PARSE


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like any other malformed input; argparse's own
    code 2 is the documented code for a resource stop."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    if not (text.isascii() and text.isdigit()) or int(text) == 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _timeout_ms(text: str) -> int:
    ms = _positive_int(text)
    if ms > MAX_TIMEOUT_MS:
        raise argparse.ArgumentTypeError(f"expected at most {MAX_TIMEOUT_MS} ms, got {text!r}")
    return ms


def main(argv: Optional[list[str]] = None) -> int:
    # subparsers are made with the parent's class, so they exit 1 as well
    parser = _Parser(prog="strsolve",
                     description="String-constraint solver over symbolic automata")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one SMT-LIB file")
    p_solve.add_argument("file")
    p_solve.add_argument("--model", action="store_true", help="print a model on sat")
    p_solve.add_argument("--optimize", action="store_true",
                         help="enable all-words absorption rewrites")
    p_solve.add_argument("--max-transitions", type=_positive_int,
                         default=DEFAULT_MAX_TRANSITIONS)
    p_solve.add_argument("--timeout", type=_timeout_ms, default=None, metavar="MS",
                         help="cooperative time budget in milliseconds")
    p_solve.add_argument("--stats", default=None, metavar="OUT.JSONL")
    p_solve.add_argument("--dump-dot", default=None, metavar="DIR")
    p_solve.set_defaults(func=_cmd_solve)

    p_bench = sub.add_parser("bench", help="run a directory of .smt2 files")
    p_bench.add_argument("dir")
    p_bench.add_argument("--timeout", type=_timeout_ms, default=60_000, metavar="MS")
    p_bench.add_argument("--jobs", type=_positive_int, default=1, metavar="N")
    p_bench.add_argument("--optimize", action="store_true")
    p_bench.add_argument("--max-transitions", type=_positive_int,
                         default=DEFAULT_MAX_TRANSITIONS)
    p_bench.add_argument("--stats", default=None, metavar="OUT.JSONL")
    p_bench.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
