"""Command-line entry points: single-file solving and batch benchmarking.

`solve` prints exactly one of sat/unsat/unknown as its first stdout line
and exits 0 for any verdict, 1 on parse/unsupported input or a malformed
command line, 2 on resource exhaustion (including the cooperative
timeout). `bench()` solves every .smt2 file under a directory with
`solve_path` in a child process per file, with a per-file wall-clock
timeout (the authoritative one; the child also gets the cooperative
deadline), and returns one JSON record per file with the table rows. The
`bench` command prints the summary table, with the columns
total/sat/unknown/unsat/solved%/avg-time/solve-time/timeout, and appends
the records to its `--stats` file: `avg-time` is a file's wall time in the
harness and `solve-time` the solver's own time, its record's `millis`, so
the difference is the harness's overhead. A file without a verdict
finished no solve, and its record's `millis` is 0.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import NoReturn, Optional

from .constraints import desugar, expand_or
from .errors import ResourceLimitError, StrSolveError, UnsupportedError
from .smtlib import MAX_NUMERAL_DIGITS, encode_string, parse_smt
from .snfa import DEFAULT_MAX_TRANSITIONS, Budget, to_dot
from .solver import RefinedReg, SolveStats, Verdict, solve

EXIT_VERDICT = 0
EXIT_PARSE = 1
EXIT_RESOURCE = 2

# The largest timeout: 2^31 - 1 ms, about 24.8 days. Far larger values
# overflow the clock of the deadline and the millisecond wait of `bench`.
MAX_TIMEOUT_MS = 2 ** 31 - 1


def _seconds(timeout_ms: int) -> float:
    if not 1 <= timeout_ms <= MAX_TIMEOUT_MS:
        raise ValueError(f"timeout_ms must be between 1 and {MAX_TIMEOUT_MS}")
    return timeout_ms / 1000.0


def solve_path(path: str | Path, optimize: bool = False,
               max_transitions: int = DEFAULT_MAX_TRANSITIONS,
               timeout_ms: Optional[int] = None,
               dump_dot_dir: Optional[str | Path] = None) -> tuple[Verdict, SolveStats, int]:
    """Solve one SMT file. Disjunctions expand into several conjunctions,
    at most MAX_DISJUNCTS of them, counted before any is desugared. They are
    desugared and solved one at a time, in order, and the first sat wins:
    a disjunct is desugared only when every one before it answered unsat
    or unknown, and its problem is dropped before the next is built. The
    timeout counts from before the file is read. Returns (verdict, file
    stats, var count)."""
    deadline = time.monotonic() + _seconds(timeout_ms) if timeout_ms is not None else None
    budget = Budget(max_transitions, deadline)
    src = Path(path).read_text(encoding="utf-8")
    script = parse_smt(src, budget)
    declared = [name for name, _ in script.declarations]
    conjunctions = expand_or(script.assertions)

    total = SolveStats()
    nvars = 0
    verdicts: list[Verdict] = []
    for idx, conjunction in enumerate(conjunctions):
        # memberships of one variable are intersected here, under the same budget
        (problem,) = desugar(conjunction, base_vars=declared, budget=budget)
        verdict = solve(problem, optimize=optimize, budget=budget)
        nvars = max(nvars, len(problem.variables))
        del problem  # the next disjunct's automata are built without this one's
        total.iterations += verdict.stats.iterations
        total.millis += verdict.stats.millis
        for v, size in verdict.stats.var_sizes.items():
            key = v if len(conjunctions) == 1 else f"{idx}:{v}"
            total.var_sizes[key] = size
        if dump_dot_dir is not None:
            _dump_dots(Path(dump_dot_dir), Path(path).stem, idx, verdict.refined)
        verdict.refined = None  # the returned verdicts must not pin the automata
        verdicts.append(verdict)
        if verdict.kind == "sat":
            break
    return _combine(verdicts, declared), total, nvars


def _combine(verdicts: list[Verdict], declared: list[str]) -> Verdict:
    """Sat, which can only be the last verdict, else the first unknown, else unsat."""
    v = verdicts[-1]
    if v.kind == "sat":
        model = {name: v.model.get(name, "") for name in declared} if v.model is not None else {}
        return Verdict("sat", model=model, stats=v.stats)
    return next((v for v in verdicts if v.kind == "unknown"), verdicts[0])


def _dump_dots(directory: Path, stem: str, idx: int, refined: Optional[RefinedReg]) -> None:
    """Write the refined automata one problem's verdict was read from; a
    cyclic problem has none."""
    directory.mkdir(parents=True, exist_ok=True)
    if refined is None:
        return
    for var in sorted(refined):
        out = directory / f"{stem}.d{idx}.{_file_part(var)}.dot"
        out.write_text(to_dot(refined[var]), encoding="utf-8")


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


def _append_records(path: str | Path, records: list[dict]) -> None:
    """Append `records` to the JSON-lines file `path`, one per line."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.writelines(json.dumps(record) + "\n" for record in records)


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
        _append_records(args.stats, [stats_record(args.file, verdict, stats, nvars)])
    return EXIT_VERDICT


# ---------------------------------------------------------------------------
# Benchmark harness

# the counters of a GroupRow, which the total row sums
_COUNTERS = ("total", "sat", "unknown", "unsat", "timeout", "time_sum_s", "solve_sum_s")


class GroupRow:
    def __init__(self, group: str):
        self.group = group
        self.total = self.sat = self.unknown = self.unsat = self.timeout = 0
        self.time_sum_s = self.solve_sum_s = 0.0

    @property
    def solved_pct(self) -> float:
        return 100.0 * (self.sat + self.unsat) / self.total if self.total else 0.0

    # averages over the files that produced a verdict: of the wall time
    # in the harness, and of the solver's own time

    @property
    def avg_time_s(self) -> float:
        verdicts = self.sat + self.unknown + self.unsat
        return self.time_sum_s / verdicts if verdicts else 0.0

    @property
    def solve_time_s(self) -> float:
        verdicts = self.sat + self.unknown + self.unsat
        return self.solve_sum_s / verdicts if verdicts else 0.0


class BenchReport:
    def __init__(self, rows: list[GroupRow], records: list[dict], unsupported: int = 0,
                 errors: int = 0, notes: Optional[list[str]] = None):
        self.rows = rows
        self.records = records
        self.unsupported = unsupported
        self.errors = errors
        self.notes = [] if notes is None else notes


def bench(directory: str | Path, timeout_ms: int = 60_000, jobs: int = 1,
          optimize: bool = False, max_transitions: int = DEFAULT_MAX_TRANSITIONS) -> BenchReport:
    """Run every .smt2 file under `directory` and tabulate verdicts per group.

    A file's group is its immediate subdirectory ("." for toplevel files).
    Each file is solved by `solve_path` in a child process of its own, at
    most `jobs` at once, and the parent kills a child at the timeout; a
    budget stop inside the child counts as a timeout too. Unsupported files
    are counted separately; any other failure, a child's death included, is
    an error. Children start by the platform's default method, a fork on
    Linux up to Python 3.13, so call this from a process without threads.
    """
    import multiprocessing
    from itertools import islice
    from multiprocessing.connection import wait

    limit_s = _seconds(timeout_ms)
    directory = Path(directory)
    files = sorted(directory.rglob("*.smt2"))
    rows: dict[str, GroupRow] = {}
    report = BenchReport(rows=[], records=[])
    options = dict(optimize=optimize, max_transitions=max_transitions, timeout_ms=timeout_ms)
    outcomes: dict[Path, tuple[str, Optional[dict], float]] = {}
    running: dict = {}  # result pipe -> (child, file, start time)
    queue = iter(files)
    try:
        while len(outcomes) < len(files):
            for path in islice(queue, max(1, jobs) - len(running)):
                reader, writer = multiprocessing.Pipe(duplex=False)
                child = multiprocessing.Process(target=_bench_one, args=(writer, path, options))
                child.start()
                writer.close()  # the child's exit is then EOF on `reader`
                running[reader] = (child, path, time.monotonic())
            earliest = min(start for _, _, start in running.values()) + limit_s
            ready = wait(list(running), timeout=max(0.0, earliest - time.monotonic()))
            now = time.monotonic()
            for reader, (child, path, start) in list(running.items()):
                if reader in ready:
                    try:
                        outcome, record = reader.recv()
                    except EOFError:  # the child died without a result
                        outcome, record = "error", None
                elif now - start >= limit_s:
                    outcome, record = "timeout", None
                else:
                    continue
                child.kill()  # no effect once the child has exited
                child.join()
                reader.close()
                del running[reader]
                outcomes[path] = (outcome, record, now - start)
    finally:
        for child, _, _ in running.values():
            child.kill()

    for path in files:
        outcome, record, wall = outcomes[path]
        rel = path.relative_to(directory)
        group = rel.parts[0] if len(rel.parts) > 1 else "."
        row = rows.setdefault(group, GroupRow(group))
        row.total += 1
        if outcome in ("sat", "unsat", "unknown"):
            setattr(row, outcome, getattr(row, outcome) + 1)
            row.time_sum_s += wall
            row.solve_sum_s += record["millis"] / 1000.0
        elif outcome == "timeout":
            row.timeout += 1
        elif outcome == "unsupported":
            report.unsupported += 1
        else:
            report.errors += 1
            report.notes.append(f"skipped unreadable/failing file: {path}")
        if record is None:  # no solve finished: an empty solve's record, with the outcome
            record = stats_record(path, Verdict(outcome), SolveStats(), 0)
        report.records.append(record)

    report.rows = [rows[g] for g in sorted(rows)]
    return report


def _bench_one(conn, path: Path, options: dict) -> None:
    """A bench child: solve `path`, send back (outcome, stats record or None)."""
    try:
        verdict, stats, nvars = solve_path(path, **options)
        result = (verdict.kind, stats_record(path, verdict, stats, nvars))
    except UnsupportedError:
        result = ("unsupported", None)
    except ResourceLimitError:
        result = ("timeout", None)
    except Exception:  # noqa: BLE001 - any other failure is this file's error
        result = ("error", None)
    conn.send(result)


def format_table(report: BenchReport) -> str:
    header = (f"{'group':<16}{'total':>7}{'sat':>6}{'unknown':>9}{'unsat':>7}"
              f"{'solved%':>9}{'avg-time':>10}{'solve-time':>12}{'timeout':>9}")
    lines = [header, "-" * len(header)]
    total = GroupRow("total")
    for row in report.rows:
        for counter in _COUNTERS:
            setattr(total, counter, getattr(total, counter) + getattr(row, counter))
    for row in report.rows if len(report.rows) == 1 else [*report.rows, total]:
        lines.append(f"{row.group:<16}{row.total:>7}{row.sat:>6}{row.unknown:>9}{row.unsat:>7}"
                     f"{row.solved_pct:>8.1f}%{row.avg_time_s:>9.4f}s{row.solve_time_s:>11.4f}s"
                     f"{row.timeout:>9}")
    lines.extend(report.notes)
    if report.unsupported:
        lines.append(f"unsupported files: {report.unsupported}")
    return "\n".join(lines)


def _cmd_bench(args: argparse.Namespace) -> int:
    report = bench(args.dir, timeout_ms=args.timeout, jobs=args.jobs,
                   optimize=args.optimize, max_transitions=args.max_transitions)
    if args.stats:
        _append_records(args.stats, report.records)
    print(format_table(report))
    return EXIT_VERDICT if not report.errors else EXIT_PARSE


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like any other malformed input; argparse's own
    code 2 is the documented code for a resource stop."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    # the digit bound of SMT numerals keeps int() inside Python's own limit
    if not (text.isascii() and text.isdigit()) or len(text) > MAX_NUMERAL_DIGITS or int(text) == 0:
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
                         help="skip equations whose operands both accept every word")
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
