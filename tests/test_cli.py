import gc
import hashlib
import importlib
import json
import multiprocessing
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from helpers import concat_reference, pattern, product_reference
from strsolve import cli, regex, smtlib, solver
from strsolve.cli import EXIT_RESOURCE, bench, main, solve_path, stats_record
from strsolve.constraints import CyclicDependencyError, Problem, desugar
from strsolve.errors import ResourceLimitError, UnsupportedError
from strsolve.smtlib import parse_smt
from strsolve.regex import LENGTH_CAP, sigma_star
from strsolve.snfa import Budget, dump, to_dot

MINI = Path(__file__).resolve().parent.parent / "benchmarks" / "mini"
ORDER = Path(__file__).resolve().parent / "data" / "order"

SAT_SRC = '(declare-const x String)(assert (str.in_re x (re.+ (re.range "a" "c"))))(check-sat)'
UNSAT_SRC = ('(declare-const x String)(assert (str.in_re x (str.to_re "a")))'
             '(assert (str.in_re x (str.to_re "b")))(check-sat)')


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "strsolve", *argv],
                          capture_output=True, text=True, timeout=120)


def test_solve_verdict_lines(tmp_path):
    sat = tmp_path / "a.smt2"
    sat.write_text(SAT_SRC)
    proc = run_cli("solve", str(sat))
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "sat"

    unsat = tmp_path / "b.smt2"
    unsat.write_text(UNSAT_SRC)
    proc = run_cli("solve", str(unsat))
    assert (proc.returncode, proc.stdout.splitlines()[0]) == (0, "unsat")


def test_solve_model_output(tmp_path):
    f = tmp_path / "m.smt2"
    f.write_text(SAT_SRC)
    proc = run_cli("solve", str(f), "--model")
    lines = proc.stdout.splitlines()
    assert lines[0] == "sat"
    assert lines[1].startswith("(define-fun x () String ")
    # the model line is itself parseable SMT
    model_script = parse_smt(f'(declare-const x String)(assert (= x {lines[1].split("String ")[1][:-1]}))')
    assert model_script.assertions[0].rhs[0].word


def test_long_chain_model_is_the_concatenation(tmp_path):
    # z = a ++ "." ++ b with |a|, |b| >= 3000: every automaton is a chain of
    # thousands of states, and the printed model is checked with Python only
    f = tmp_path / "long.smt2"
    f.write_text("(declare-const a String)(declare-const b String)(declare-const z String)"
                 "(assert (>= (str.len a) 3000))(assert (>= (str.len b) 3001))"
                 '(assert (= z (str.++ a "." b)))(check-sat)')
    proc = run_cli("solve", str(f), "--model")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "sat"
    model = {}
    for line in lines[1:]:
        name, body = re.fullmatch(r'\(define-fun (\w+) \(\) String "(.*)"\)', line).groups()
        # a literal's escapes: "" for a quote, \u{hex} for any other character
        model[name] = re.sub(r'""|\\u\{([0-9a-f]+)\}',
                             lambda m: chr(int(m[1], 16)) if m[1] else '"', body)
    assert sorted(model) == ["a", "b", "z"]
    assert len(model["a"]) >= 3000 and len(model["b"]) >= 3001
    assert model["z"] == model["a"] + "." + model["b"]


def test_solve_parse_error_exit(tmp_path):
    f = tmp_path / "bad.smt2"
    f.write_text("(assert (= x y")
    proc = run_cli("solve", str(f))
    assert proc.returncode == 1
    assert proc.stdout == "" and "error" in proc.stderr


def test_solve_unsupported_exit(tmp_path):
    f = tmp_path / "unsup.smt2"
    f.write_text('(declare-const x String)(assert (str.contains x "a"))')
    proc = run_cli("solve", str(f))
    assert proc.returncode == 1
    assert proc.stderr.startswith("unsupported")


def test_solve_resource_exit(tmp_path):
    f = tmp_path / "big.smt2"
    decls = "".join(f"(declare-const x{i} String)" for i in range(1, 7))
    eqs = "".join(f"(assert (= x (str.++ x{i} x{i})))" for i in range(1, 7))
    f.write_text(f"(declare-const x String){decls}{eqs}(check-sat)")
    proc = run_cli("solve", str(f), "--max-transitions", "50")
    assert proc.returncode == 2
    assert "resource" in proc.stderr

    # memberships of one variable are intersected under the same limits:
    # here the intersection alone would have 60544 transitions
    g = tmp_path / "memberships.smt2"
    ab = '(re.union (str.to_re "a") (str.to_re "b"))'
    patterns = [f'(re.++ (re.* {ab}) (str.to_re "a"){f" {ab}" * (i + 2)})' for i in range(6)]
    g.write_text("(declare-const x String)"
                 + "".join(f"(assert (str.in_re x {p}))" for p in patterns) + "(check-sat)")
    assert run_cli("solve", str(g)).stdout.splitlines()[0] == "sat"
    proc = run_cli("solve", str(g), "--max-transitions", "1000")
    assert proc.returncode == 2
    assert "resource" in proc.stderr


def test_solve_huge_numerals_exit(tmp_path):
    # past the digit bound: a parse error; inside it: the length cap's stop
    f = tmp_path / "numeral.smt2"
    f.write_text("(declare-const x String)(assert (<= (str.len x) " + "1" * 5000 + "))")
    proc = run_cli("solve", str(f))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: numeral longer than 1000 digits (at offset 48)\n"
    f.write_text("(declare-const x String)(assert (<= (str.len x) " + "1" * 1000 + "))")
    proc = run_cli("solve", str(f))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("resource: length bound too large: 111")


def test_solve_stats_schema(tmp_path):
    f = tmp_path / "s.smt2"
    f.write_text(SAT_SRC)
    out = tmp_path / "stats.jsonl"
    proc = run_cli("solve", str(f), "--stats", str(out))
    assert proc.returncode == 0
    record = json.loads(out.read_text().strip())
    assert list(record) == ["file", "verdict", "vars", "max_states",
                            "max_transitions", "iterations", "millis"]
    assert record["verdict"] == "sat" and record["vars"] == 1
    assert record["iterations"] == 1


def test_solve_dump_dot(tmp_path):
    f = tmp_path / "d.smt2"
    f.write_text(SAT_SRC)
    dots = tmp_path / "dots"
    proc = run_cli("solve", str(f), "--dump-dot", str(dots))
    assert proc.returncode == 0
    files = list(dots.glob("*.dot"))
    assert files and "digraph" in files[0].read_text()

    # the dump is built with the solve's settings: under --optimize the
    # all-words concatenation is absorbed, leaving x with one state
    g = tmp_path / "g.smt2"
    g.write_text("(declare-const x String)(declare-const y String)(declare-const z String)"
                 "(assert (= x (str.++ y z)))(check-sat)")
    proc = run_cli("solve", str(g), "--optimize", "--dump-dot", str(dots))
    assert proc.returncode == 0
    x_dot = (dots / "g.d0.x.dot").read_text()
    assert x_dot.count("shape=circle") + x_dot.count("shape=doublecircle") == 1


def test_dump_dot_escapes_variable_names(tmp_path):
    f = tmp_path / "f.smt2"
    f.write_text('(declare-const |a/b| String)(declare-const |../x| String)'
                 '(assert (str.in_re |a/b| (str.to_re "a")))'
                 '(assert (= |../x| (str.++ |a/b| |a/b|)))(check-sat)')
    dots = tmp_path / "dots"
    assert main(["solve", str(f), "--dump-dot", str(dots)]) == 0
    written = sorted(tmp_path.rglob("*.dot"))
    assert [(p.parent, p.name) for p in written] == [(dots, "f.d0.%2E.%2Fx.dot"),
                                                     (dots, "f.d0.a%2Fb.dot")]


def test_dump_dot_reuses_the_solve(tmp_path, monkeypatch):
    propagate = importlib.import_module("strsolve.solver").forward_prop
    calls = []
    for module in ("strsolve.solver", "strsolve.cli"):  # count a call from either
        monkeypatch.setattr(importlib.import_module(module), "forward_prop",
                            lambda *args, **kw: calls.append(args[0]) or propagate(*args, **kw),
                            raising=False)
    dots = tmp_path / "dots"
    for name, problems in (("sat_url", 1), ("sat_disjunction", 2)):
        calls.clear()
        assert main(["solve", str(MINI / f"{name}.smt2"), "--dump-dot", str(dots)]) == 0
        assert len(calls) == problems  # once per problem, by the solve itself
    # the same bytes as a fresh propagation of each problem ...
    script = parse_smt((MINI / "sat_url.smt2").read_text())
    (problem,) = desugar(list(script.assertions), base_vars=[n for n, _ in script.declarations])
    for var, a in propagate(problem).items():
        assert (dots / f"sat_url.d0.{var}.dot").read_text() == to_dot(a)
    # ... and as the dump that ran its own propagation after the solve
    digest = hashlib.sha256()
    for f in sorted(dots.glob("sat_url.*.dot")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    assert digest.hexdigest() == \
        "3ddb555070a6f5f60db81d2e8742562ad37ddb0005739533a6432e92dccb585c"


def test_solve_deep_nesting_exit(tmp_path):
    # re.++ flattens, so 1500 levels of it are one concatenation that solves
    term = '(str.to_re "a")'
    for _ in range(1500):
        term = f'(re.++ {term} (str.to_re "b"))'
    f = tmp_path / "deep.smt2"
    f.write_text(f"(declare-const x String)(assert (str.in_re x {term}))(check-sat)")
    proc = run_cli("solve", str(f), "--model")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == ["sat", f'(define-fun x () String "a{"b" * 1500}")']


@pytest.mark.parametrize("depth, code, out, err", [
    (500, 0, 'sat\n(define-fun x () String "")\n', ""),
    (1000, 1, "", "error: input nested too deeply\n"),
])
def test_deep_star_nesting_exit(depth, code, out, err, tmp_path):
    # re.* does not flatten: compiling it recurses once per level, and 1000
    # levels end in the clean "nested too deeply" exit, not a traceback
    f = tmp_path / "stars.smt2"
    f.write_text("(declare-const x String)(assert (str.in_re x "
                 + "(re.* " * depth + '(str.to_re "a")' + ")" * depth + "))(check-sat)")
    proc = run_cli("solve", str(f), "--model")
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_dump_dot_of_a_cyclic_file_writes_nothing(tmp_path):
    # a cyclic solve builds no refined automaton, so there is nothing to dump
    dots = tmp_path / "dots"
    assert main(["solve", str(MINI / "unknown_cyclic.smt2"), "--dump-dot", str(dots)]) == 0
    assert dots.is_dir() and list(dots.iterdir()) == []


def test_solve_path_api(tmp_path):
    f = tmp_path / "api.smt2"
    f.write_text(SAT_SRC)
    verdict, stats, nvars = solve_path(f)
    assert verdict.kind == "sat" and nvars == 1 and stats.iterations == 1


def test_disjunction_solved_per_branch(tmp_path):
    f = tmp_path / "or.smt2"
    f.write_text('(declare-const x String)'
                 '(assert (or (and (str.in_re x (str.to_re "a")) (str.in_re x (str.to_re "b")))'
                 ' (str.in_re x (str.to_re "ok"))))(check-sat)')
    verdict, _, _ = solve_path(f)
    assert verdict.kind == "sat"
    assert verdict.model == {"x": "ok"}


def _disjunction(tmp_path, branches: list[str], name: str = "or.smt2") -> Path:
    """A file asserting the `or` of `branches` over the one variable x."""
    f = tmp_path / name
    f.write_text(f"(declare-const x String)(assert (or {' '.join(branches)}))(check-sat)")
    return f


def test_disjuncts_are_desugared_one_at_a_time(tmp_path, monkeypatch):
    # two unsat disjuncts, a sat one, and one that is never reached
    f = _disjunction(tmp_path, [
        '(and (str.in_re x (str.to_re "a")) (str.in_re x (str.to_re "b")))',
        '(and (str.in_re x (str.to_re "cd")) (= (str.len x) 3))',
        '(str.in_re x (str.to_re "ok"))',
        '(str.in_re x (re.+ (re.range "a" "z")))'])
    calls = []

    def alive() -> int:
        return sum(type(o) is Problem for o in gc.get_objects())

    def desugar_one(cs, **kw):
        # no Problem of an earlier disjunct is left, even without the collector
        calls.append(("desugar", len(cs), alive() - before))
        problems = desugar(cs, **kw)
        calls.append(("problems", len(problems)))
        return problems

    def solve_one(problem, **kw):
        verdict = solver.solve(problem, **kw)
        calls.append(("solve", verdict.kind))
        return verdict

    monkeypatch.setattr(cli, "desugar", desugar_one)
    monkeypatch.setattr(cli, "solve", solve_one)
    gc.collect()
    gc.disable()
    try:
        before = alive()
        verdict, stats, _ = solve_path(f)
    finally:
        gc.enable()
    assert calls == [("desugar", 2, 0), ("problems", 1), ("solve", "unsat"),
                     ("desugar", 2, 0), ("problems", 1), ("solve", "unsat"),
                     ("desugar", 1, 0), ("problems", 1), ("solve", "sat")]
    assert verdict.model == {"x": "ok"}
    assert {key.split(":")[0] for key in stats.var_sizes} == {"0", "1", "2"}


def _long_words(tmp_path) -> tuple[list[str], Path]:
    """64 words of 40 001 characters, and the file of their disjunction."""
    words = ["a" * 40_000 + str(i) for i in range(64)]
    return words, _disjunction(tmp_path, [f'(str.in_re x (str.to_re "{w}"))' for w in words])


def test_a_sat_first_disjunct_compiles_one_regex(tmp_path, monkeypatch):
    # 64 disjuncts over words of 40 001 characters, the first sat: each one
    # used to be compiled before the first was solved
    compiles = []

    def counted(*args, **kw):
        compiles.append(args[0])
        return compile_(*args, **kw)

    compile_ = regex.compile
    monkeypatch.setattr(regex, "compile", counted)
    words, f = _long_words(tmp_path)
    verdict, _, _ = solve_path(f)
    assert (verdict.kind, verdict.model, len(compiles)) == ("sat", {"x": words[0]}, 1)
    # one disjunct more is past the cap, which stops before any desugaring
    compiles.clear()
    f = _disjunction(tmp_path, [f'(str.in_re x (str.to_re "{i}"))' for i in range(65)], "or65.smt2")
    with pytest.raises(ResourceLimitError, match="more than 64 cases"):
        solve_path(f)
    assert compiles == []


def test_a_long_literal_stops_the_parse_before_its_regex_is_made(tmp_path, monkeypatch):
    # each word counts toward the parser's budget stride as its length, so
    # a deadline that passes right after the first check stops the parse
    # at the first word, before any `str.to_re` list is reduced
    made = []

    def counted(*args, to_re=smtlib._to_re):
        made.append(args[0])
        return to_re(*args)

    class Expiring(Budget):
        def check(self, transitions: int) -> None:
            super().check(transitions)
            self.deadline = time.monotonic() - 1

    monkeypatch.setitem(smtlib._REDUCERS, "str.to_re", counted)
    _, f = _long_words(tmp_path)
    with pytest.raises(ResourceLimitError, match="time budget exhausted"):
        parse_smt(f.read_text(), Expiring())
    assert made == []


def test_a_resource_stop_after_a_sat_disjunct_is_not_reached(tmp_path, capsys):
    sat, too_long = '(str.in_re x (str.to_re "a"))', f"(<= (str.len x) {LENGTH_CAP + 1})"
    assert main(["solve", str(_disjunction(tmp_path, [sat, too_long])), "--model"]) == 0
    assert capsys.readouterr() == ('sat\n(define-fun x () String "a")\n', "")
    # where the solve reaches it, the bound is still a resource stop
    assert main(["solve", str(_disjunction(tmp_path, [too_long, sat]))]) == EXIT_RESOURCE
    assert capsys.readouterr() == ("", f"resource: length bound too large: {LENGTH_CAP + 1} "
                                       f"(cap {LENGTH_CAP})\n")


def test_solving_leaves_no_cyclic_garbage():
    # regex.compile's recursive walker referred to itself through its
    # closure cell, so each compile left a cycle for the collector; so did
    # a compile that the budget stopped
    files = [f for corpus in (MINI, ORDER) for f in sorted(corpus.glob("*.smt2"))
             if "timeout" not in f.name]
    gc.collect()
    gc.disable()
    try:
        for f in files:
            solve_path(f)
        try:
            regex.compile(pattern("(a|b|c)*d"), Budget(max_transitions=1))
        except ResourceLimitError:
            pass
        else:
            pytest.fail("the compile fit under a cap of one transition")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_bench_mini_corpus_smoke(tmp_path, monkeypatch, capsys):
    # a 3-file subset keeps this quick; the full corpus runs in acceptance
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "one_sat.smt2").write_text(SAT_SRC)
    (sub / "two_unsat.smt2").write_text(UNSAT_SRC)
    (sub / "three_bad.smt2").write_text('(declare-const x Int)(check-sat)')
    out = tmp_path / "bench.jsonl"
    reports = []  # the report the command printed and wrote
    monkeypatch.setattr(cli, "bench", lambda *args, **kw: reports.append(bench(*args, **kw))
                        or reports[-1])
    assert main(["bench", str(sub), "--timeout", "30000", "--jobs", "2", "--stats", str(out)]) == 0
    (report,) = reports
    assert capsys.readouterr().out == cli.format_table(report) + "\n"
    (row,) = report.rows
    assert (row.total, row.sat, row.unsat, row.unknown, row.timeout) == (3, 1, 1, 0, 0)
    assert report.unsupported == 1
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 3
    assert {r["verdict"] for r in records} == {"sat", "unsat", "unsupported"}


def test_bench_groups_by_subdirectory(tmp_path):
    (tmp_path / "g1").mkdir()
    (tmp_path / "g2").mkdir()
    (tmp_path / "g1" / "a.smt2").write_text(SAT_SRC)
    (tmp_path / "g2" / "b.smt2").write_text(UNSAT_SRC)
    report = bench(tmp_path, timeout_ms=30_000, jobs=2)
    assert [r.group for r in report.rows] == ["g1", "g2"]
    assert report.rows[0].sat == 1 and report.rows[1].unsat == 1


def test_bench_solve_time_is_the_mean_millis_of_the_verdicts(tmp_path):
    # the unsupported file finished no solve, and solve-time leaves its
    # record out, as avg-time leaves the file out
    for name, src in (("a", SAT_SRC), ("b", UNSAT_SRC), ("c", "(declare-const x Int)")):
        (tmp_path / f"{name}.smt2").write_text(src)
    report = bench(tmp_path, timeout_ms=30_000, jobs=2)
    (row,) = report.rows
    millis = [r["millis"] for r in report.records if r["verdict"] in ("sat", "unsat")]
    assert len(millis) == 2 and row.solve_time_s == pytest.approx(sum(millis) / 2 / 1000)
    assert 0 < row.solve_time_s < row.avg_time_s
    header, _, line, unsupported = cli.format_table(report).splitlines()
    assert unsupported == "unsupported files: 1"
    assert header.split()[6:8] == ["avg-time", "solve-time"]
    assert line.split()[6:8] == [f"{row.avg_time_s:.4f}s", f"{row.solve_time_s:.4f}s"]


def test_bench_outcome_comes_from_the_exception(tmp_path):
    # an undeclared variable named `unsupported` is an error, as in `solve`,
    # however the message reads
    f = tmp_path / "undeclared.smt2"
    f.write_text('(assert (str.in_re unsupported (str.to_re "a")))(check-sat)')
    assert main(["solve", str(f)]) == 1
    report = bench(tmp_path, timeout_ms=30_000)
    assert (report.unsupported, report.errors) == (0, 1)
    assert [r["verdict"] for r in report.records] == ["error"]
    assert report.notes == [f"skipped unreadable/failing file: {f}"]


def test_bench_record_without_a_verdict_has_zero_millis(tmp_path):
    # no solve finished, so no solver time: not the harness's wall time
    (tmp_path / "a_unsupported.smt2").write_text("(declare-const x Int)(check-sat)")
    (tmp_path / "b_error.smt2").write_text('(assert (str.in_re y (str.to_re "a")))(check-sat)')
    report = bench(tmp_path, timeout_ms=30_000)
    assert report.records == [
        {"file": str(tmp_path / name), "verdict": verdict, "vars": 0, "max_states": 0,
         "max_transitions": 0, "iterations": 0, "millis": 0.0}
        for name, verdict in (("a_unsupported.smt2", "unsupported"), ("b_error.smt2", "error"))]


def test_bench_kills_a_parse_at_the_timeout(tmp_path):
    # parsing this file alone takes well over 1 s; the child's parser stops
    # at its deadline, and the parent's kill stops the child in any case
    (tmp_path / "slow.smt2").write_text(
        "(declare-const x String)" + '(assert (str.in_re x (str.to_re "ab")))' * 100_000)
    start = time.monotonic()
    report = bench(tmp_path, timeout_ms=200)
    assert time.monotonic() - start < 1.0
    assert report.rows[0].timeout == 1 and report.errors == 0
    assert [r["verdict"] for r in report.records] == ["timeout"]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched solve_path reaches the child only through fork")
def test_bench_child_dying_without_a_result_fails_only_its_file(tmp_path, monkeypatch):
    for name in ("a", "b", "c", "d"):
        (tmp_path / f"{name}.smt2").write_text(SAT_SRC if name != "c" else UNSAT_SRC)
    real = cli.solve_path

    def dying_on_b(path, **options):
        if Path(path).name == "b.smt2":
            os._exit(3)
        return real(path, **options)

    monkeypatch.setattr(cli, "solve_path", dying_on_b)
    report = bench(tmp_path, timeout_ms=30_000, jobs=2)
    assert [r["verdict"] for r in report.records] == ["sat", "error", "unsat", "sat"]
    assert (report.rows[0].sat, report.rows[0].unsat, report.errors) == (2, 1, 1)
    assert report.notes == [f"skipped unreadable/failing file: {tmp_path / 'b.smt2'}"]


def _in_process_record(path: Path) -> dict:
    """The bench record of `path` without `millis`, computed in this process."""
    try:
        record = stats_record(path, *solve_path(path))
    except UnsupportedError:
        record = {"file": str(path), "verdict": "unsupported"}
    except Exception:  # noqa: BLE001 - any other failure is the file's error
        record = {"file": str(path), "verdict": "error"}
    record.pop("millis", None)
    return record


def test_bench_records_equal_the_in_process_records(tmp_path):
    # a generated corpus in three groups, every outcome but timeout
    rng = random.Random(7)
    shapes = [
        lambda w: f'(declare-const x String)(assert (str.in_re x (str.to_re "{w}")))',
        lambda w: (f'(declare-const x String)(assert (str.in_re x (str.to_re "{w}")))'
                   f'(assert (str.in_re x (re.+ (str.to_re "{w[0]}"))))'),
        lambda w: ('(declare-const x String)(declare-const y String)(declare-const z String)'
                   f'(assert (= x (str.++ y z)))(assert (str.in_re x (str.to_re "{w}")))'
                   f'(assert (str.in_re y (re.* (re.range "a" "{w[-1]}"))))'),
        lambda w: ('(declare-const x String)(declare-const y String)'
                   f'(assert (= x (str.++ x y)))(assert (str.in_re y (str.to_re "{w}")))'),
        lambda w: (f'(declare-const x String)(assert (or (str.in_re x (str.to_re "{w}"))'
                   f' (str.in_re x (re.range "a" "b"))))(assert (<= (str.len x) 1))'),
        lambda w: f'(declare-const x String)(assert (str.contains x "{w}"))',
        lambda w: f'(declare-const x String)(assert (str.in_re x (str.to_re "{w}"))',
    ]
    for i in range(45):
        group = tmp_path / f"g{i % 3}"
        group.mkdir(exist_ok=True)
        word = "".join(rng.choice("abc") for _ in range(rng.randint(1, 6)))
        (group / f"f{i:02d}.smt2").write_text(rng.choice(shapes)(word) + "(check-sat)")
    files = sorted(tmp_path.rglob("*.smt2"))
    report = bench(tmp_path, timeout_ms=30_000, jobs=3)
    for record in report.records:
        del record["millis"]
        if record["verdict"] in ("unsupported", "error"):
            record = {"file": record["file"], "verdict": record["verdict"]}
        assert record == _in_process_record(Path(record["file"]))
    assert [r["file"] for r in report.records] == [str(f) for f in files]
    assert {r["verdict"] for r in report.records} == {"sat", "unsat", "unknown",
                                                      "unsupported", "error"}


def test_main_entry():
    assert main(["bench", str(MINI / "does-not-exist")]) == 0  # empty directory: zero rows


def test_largest_timeout_is_accepted(tmp_path, capsys):
    (tmp_path / "a.smt2").write_text(SAT_SRC)
    largest = str(2 ** 31 - 1)
    assert main(["solve", str(tmp_path / "a.smt2"), "--timeout", largest]) == 0
    assert capsys.readouterr().out == "sat\n"
    assert main(["bench", str(tmp_path), "--timeout", largest]) == 0
    # group, total, sat, unknown, unsat
    assert capsys.readouterr().out.splitlines()[2].split()[:5] == [".", "1", "1", "0", "0"]


@pytest.mark.parametrize("timeout_ms", [0, 10 ** 400], ids=["0", "10**400"])
def test_api_rejects_a_timeout_outside_the_cli_range(timeout_ms, monkeypatch):
    # rejected before any work: neither a parse nor a child process starts
    monkeypatch.setattr(cli, "parse_smt", None)
    monkeypatch.setattr(multiprocessing, "Process", None)
    with pytest.raises(ValueError, match="timeout_ms must be between 1 and 2147483647"):
        solve_path(MINI / "sat_url.smt2", timeout_ms=timeout_ms)
    with pytest.raises(ValueError, match="timeout_ms must be between 1 and 2147483647"):
        bench(MINI, timeout_ms=timeout_ms)


@pytest.mark.parametrize("argv, message", [
    (["solve", "FILE", "--timeout", "abc"], "argument --timeout: expected a positive integer"),
    (["solve", "FILE", "--timeout", "0"], "argument --timeout: expected a positive integer"),
    (["solve", "FILE", "--max-transitions", "-1"],
     "argument --max-transitions: expected a positive integer"),
    (["bench", "DIR", "--timeout", "0"], "argument --timeout: expected a positive integer"),
    (["bench", "DIR", "--jobs", "0"], "argument --jobs: expected a positive integer"),
    (["bench", "DIR", "--max-transitions", "1e3"],
     "argument --max-transitions: expected a positive integer"),
    (["solve"], "the following arguments are required: file"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    ([], "the following arguments are required: command"),
    (["solve", "FILE", "--timeout", "1" + "0" * 400],
     "argument --timeout: expected at most 2147483647 ms"),
    (["bench", "DIR", "--timeout", "9999999999999"],
     "argument --timeout: expected at most 2147483647 ms"),
    (["solve", "FILE", "--max-transitions", "1" * 5000],
     "argument --max-transitions: expected a positive integer"),
])
def test_malformed_command_line_exits_1(argv, message, capsys):
    # exit 2 is the documented code for a resource stop, never a usage error
    argv = [{"FILE": str(MINI / "sat_url.smt2"), "DIR": str(MINI)}.get(a, a) for a in argv]
    with pytest.raises(SystemExit) as stop:
        main(argv)
    out, err = capsys.readouterr()
    assert (stop.value.code, out) == (1, "")
    assert f"error: {message}" in err


def test_usage_error_and_help_exit_codes():
    proc = run_cli("solve", str(MINI / "sat_url.smt2"), "--timeout", "abc")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("usage: strsolve solve")
    assert proc.stderr.endswith("error: argument --timeout: expected a positive integer, "
                                "got 'abc'\n")
    for argv in (["--help"], ["solve", "--help"], ["bench", "--help"]):
        proc = run_cli(*argv)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("usage: strsolve")


def test_parse_stops_at_the_deadline(tmp_path, monkeypatch):
    # parsing this file alone takes seconds; the parser's own deadline check
    # stops it, before desugaring could
    f = tmp_path / "slow.smt2"
    f.write_text("(declare-const x String)" + '(assert (str.in_re x (str.to_re "ab")))' * 100_000)
    monkeypatch.setattr(cli, "desugar", None)
    with pytest.raises(ResourceLimitError, match="time budget exhausted"):
        solve_path(f, timeout_ms=200)


def test_long_concatenation_stops_near_the_deadline(tmp_path):
    # desugaring folds this str.++ into a chain 6000 layers deep; ordering
    # the layers by rescanning the variables once per layer ran 7-10 s past
    # the deadline
    f = tmp_path / "long_concat.smt2"
    names = [f"v{i}" for i in range(6000)]
    f.write_text("(declare-const x String)" + "".join(f"(declare-const {v} String)" for v in names)
                 + f"(assert (= x (str.++ {' '.join(names)})))(check-sat)")
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="time budget exhausted"):
        solve_path(f, timeout_ms=500)
    assert time.perf_counter() - start < 2.0


def test_compile_stops_at_the_transition_cap(tmp_path, capsys):
    # re.* over three nested re.union per level, 900 levels: the position
    # construction alone built 453 605 transitions, past the cap, and the
    # solve answered sat
    wrappers = ['(re.union (str.to_re "a") {})'] * 3 + ["(re.* {})"]
    levels = [wrappers[i % 4].split("{}") for i in range(900)]
    term = ("".join(pre for pre, _ in levels) + '(str.to_re "a")'
            + "".join(post for _, post in reversed(levels)))
    f = tmp_path / "deep_union.smt2"
    f.write_text(f"(declare-const x String)(assert (str.in_re x {term}))(check-sat)")
    assert main(["solve", str(f), "--max-transitions", "20000"]) == EXIT_RESOURCE
    assert capsys.readouterr().err == "resource: automaton grew past 20000 transitions\n"


def test_timeout_counts_the_parse(monkeypatch):
    # a parse that outlasts the timeout leaves no time for desugaring, which
    # checks the budget before its first constraint
    def slow_parse(src, budget):
        script = parse_smt(src, budget)
        time.sleep(0.2)
        return script

    # every equation of sat_url refines through `concat`; count its calls
    concats = []
    kernel = solver.concat

    def counted(a1, a2, budget):
        concats.append(budget)
        return kernel(a1, a2, budget)

    monkeypatch.setattr(cli, "parse_smt", slow_parse)
    monkeypatch.setattr(solver, "concat", counted)
    with pytest.raises(ResourceLimitError, match="time budget exhausted"):
        solve_path(MINI / "sat_url.smt2", timeout_ms=50)
    assert concats == []  # stopped before the first concat
    concats.clear()
    verdict, _, _ = solve_path(MINI / "sat_url.smt2", timeout_ms=60_000)
    assert verdict.kind == "sat" and concats


def _template_source(terms: int) -> str:
    """y = (str.++ t0 "-" t1 "-" ...) over `terms` variables and literals,
    each variable in a small class of its own."""
    names = [f"t{i}" for i in range(terms // 2)]
    items = " ".join(f'{v} "-"' for v in names)
    return ("(declare-const y String)"
            + "".join(f"(declare-const {v} String)" for v in names)
            + "".join(f'(assert (str.in_re {v} (re.+ (re.range "a" "{"abc"[i % 3]}"))))'
                      for i, v in enumerate(names))
            + f"(assert (= y (str.++ {items})))(check-sat)")


def test_concat_refines_as_the_product_with_all_words(tmp_path, monkeypatch):
    # every refined automaton is the one that the product of all words with
    # the reference concatenation gives in place of `concat`, on the files
    # whose all-words left sides take no product
    template = tmp_path / "template.smt2"
    template.write_text(_template_source(30))
    paths = [p for p in sorted(MINI.glob("*.smt2")) if "timeout" not in p.name]
    paths += sorted((MINI.parent.parent / "tests" / "data" / "order").glob("*.smt2"))
    paths.append(template)
    kernel = solver.concat

    def refine_all(optimize: bool = False) -> list[dict]:
        out = []
        for path in paths:
            script = parse_smt(path.read_text(encoding="utf-8"))
            declared = [n for n, _ in script.declarations]
            for problem in desugar(list(script.assertions), base_vars=declared):
                try:
                    out.append(solver.forward_prop(problem, optimize=optimize))
                except CyclicDependencyError:
                    out.append(None)
        return out

    calls = []

    def counted(a1, a2, budget):
        calls.append(budget)
        return kernel(a1, a2, budget)

    monkeypatch.setattr(solver, "concat", counted)
    got = refine_all()
    assert len(calls) > 15  # the template alone has 15 fresh left sides
    monkeypatch.setattr(solver, "concat", lambda a1, a2, budget:
                        product_reference(sigma_star(), concat_reference(a1, a2)))
    want = refine_all()
    assert len(got) == len(want)
    for reg, ref in zip(got, want):
        assert (reg is None) == (ref is None)
        for v in reg or ():
            assert dump(reg[v]) == dump(ref[v]), v
            assert reg[v].trim == ref[v].trim, v

    # --optimize skips only the equations of two all-words operands, and
    # refines every other all-words left side with the same kernel
    monkeypatch.setattr(solver, "concat", counted)
    calls.clear()
    refine_all(optimize=True)
    assert len(calls) > 15


@pytest.mark.parametrize("width, code, out, err", [
    (1, 0, 'sat\n(define-fun x () String "a")\n', ""),
    (2, 2, "", "resource: disjunction expands to more than 64 cases\n"),
], ids=["one-branch", "two-branch"])
def test_deeply_nested_or_ends_in_its_verdict(width, code, out, err, tmp_path):
    # 100 000 one-branch ors solve, and 3000 nested two-branch ors stop at
    # the disjunct cap: the expansion used to recurse once per level and end
    # in "nested too deeply"
    depth = 100_000 if width == 1 else 3000
    other = ' (str.in_re x (str.to_re "b"))' * (width - 1)
    c = "(or " * depth + '(str.in_re x (str.to_re "a"))' + f"{other})" * depth
    f = tmp_path / f"or_{width}.smt2"
    f.write_text(f"(declare-const x String)(assert {c})(check-sat)")
    proc = run_cli("solve", str(f), "--model")
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
