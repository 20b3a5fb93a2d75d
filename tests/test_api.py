import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import pattern
import strsolve
from strsolve import cli
from strsolve import regex as rx
from strsolve.constraints import Equation, Length, Lit, Membership, Or, Problem, Var, make_problem
from strsolve.intervals import FULL
from strsolve.smtlib import SmtScript
from strsolve.snfa import SNfa
from strsolve.solver import SolveStats, Verdict


def test_all_names_resolve_without_duplicates():
    assert len(strsolve.__all__) == len(set(strsolve.__all__))
    for name in strsolve.__all__:
        assert hasattr(strsolve, name), name


def test_removed_duplicates_stay_removed():
    # import_module, because the package attribute `snfa` is the constructor
    for module_name, name in (("solver", "ready_set"), ("snfa", "well_formed"),
                              ("snfa", "isomorphic"), ("intervals", "sem"),
                              ("snfa", "_int_adjacency"), ("snfa", "rename"),
                              ("snfa", "_out"), ("smtlib", "_tokenize"),
                              ("snfa", "StateId"), ("snfa", "_reached_keys"),
                              ("regex", "_without_never"), ("constraints", "validate_problem"),
                              ("smtlib", "SNode"), ("smtlib", "SStr"), ("smtlib", "_read_all"),
                              ("constraints", "dependencies"), ("solver", "var_lang"),
                              # only the tests call these; tests/helpers.py holds them
                              ("smtlib", "print_smt"), ("smtlib", "_print_constraint"),
                              ("smtlib", "_print_regex"), ("snfa", "remove_unreachable"),
                              # wrappers or helpers nothing called
                              ("regex", "compile_pattern"), ("intervals", "nonempty"),
                              ("intervals", "mem"), ("intervals", "intersection"),
                              # paths no solve and no benchmark workload reached
                              ("smtlib", "_CHAR"), ("snfa", "Transition"),
                              ("intervals", "ENUM_CAP"),
                              # a second form of a character class; (lo, hi) pairs are the one
                              ("intervals", "Interval"), ("intervals", "IntervalSet"),
                              # a second concatenation kernel; `concat` is the one
                              ("snfa", "concat_bfs"),
                              # leaves that a class or a word is: `CharClass((FULL,))`,
                              # `CharClass(())` and `Literal("")`
                              ("regex", "AnyChar"), ("regex", "Never"), ("regex", "Epsilon"),
                              # a second regex syntax; the SMT-LIB reader is the one, and
                              # `hex_value` went with its one caller into smtlib
                              ("regex", "parse_regex"), ("regex", "_Parser"),
                              ("regex", "hex_value"), ("intervals", "complement")):
        module = importlib.import_module(f"strsolve.{module_name}")
        assert not hasattr(module, name), f"{module_name}.{name}"
        assert not hasattr(strsolve, name), name
    # the brute-force oracle is tests/oracle.py, apart from the code it checks
    assert importlib.util.find_spec("strsolve.oracle") is None
    for name in ("oracle_sat", "oracle_lang", "Bound", "word_in"):
        assert not hasattr(strsolve, name), name
    assert not hasattr(strsolve.SNfa, "_out")  # the rows are the one adjacency form
    assert "names" not in strsolve.SNfa._fields  # every state prints as q:0
    assert not hasattr(strsolve.Budget, "charge")  # product and concat check as they build
    # switches with one value in use: `bench` returns its report, and the
    # command prints it and writes the records; every DOT graph is `snfa`
    bench = importlib.import_module("strsolve.cli").bench
    assert not {"quiet", "stats_path"} & set(inspect.signature(bench).parameters)
    assert "name" not in inspect.signature(strsolve.to_dot).parameters


def test_benchmark_hooks_keep_their_names_and_signatures():
    # perfbench/trace.py wraps solver.split_word and solver.concat, and
    # counts snfa.accepts
    solver = importlib.import_module("strsolve.solver")
    snfa = importlib.import_module("strsolve.snfa")
    assert solver.split_word is snfa.split_word
    assert list(inspect.signature(solver.split_word).parameters) == ["a1", "a2", "w"]
    assert solver.concat is snfa.concat
    assert list(inspect.signature(solver.concat).parameters) == ["a1", "a2", "budget"]
    assert list(inspect.signature(snfa.accepts).parameters) == ["a", "word"]


def test_sat_str_checks_models_through_the_counted_accepts_binding(monkeypatch):
    # perfbench/trace.py counts model checks by replacing the binding
    # strsolve.snfa.accepts; sat_str has to look it up there when it runs
    snfa = importlib.import_module("strsolve.snfa")
    calls = []

    def counted(a, word, accepts=snfa.accepts):
        calls.append(word)
        return accepts(a, word)

    monkeypatch.setattr(snfa, "accepts", counted)
    p = make_problem(["x", "y"], {}, {"x": rx.word_automaton("ab")})
    assert strsolve.sat_str(p, {"x": "ab", "y": "c"})
    assert not strsolve.sat_str(p, {"x": "b", "y": "c"})
    assert calls == ["ab", "b"]  # y accepts every word and is not simulated


# ---------------------------------------------------------------------------
# The value and record classes: equality, hashes, immutability, validation
# and repr, whatever the classes are built from

A = rx.Literal("a")
CHARS = ((98, 100),)
ANY = rx.CharClass((FULL,))
SMALL = SNfa((((97, 97, 1),), ()), frozenset({0}), frozenset({1}))


def _values() -> list[tuple[object, tuple]]:
    """One instance of every immutable value class, with its fields in order."""
    m = Membership("x", rx.Star(A))
    return [
        (A, ("a",)), (rx.CharClass(CHARS), (CHARS,)), (ANY, ((FULL,),)), (rx.Literal(""), ("",)),
        (rx.CharClass(()), ((),)), (rx.Concat((A, ANY)), ((A, ANY),)),
        (rx.Union((A, rx.Literal(""))), ((A, rx.Literal("")),)), (rx.Star(A), (A,)),
        (rx.Plus(A), (A,)), (rx.Opt(A), (A,)), (Var("x"), ("x",)), (Lit("ab"), ("ab",)),
        (m, ("x", rx.Star(A))), (Equation(Var("x"), (Lit("a"),)), (Var("x"), (Lit("a"),))),
        (Length("x", "<=", 3), ("x", "<=", 3)), (Or(((m,),)), (((m,),),)),
        (SmtScript((("x", "String"),), (m,), True), ((("x", "String"),), (m,), True)),
        (SMALL, (SMALL.rows, SMALL.initial, SMALL.accepting)),
    ]


def test_values_are_equal_only_within_their_class():
    assert rx.Star(A) != rx.Plus(A) and not rx.Star(A) == rx.Plus(A)
    assert Var("x") != Lit("x") and not Var("x") == Lit("x")
    assert rx.Literal("a") != rx.CharClass(((97, 97),))
    assert rx.Literal("") != rx.CharClass(()) and rx.Literal("") != ("",)
    assert rx.Star(A) != (A,) and (A,) != rx.Star(A)
    for value, fields in _values():
        assert value == type(value)(*fields) and not value != type(value)(*fields)


def test_value_hash_is_the_hash_of_its_compared_fields():
    for value, fields in _values():
        assert hash(value) == hash(fields), value


def test_snfa_equality_and_hash_ignore_trim():
    trimmed = SNfa(SMALL.rows, SMALL.initial, SMALL.accepting, True)
    assert trimmed.trim and not SMALL.trim
    assert trimmed == SMALL and hash(trimmed) == hash(SMALL)
    with pytest.raises(ValueError):  # validation is on in the tests
        SNfa(SMALL.rows, frozenset({2}), SMALL.accepting)


def test_frozen_values_reject_assignment():
    problem = make_problem(["x"])
    for value, fields in [*_values(), (problem, (problem.variables, problem.concat, problem.reg))]:
        assert not hasattr(value, "__dict__"), type(value).__name__  # slotted: its fields alone
        names = list(inspect.signature(type(value)).parameters)
        assert len(names) >= len(fields)
        for name in (*names, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        for name in names:
            with pytest.raises(AttributeError):
                delattr(value, name)
    with pytest.raises(AttributeError):
        del SMALL.transitions
    for a in (SMALL, rx.compile(pattern("(a|[b-d])*.?")), rx.sigma_star()):
        assert len(a.transitions) == sum(map(len, a.rows))


def test_constructors_still_validate():
    with pytest.raises(ValueError):
        Equation(Var("x"), ())
    with pytest.raises(ValueError):  # not total on the variables
        Problem(frozenset({"x", "y"}), {}, {"x": rx.sigma_star()})
    with pytest.raises(ValueError):  # a pair mentions an unknown variable
        Problem(frozenset({"x"}), {"x": frozenset({("x", "z")})}, {"x": rx.sigma_star()})


def test_reprs_keep_their_format():
    assert repr(pattern("(a|[b-d])*.?")) == (
        "Concat(items=(Star(item=Union(items=(CharClass(chars=((97, 97),)),"
        " CharClass(chars=((98, 100),))))), Opt(item=CharClass(chars=((0, 1114111),)))))")
    assert repr(Membership("x", rx.Concat((rx.Plus(A), rx.CharClass(()))))) == (
        "Membership(var='x', regex=Concat(items=(Plus(item=Literal(word='a')),"
        " CharClass(chars=()))))")
    assert repr(Length("x", "<=", 3)) == "Length(var='x', op='<=', bound=3)"
    assert repr(Verdict("sat", model={"x": "a"})) == (
        "Verdict(kind='sat', model={'x': 'a'}, witness=None, reason=None, "
        "stats=SolveStats(iterations=0, millis=0.0, var_sizes={}))")


def test_records_keep_their_defaults_and_equality():
    assert Verdict("sat") == Verdict("sat", refined={"x": SMALL}) != Verdict("unsat")
    assert Verdict("sat").stats is not Verdict("sat").stats
    stats = SolveStats()
    assert (stats.iterations, stats.millis, stats.var_sizes) == (0, 0.0, {})
    assert SolveStats().var_sizes is not stats.var_sizes
    row = cli.GroupRow("g")
    assert (row.group, row.total, row.sat, row.unknown, row.unsat, row.timeout,
            row.time_sum_s, row.solve_sum_s) == ("g", 0, 0, 0, 0, 0, 0.0, 0.0)
    report = cli.BenchReport([], [])
    assert (report.unsupported, report.errors, report.notes) == (0, 0, [])
    assert cli.BenchReport([], []).notes is not report.notes


def test_package_exports_the_same_names():
    assert sorted(strsolve.__all__) == [
        "Assignment", "Budget", "CyclicDependencyError", "Equation", "FULL", "Length", "Lit",
        "MAX_CODEPOINT", "Membership", "Or", "Problem",
        "RefinedReg", "ResourceLimitError", "SNfa", "SmtScript", "SolveStats", "StrSolveError",
        "SurfaceConstraint", "SyntaxParseError", "UnsupportedError", "Var", "VarId", "Verdict",
        "accepts", "check_tree", "classify", "concat", "desugar", "dump", "extract_model",
        "forward_prop", "is_empty", "layering", "length_automaton", "make_problem",
        "parse_smt", "problem_dump", "product", "sat_str", "sigma_star", "snfa", "solve",
        "some_word", "split_word", "to_dot", "word_automaton"]


def test_cli_import_loads_no_code_generating_modules():
    # `dataclasses` generates each class's methods with exec at import, and
    # pulls in inspect, dis, ast and tokenize; every CLI start would pay for it
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys, strsolve.cli; print(' '.join(sorted({'dataclasses', 'inspect', 'ast',"
            " 'dis', 'tokenize'} & set(sys.modules))))")
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**env, "PYTHONPATH": src}, timeout=60)
    assert (proc.returncode, proc.stdout.strip()) == (0, ""), proc.stderr


def test_readme_library_example_runs():
    # the public example names only what the package still exports
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    code = readme.split("```python\n", 1)[1].split("```", 1)[0]
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**env, "PYTHONPATH": str(root / "src")}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[0] == "sat"
