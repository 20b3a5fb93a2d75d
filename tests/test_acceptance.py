"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The random suites use
fixed seeds; instances whose bounded-enumeration space would exceed the
oracle cap are rejected up front (before any verdict is computed, so the
filtering cannot bias the comparisons).
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest

from helpers import random_problem, random_snfa, words_upto
from oracle import Bound, oracle_lang, oracle_sat
from strsolve import regex as rx
from strsolve.cli import bench, solve_path, stats_record
from strsolve.constraints import make_problem, sat_str
from strsolve.errors import ResourceLimitError
from strsolve.smtlib import parse_smt
from strsolve.snfa import accepts, concat, dump, product, set_validation
from strsolve.solver import forward_prop, solve

REPO = Path(__file__).resolve().parent.parent
MINI = REPO / "benchmarks" / "mini"

ABC = ((97, 99),)    # problem-suite alphabet a..c
ABCD = ((97, 100),)  # automata-suite alphabet a..d


def _load_problems(path: Path):
    from strsolve.constraints import desugar
    script = parse_smt(path.read_text())
    return desugar(list(script.assertions), base_vars=[n for n, _ in script.declarations])


def _passed(n: int, message: str) -> None:
    print(f"criterion {n}: PASS ({message})")


def test_criterion_1_golden_url_pair():
    (sat_problem,) = _load_problems(MINI / "sat_url.smt2")
    start = time.perf_counter()
    sat_verdict = solve(sat_problem)
    sat_elapsed = time.perf_counter() - start
    assert sat_verdict.kind == "sat"
    assert sat_str(sat_problem, sat_verdict.model)
    assert sat_elapsed < 1.0

    (unsat_problem,) = _load_problems(MINI / "unsat_url_script.smt2")
    start = time.perf_counter()
    unsat_verdict = solve(unsat_problem)
    unsat_elapsed = time.perf_counter() - start
    assert unsat_verdict.kind == "unsat"
    assert unsat_verdict.witness == "url"
    assert unsat_elapsed < 1.0

    # the CLI agrees with the API
    verdict, _, _ = solve_path(MINI / "sat_url.smt2")
    assert verdict.kind == "sat"
    _passed(1, f"sat in {sat_elapsed * 1000:.0f} ms, unsat(url) in {unsat_elapsed * 1000:.0f} ms")


def test_criterion_2_tree_property_boundary():
    (problem,) = _load_problems(MINI / "unknown_not_tree.smt2")
    verdict = solve(problem)
    assert (verdict.kind, verdict.reason) == ("unknown", "not-tree")
    assert oracle_sat(problem, Bound(4, ((97, 98),))) is None
    _passed(2, "y=x+x is unknown(not-tree) and has no bounded model")


def doubling_problem(k: int):
    names = ["x"] + [f"x{i}" for i in range(1, k + 1)]
    return make_problem(names, {"x": {(f"x{i}", f"x{i}") for i in range(1, k + 1)}})


@pytest.fixture(scope="module")
def doubling_sizes():
    """Refined sizes of the doubling family for k = 2..13, computed once.
    Validation is off here: auditing millions of transitions per operation
    would dominate the run."""
    previous = set_validation(False)
    sizes = {}
    try:
        for k in range(2, 14):
            refined = forward_prop(doubling_problem(k))
            a = refined["x"]
            sizes[k] = (len(a.states), len(a.transitions))
    finally:
        set_validation(previous)
    return sizes


def test_criterion_3_state_explosion_counts(doubling_sizes):
    start = time.perf_counter()
    for k in (11, 12, 13):
        assert doubling_sizes[k] == (2 ** k, 3 ** k), f"k={k}"
    elapsed = time.perf_counter() - start
    assert doubling_sizes[11] == (2048, 177147)
    assert doubling_sizes[12] == (4096, 531441)
    assert doubling_sizes[13] == (8192, 1594323)
    _passed(3, "doubling family hits exactly 2^k states / 3^k transitions for k=11..13")


def test_criterion_4_growth_ratios(doubling_sizes):
    for k in range(3, 14):
        prev_states, prev_trans = doubling_sizes[k - 1]
        states, trans = doubling_sizes[k]
        assert states == 2 * prev_states, f"k={k}"
        assert trans == 3 * prev_trans, f"k={k}"
    assert doubling_sizes[2] == (4, 9)
    _passed(4, "states x2 and transitions x3 per added constraint, k=2..13")


def _concat_languages(lang1: set[str], lang2: set[str], max_len: int) -> set[str]:
    by_len: dict[int, list[str]] = {}
    for w in lang2:
        by_len.setdefault(len(w), []).append(w)
    out: set[str] = set()
    for w1 in lang1:
        room = max_len - len(w1)
        for n, ws in by_len.items():
            if n <= room:
                out.update(w1 + w2 for w2 in ws)
    return out


def test_criterion_5_concat_product_oracle_suites():
    start = time.perf_counter()
    rng = random.Random(20240501)
    bound = Bound(6, ABCD)
    words = words_upto((97, 100), 6)
    for i in range(500):
        a1 = random_snfa(rng, max_states=5, alphabet=(97, 100))
        a2 = random_snfa(rng, max_states=5, alphabet=(97, 100))
        lang1 = oracle_lang(a1, bound)
        lang2 = oracle_lang(a2, bound)

        concatenated = concat(a1, a2)
        got_concat = {w for w in words if accepts(concatenated, w)}
        assert got_concat == _concat_languages(lang1, lang2, 6), f"pair {i}: concat mismatch"

        intersected = product(a1, a2)
        got_product = {w for w in words if accepts(intersected, w)}
        assert got_product == lang1 & lang2, f"pair {i}: product mismatch"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passed(5, f"500 concat/product pairs match the oracle in {elapsed:.1f} s")


def _enumeration_space(problem, bound: Bound) -> int:
    """Size of the oracle's base-variable assignment space (verdict-free)."""
    space = 1
    for v in sorted(problem.variables):
        if not problem.concat.get(v):
            space *= len(oracle_lang(problem.reg[v], bound))
    return space


def test_criterion_6_unsat_soundness_suite():
    rng = random.Random(20240602)
    bound = Bound(6, ABC)
    checked = unsat_count = 0
    while checked < 300:
        problem = random_problem(rng, max_vars=4)
        if _enumeration_space(problem, bound) > 20_000:
            continue
        verdict = solve(problem)
        assert verdict.stats.iterations <= len(problem.variables)
        if verdict.kind == "unsat":
            unsat_count += 1
            assert oracle_sat(problem, bound) is None, problem_repr(problem)
        checked += 1
    assert unsat_count >= 30  # the population genuinely exercises the branch
    _passed(6, f"300 acyclic problems, {unsat_count} unsat verdicts all confirmed within bound 6")


def random_tree_problem(rng: random.Random):
    """Tree-shaped problem whose satisfying assignments stay within length 6:
    variables without equations draw finite languages of words no longer
    than 2, so any model has leaves <= 2 and a depth-2 root <= 6."""
    n = rng.randint(1, 5)
    names = [f"v{i}" for i in range(n)]
    pairs: dict[str, set[tuple[str, str]]] = {}
    used: set[str] = set()
    for i, lhs in enumerate(names):
        avail = [v for v in names[i + 1:] if v not in used]
        if len(avail) >= 2 and rng.random() < 0.75:
            v1, v2 = rng.sample(avail, 2)
            used.update((v1, v2))
            pairs[lhs] = {(v1, v2)}
    chars = "abc"
    reg = {}
    for v in names:
        if v in pairs:  # interior variable: any constraint shape
            roll = rng.random()
            if roll < 0.4:
                reg[v] = rx.sigma_star()
            elif roll < 0.7:
                reg[v] = random_snfa(rng, max_states=4, alphabet=(97, 99), max_transitions=5)
            else:
                reg[v] = rx.length_automaton("<=", rng.randint(0, 5))
        else:  # leaf: finite language of short words
            roll = rng.random()
            if roll < 0.5:
                word = "".join(rng.choice(chars) for _ in range(rng.randint(0, 2)))
                reg[v] = rx.word_automaton(word)
            elif roll < 0.75:
                reg[v] = rx.length_automaton(rng.choice(["<=", "="]), rng.randint(0, 2))
            else:
                reg[v] = product(random_snfa(rng, max_states=4, alphabet=(97, 99),
                                             max_transitions=5),
                                 rx.length_automaton("<=", 2))
    return make_problem(names, pairs, reg)


def test_criterion_7_tree_completeness_suite():
    rng = random.Random(20240703)
    bound = Bound(6, ABC)
    sat_count = unsat_count = 0
    for _ in range(300):
        problem = random_tree_problem(rng)
        model = oracle_sat(problem, bound)
        verdict = solve(problem)
        assert verdict.stats.iterations <= len(problem.variables)
        if verdict.kind == "sat":
            sat_count += 1
            assert model is not None, problem_repr(problem)
            assert sat_str(problem, verdict.model)
        else:
            assert verdict.kind == "unsat"
            unsat_count += 1
            assert model is None, problem_repr(problem)
    assert sat_count >= 100 and unsat_count >= 30
    _passed(7, f"300 tree problems: sat <=> bounded model ({sat_count} sat / {unsat_count} unsat)")


def test_criterion_8_forward_prop_contract_suite():
    rng = random.Random(20240804)
    words = words_upto((97, 99), 5)
    for i in range(100):
        problem = random_problem(rng, max_vars=4)
        refined = forward_prop(problem)
        for v in sorted(problem.variables):
            pairs = sorted(problem.concat.get(v, frozenset()))
            for w in words:
                lhs = accepts(refined[v], w)
                rhs = accepts(problem.reg[v], w) and all(
                    any(accepts(refined[v1], w[:j]) and accepts(refined[v2], w[j:])
                        for j in range(len(w) + 1))
                    for v1, v2 in pairs)
                assert lhs == rhs, f"problem {i}, var {v}, word {w!r}"
    _passed(8, "refinement bi-implication holds on 100 problems for all words up to length 5")


def test_criterion_9_termination_and_determinism():
    (problem_a,) = _load_problems(MINI / "sat_url.smt2")
    (problem_b,) = _load_problems(MINI / "sat_url.smt2")

    verdict_a = solve(problem_a)
    verdict_b = solve(problem_b)
    assert verdict_a.stats.iterations <= len(problem_a.variables)

    def frozen_record(verdict):
        record = stats_record("golden.smt2", verdict, verdict.stats,
                              len(problem_a.variables))
        record.pop("millis")
        return json.dumps(record, sort_keys=True)

    assert frozen_record(verdict_a) == frozen_record(verdict_b)
    dumps_a = {v: dump(a) for v, a in forward_prop(problem_a).items()}
    dumps_b = {v: dump(a) for v, a in forward_prop(problem_b).items()}
    assert dumps_a == dumps_b

    rng = random.Random(20240905)
    for _ in range(50):
        problem = random_problem(rng)
        verdict = solve(problem)
        assert verdict.stats.iterations <= len(problem.variables)
    _passed(9, "iteration counts bounded by |vars|; repeated runs dump identically")


def test_criterion_10_bench_mini_corpus():
    report = bench(MINI, timeout_ms=2000, jobs=4)
    (row,) = report.rows
    assert (row.total, row.sat, row.unsat, row.unknown, row.timeout) == (12, 4, 4, 3, 1)
    assert report.unsupported == 0 and report.errors == 0
    assert len(report.records) == 12
    for record in report.records:
        assert list(record) == ["file", "verdict", "vars", "max_states",
                                "max_transitions", "iterations", "millis"]
    # in sorted file order, each the in-process record but for the time;
    # the budget stop is the timeout file's, and its record holds zeros,
    # its time too, since no solve finished
    assert [r["file"] for r in report.records] == [str(f) for f in sorted(MINI.glob("*.smt2"))]
    for record in report.records:
        millis = record.pop("millis")
        if record["verdict"] == "timeout":
            assert millis == 0
            with pytest.raises(ResourceLimitError):
                solve_path(record["file"], timeout_ms=2000)
            assert record == {"file": record["file"], "verdict": "timeout", "vars": 0,
                              "max_states": 0, "max_transitions": 0, "iterations": 0}
        else:
            expected = stats_record(record["file"], *solve_path(record["file"]))
            del expected["millis"]
            assert record == expected
    table = __import__("strsolve.cli", fromlist=["format_table"]).format_table(report)
    for column in ("total", "sat", "unknown", "unsat", "solved%", "avg-time", "solve-time",
                   "timeout"):
        assert column in table
    _passed(10, "mini corpus tabulates 4 sat / 4 unsat / 3 unknown / 1 timeout")


def problem_repr(problem) -> str:
    from strsolve.constraints import problem_dump
    return problem_dump(problem)
