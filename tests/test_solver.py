import random
import time

import pytest

from helpers import TEST_ALPHABET, CountingBudget, pattern, random_problem, words_upto
from oracle import Bound, oracle_sat
from strsolve import regex as rx
from strsolve import solver
from strsolve.constraints import (CyclicDependencyError, Equation, Lit, Membership,
                                  Var, check_tree, desugar, layering, make_problem,
                                  sat_str)
from strsolve.errors import ResourceLimitError
from strsolve.snfa import PAIR_STRIDE, SNfa, accepts, concat, dump, is_empty, product
from strsolve.solver import Budget, SolveStats, classify, extract_model, forward_prop, solve

URL_CONSTRAINTS = [
    Membership("domain", pattern("[a-zA-Z.]+")),
    Membership("dir", pattern("[a-zA-Z0-9.]+")),
    Membership("file", pattern("[a-zA-Z0-9.]+")),
    Equation(Var("path"), (Var("dir"), Lit("/"), Var("file"))),
    Equation(Var("url"), (Lit("http://"), Var("domain"), Lit("/"), Var("path"))),
]
SCRIPT_MEMBERSHIP = Membership("url", pattern(".*<script>.*"))


def paper_example_problem():
    return make_problem(["x1", "x2", "x3", "x4", "x5"],
                        {"x5": {("x3", "x4")}, "x3": {("x1", "x2")}})


def test_long_model_split_takes_the_shortest_first_part():
    # the split of z's 6000-character witness used to be quadratic in its length
    p = make_problem(["z", "a", "b"], {"z": {("a", "b")}},
                     {"a": rx.length_automaton(">=", 3000), "b": rx.length_automaton(">=", 3000)})
    verdict = solve(p)
    assert verdict.kind == "sat"
    assert len(verdict.model["a"]) == 3000 and len(verdict.model["b"]) == 3000


def test_forward_prop_rounds_follow_layering():
    p = paper_example_problem()
    rounds = list(reversed(layering(p)))
    assert rounds[:2] == [{"x1", "x2", "x4"}, {"x3"}]
    stats = SolveStats()
    forward_prop(p, stats=stats)
    assert stats.iterations == len(rounds) == 3
    cyclic = make_problem(["a", "b", "c", "d"], {"a": {("b", "c")}, "b": {("a", "d")}})
    with pytest.raises(CyclicDependencyError) as err:
        forward_prop(cyclic)
    assert err.value.variables == {"a", "b"}


def test_cycle_found_before_any_automaton_is_built():
    # The acyclic part alone (e = f ++ f, 12 transitions) would exceed the budget.
    p = make_problem(list("abcdef"),
                     {"a": {("b", "c")}, "b": {("a", "d")}, "e": {("f", "f")}},
                     {"f": rx.word_automaton("abcdef")})
    verdict = solve(p, budget=Budget(max_transitions=10))
    assert (verdict.kind, verdict.reason, verdict.stats.iterations) == ("unknown", "cyclic", 0)


def test_var_lang_refines_path():
    p = desugar(URL_CONSTRAINTS)[0]
    reg = forward_prop(p)
    path = reg["path"]
    assert accepts(path, "b/c") and accepts(path, "dir0/file.txt")
    assert not accepts(path, "bc") and not accepts(path, "/c") and not accepts(path, "b/")
    # a variable with no equations keeps its automaton untouched
    no_eq = make_problem(["x"], reg={"x": rx.word_automaton("q")})
    assert forward_prop(no_eq)["x"] is no_eq.reg["x"]


def test_forward_prop_url_cases():
    p = desugar(URL_CONSTRAINTS)[0]
    reg = forward_prop(p)
    assert all(not is_empty(reg[v]) for v in p.variables)

    p5 = desugar(URL_CONSTRAINTS + [SCRIPT_MEMBERSHIP])[0]
    reg5 = forward_prop(p5)
    assert is_empty(reg5["url"])
    assert all(not is_empty(reg5[v]) for v in p5.variables if v != "url")


def test_forward_prop_sigma_absorbs():
    p = paper_example_problem()
    reg = forward_prop(p)
    for v, w in (("x1", ""), ("x3", "anything"), ("x5", "really anything")):
        assert accepts(reg[v], w)


def test_forward_prop_cyclic():
    p = make_problem(["x", "y1", "y2", "z1"],
                     {"x": {("y1", "y2")}, "y1": {("z1", "x")}})
    with pytest.raises(CyclicDependencyError):
        forward_prop(p)


def test_theorem_contract_on_url_problem():
    p = desugar([
        Membership("dir", pattern("[ab]+")),
        Membership("file", pattern("[ab]+")),
        Equation(Var("path"), (Var("dir"), Var("file"))),
    ])[0]
    reg1 = forward_prop(p)
    for v in sorted(p.variables):
        for w in words_upto((97, 98), 4):
            lhs = accepts(reg1[v], w)
            rhs = accepts(p.reg[v], w) and all(
                any(accepts(reg1[v1], w[:i]) and accepts(reg1[v2], w[i:])
                    for i in range(len(w) + 1))
                for v1, v2 in p.concat.get(v, frozenset()))
            assert lhs == rhs


def test_classify_verdicts():
    sat_v = solve(desugar(URL_CONSTRAINTS)[0])
    assert sat_v.kind == "sat" and sat_v.model is not None

    unsat_v = solve(desugar(URL_CONSTRAINTS + [SCRIPT_MEMBERSHIP])[0])
    assert unsat_v.kind == "unsat" and unsat_v.witness == "url"

    not_tree = solve(desugar([
        Equation(Var("y"), (Var("x"), Var("x"))),
        Membership("y", pattern("ab")),
        Membership("x", pattern("a|b")),
    ])[0])
    assert (not_tree.kind, not_tree.reason) == ("unknown", "not-tree")

    cyclic = solve(make_problem(["x", "y"], {"x": {("y", "x")}}))
    assert (cyclic.kind, cyclic.reason) == ("unknown", "cyclic")


def test_extract_model_cases():
    p = desugar(URL_CONSTRAINTS)[0]
    reg1 = forward_prop(p)
    mu = extract_model(p, reg1)
    assert sat_str(p, mu)
    assert mu["url"].startswith("http://")

    single = desugar([Membership("x", pattern("a+"))])[0]
    assert extract_model(single, forward_prop(single)) == {"x": "a"}

    paper = paper_example_problem()
    mu2 = extract_model(paper, forward_prop(paper))
    assert sat_str(paper, mu2)


def test_sat_model_always_checked():
    verdict = solve(desugar([
        Membership("a", pattern("x[yz]")),
        Equation(Var("c"), (Var("a"), Var("b"))),
        Membership("c", pattern("xy[01]+")),
    ])[0])
    assert verdict.kind == "sat"
    assert verdict.model["a"] == "xy" and verdict.model["b"].startswith("0")


def test_optimize_toggle_preserves_verdicts():
    rng = random.Random(99)
    for _ in range(40):
        p = random_problem(rng)
        plain = solve(p)
        opt = solve(p, optimize=True)
        assert plain.kind == opt.kind
        assert plain.stats.max_states >= opt.stats.max_states
        if plain.kind == "sat":
            assert sat_str(p, opt.model)


def test_optimize_shrinks_sigma_chains():
    p = paper_example_problem()
    opt = solve(p, optimize=True)
    assert opt.kind == "sat"
    assert opt.stats.max_states == 1  # every product against all-words is absorbed


def test_budget_and_deadline():
    k = 6
    p = make_problem(["x"] + [f"x{i}" for i in range(1, k + 1)],
                     {"x": {(f"x{i}", f"x{i}") for i in range(1, k + 1)}})
    with pytest.raises(ResourceLimitError):
        forward_prop(p, budget=Budget(max_transitions=100))
    with pytest.raises(ResourceLimitError):
        forward_prop(p, budget=Budget(deadline=time.monotonic() - 1))


def doubling(k: int):
    return make_problem(["x"] + [f"x{i}" for i in range(1, k + 1)],
                        {"x": {(f"x{i}", f"x{i}") for i in range(1, k + 1)}})


def test_budget_is_checked_only_inside_operations(monkeypatch):
    # the first pair refines the all-words x with one `concat` and no
    # product, the other 3 with a concat and a product each: every operation
    # checks once, at its first state; nothing between or after them
    # consults the budget
    calls = []
    for name in ("concat", "product"):
        def counted(a1, a2, budget, name=name, kernel=getattr(solver, name)):
            calls.append(name)
            return kernel(a1, a2, budget)
        monkeypatch.setattr(solver, name, counted)
    budget = CountingBudget()
    forward_prop(doubling(4), budget=budget)
    assert budget.checked == [0] * 7
    assert calls == ["concat"] + ["concat", "product"] * 3


def test_budget_stops_inside_product_and_concat():
    # the operands of the last product of doubling k=12: 2^11 states and 3^11
    # transitions against the 2-state Sigma* ++ Sigma*; the product has 3^12
    x = forward_prop(doubling(11))["x"]
    part = concat(rx.sigma_star(), rx.sigma_star())
    for build in (lambda b: product(x, part, b), lambda b: concat(x, x, b)):
        late = CountingBudget(deadline=time.monotonic() - 1)
        with pytest.raises(ResourceLimitError, match="time"):
            build(late)
        assert late.checked == [0]  # stopped before it built any state

    capped = CountingBudget(max_transitions=1000)
    with pytest.raises(ResourceLimitError, match="1000 transitions"):
        product(x, part, capped)
    widest = max(map(len, x.rows)) * max(map(len, part.rows))
    assert 1000 < capped.checked[-1] <= 1000 + widest  # stopped at the first state past it


def test_budget_bounds_the_row_pairs_product_scans_between_checks():
    # two chains of 250 one-character classes, even code points against odd
    # ones, that share only code point 1000. Each row of a2 also holds the
    # wide entry [1, 999] into its last state, which meets every class of a1
    # from 2 on, so its sweep cannot skip the odd classes below a class of
    # a1: each pair state reads about 251 * 126 entries of a2, by index
    reads = [0]

    class CountedRow(tuple):
        def __iter__(self):
            for r in tuple.__iter__(self):
                reads[0] += 1
                yield r

        def __getitem__(self, i):
            if not isinstance(i, slice):
                reads[0] += 1
            return tuple.__getitem__(self, i)

    def chain(offset: int, extra: list[tuple[int, int, int]], n: int = 20) -> SNfa:
        rows = [CountedRow(sorted([(c, c, q + 1) for c in range(offset, 500, 2)]
                                  + [(1000, 1000, q + 1)] + extra))
                for q in range(n)]
        return SNfa(tuple(rows) + (CountedRow(),), frozenset({0}), frozenset({n}))

    at_check: list[int] = []

    class RecordingBudget(Budget):
        def check(self, transitions: int) -> None:
            at_check.append(reads[0])
            super().check(transitions)

    a1, a2 = chain(0, []), chain(1, [(1, 999, 20)])
    reads[0] = 0
    assert not is_empty(product(a1, a2, RecordingBudget()))
    assert reads[0] > 10 * PAIR_STRIDE
    marks = [0] + at_check + [reads[0]]
    assert max(b - a for a, b in zip(marks, marks[1:])) <= PAIR_STRIDE


def test_budget_bounds_the_row_pairs_of_a_one_label_row_between_checks():
    # one pair state: 400 entries of a1 on the one label [0, 399] against
    # 400 one-character entries of a2, each met once, so every entry of a1
    # the product pairs with them stands for 400 row pairs
    width = 400
    pairs_read = [0]

    class CountedTarget(int):
        def __mul__(self, n2: int) -> int:  # product keys a1 target d by d * n2
            pairs_read[0] += width
            return int(self) * n2

    a1 = SNfa((tuple((0, width - 1, CountedTarget(d)) for d in range(1, width + 1)),)
              + ((),) * width, frozenset({0}), frozenset(range(1, width + 1)))
    a2 = SNfa((tuple((c, c, 1) for c in range(width)), ()), frozenset({0}), frozenset({1}))
    at_check: list[int] = []

    class RecordingBudget(Budget):
        def check(self, transitions: int) -> None:
            at_check.append(pairs_read[0])
            super().check(transitions)

    got = product(a1, a2, RecordingBudget())
    assert len(got.transitions) == width * width and not is_empty(got)
    assert pairs_read[0] == width * width
    marks = [0] + at_check + [pairs_read[0]]
    assert max(b - a for a, b in zip(marks, marks[1:])) <= PAIR_STRIDE


def test_one_label_rows_build_each_run_once_per_label_and_a2_state(monkeypatch):
    # a1 target d of a one-label row yields the same run with every pair
    # state (p, q) that meets its label in q; product keys d by d * n2 once,
    # when it builds that run. Without the memo it does so once per a1
    # entry of every such pair state: 4372 times in the last product here
    built: list[int] = []
    steps: list[int] = []

    class CountedTarget(int):
        def __mul__(self, n2: int) -> int:
            built[-1] += 1
            return int(self) * n2

    def counted(a1: SNfa, a2: SNfa, budget: Budget) -> SNfa:
        one_label = [len(row) > 1 and row[0][:2] == row[-1][:2] for row in a1.rows]
        labels = {row[0][:2] for row, one in zip(a1.rows, one_label) if one}
        rows = tuple(tuple((lo, hi, CountedTarget(d)) for lo, hi, d in row) if one else row
                     for row, one in zip(a1.rows, one_label))
        built.append(0)
        got = product(SNfa(rows, a1.initial, a1.accepting), a2, budget)
        assert built[-1] <= len(labels) * len(a2.rows) * len(a1.rows)
        steps.append(len(got.transitions))
        return got

    monkeypatch.setattr(solver, "product", counted)
    forward_prop(doubling(8))
    assert steps == [3 ** k for k in range(2, 9)]
    assert built[-1] == 256


def test_budget_cap_stops_no_solve_that_fits():
    # the largest automaton of doubling k=6 has exactly 3^6 transitions
    assert forward_prop(doubling(6), budget=Budget(max_transitions=3 ** 6))["x"].trim
    with pytest.raises(ResourceLimitError):
        forward_prop(doubling(6), budget=Budget(max_transitions=3 ** 6 - 1))


def test_iterations_bounded_by_vars():
    rng = random.Random(123)
    for _ in range(50):
        p = random_problem(rng)
        v = solve(p)
        assert v.stats.iterations <= len(p.variables)


def test_determinism_of_refinement():
    p1 = desugar(URL_CONSTRAINTS)[0]
    p2 = desugar(URL_CONSTRAINTS)[0]
    d1 = {v: dump(a) for v, a in forward_prop(p1).items()}
    d2 = {v: dump(a) for v, a in forward_prop(p2).items()}
    assert d1 == d2


def test_soundness_and_completeness_small():
    """Small-scale versions of the unsat-soundness and tree-completeness
    suites; the full-size runs are in the acceptance tests."""
    rng = random.Random(2024)
    bound = Bound(4, (TEST_ALPHABET,))
    unsat_seen = sat_seen = 0
    for _ in range(60):
        p = random_problem(rng, tree_only=True)
        try:
            model = oracle_sat(p, bound, cap=20_000)
        except ResourceLimitError:
            continue
        verdict = solve(p)
        assert check_tree(p)
        if verdict.kind == "sat":
            sat_seen += 1
            assert sat_str(p, verdict.model)
        else:
            assert verdict.kind == "unsat"
            unsat_seen += 1
            assert model is None
    assert sat_seen and unsat_seen
