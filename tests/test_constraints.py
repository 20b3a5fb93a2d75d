import importlib
import random
import time

import pytest

from helpers import (TEST_ALPHABET, CountingBudget, compile_pattern, expand_or_reference,
                     layering_reference, random_problem, ref_regex_match, words_upto)
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import Bound, oracle_sat
from strsolve import cli, constraints
from strsolve import regex as rx
from strsolve.constraints import (CyclicDependencyError, Equation, Length, Lit,
                                  Membership, Or, Problem, Var, check_tree, desugar,
                                  expand_or, layering, make_problem, problem_dump,
                                  sat_str)
from strsolve.errors import ResourceLimitError
from strsolve.intervals import MAX_CODEPOINT, IntervalSet
from strsolve.snfa import SNfa, accepts, is_empty, set_validation


def pairs_of(p: Problem, v: str):
    return sorted(p.concat.get(v, frozenset()))


def test_desugar_ternary_fold():
    p = desugar([Equation(Var("x"), (Var("x1"), Var("x2"), Var("x3")))])[0]
    assert pairs_of(p, "_t1") == [("x1", "x2")]
    assert pairs_of(p, "x") == [("_t1", "x3")]
    assert p.variables == frozenset({"x", "x1", "x2", "x3", "_t1"})


def test_desugar_url_equation_shape():
    p = desugar([Equation(Var("url"), (Lit("http://"), Var("domain"), Lit("/"), Var("path")))])[0]
    equations = [(v, pr) for v in sorted(p.concat) for pr in pairs_of(p, v)]
    assert len(equations) == 3  # three binary equations
    literal_vars = [v for v in sorted(p.variables)
                    if v.startswith("_t") and not p.concat.get(v)
                    and not accepts(p.reg[v], "xyz")]
    assert literal_vars == ["_t1", "_t2"]  # two literal vars
    assert accepts(p.reg["_t1"], "http://")
    assert accepts(p.reg["_t2"], "/")
    # left fold: _t3 = _t1 + domain ; _t4 = _t3 + _t2 ; url = _t4 + path
    assert pairs_of(p, "_t3") == [("_t1", "domain")]
    assert pairs_of(p, "_t4") == [("_t3", "_t2")]
    assert pairs_of(p, "url") == [("_t4", "path")]


def test_desugar_unary_equation():
    p = desugar([Equation(Var("x"), (Var("y"),))])[0]
    ((a, b),) = pairs_of(p, "x")
    assert a == "y" and b.startswith("_t")
    assert accepts(p.reg[b], "") and not accepts(p.reg[b], "a")


def test_desugar_length_to_membership():
    p = desugar([Length("x", "<=", 6)])[0]
    assert accepts(p.reg["x"], "a" * 6) and not accepts(p.reg["x"], "a" * 7)


def test_desugar_intersects_multiple_memberships():
    p = desugar([Membership("x", rx.parse_regex("a+")),
                 Membership("x", rx.parse_regex("(aa)*"))])[0]
    for w in words_upto((97, 97), 6):
        assert accepts(p.reg["x"], w) == (len(w) >= 2 and len(w) % 2 == 0)


def test_desugar_defaults_to_all_words():
    p = desugar([], base_vars=["x"])[0]
    assert accepts(p.reg["x"], "") and accepts(p.reg["x"], "whatever")


def test_desugar_literal_equalities():
    assert desugar([Equation(Lit("ab"), (Lit("a"), Lit("b")))])[0].variables == frozenset()
    p = desugar([Equation(Lit("a"), (Lit("b"),))])[0]
    (v,) = p.variables
    assert is_empty(p.reg[v])  # trivially unsat, kept as an empty-language witness


def test_desugar_disjunction():
    cs = [Or(((Membership("x", rx.parse_regex("a")),),
              (Membership("x", rx.parse_regex("b")),))),
          Membership("x", rx.parse_regex("[ab]"))]
    problems = desugar(cs)
    assert len(problems) == 2
    assert accepts(problems[0].reg["x"], "a") and not accepts(problems[0].reg["x"], "b")
    assert accepts(problems[1].reg["x"], "b") and not accepts(problems[1].reg["x"], "a")


def test_desugar_disjunction_cap():
    two_way = Or(((Membership("x", rx.parse_regex("a")),),
                  (Membership("x", rx.parse_regex("b")),)))
    with pytest.raises(ResourceLimitError, match="disjunction expands to more than 64 cases"):
        desugar([two_way] * 7)  # 2^7 = 128 > 64
    with pytest.raises(ResourceLimitError):  # at the 7th: an empty Or after it would make 0
        desugar([two_way] * 7 + [Or(())])
    assert len(desugar([two_way] * 6)) == 64


atom = st.sampled_from([Membership(v, rx.parse_regex(r)) for v in "xy" for r in "ab"])
conjunction = st.recursive(
    st.lists(atom, max_size=3),
    lambda inner: st.lists(st.one_of(atom, st.lists(inner, max_size=4).map(
        lambda branches: Or(tuple(map(tuple, branches))))), max_size=4),
    max_leaves=24)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(conjunction)
def test_expand_or_matches_the_recursive_reference(cs):
    try:
        expected = expand_or_reference(cs)
    except ResourceLimitError as err:
        with pytest.raises(ResourceLimitError, match=str(err)):
            expand_or(cs)
    else:
        assert expand_or(cs) == expected


def test_expand_or_reads_any_depth():
    def nest(depth: int, width: int) -> Or:
        c = Membership("x", rx.parse_regex("a"))
        for _ in range(depth):
            c = Or(((c,),) + ((Membership("x", rx.parse_regex("b")),),) * (width - 1))
        return c

    assert expand_or([nest(100_000, 1)]) == [[Membership("x", rx.parse_regex("a"))]]
    assert len(expand_or([nest(63, 2)])) == 64
    with pytest.raises(ResourceLimitError, match="more than 64 cases"):
        expand_or([nest(3000, 2)])
    # the cap holds inside a branch too, before an empty `or` after it would
    # make the branch's count 0
    two_way = nest(1, 2)
    with pytest.raises(ResourceLimitError, match="more than 64 cases"):
        expand_or([Or(((two_way,) * 7 + (Or(()),),))])


def test_a_script_without_or_is_expanded_once(tmp_path, monkeypatch):
    # `solve_path` expands the script's disjunctions, and `desugar` takes
    # each flat conjunction it is handed as its one disjunct
    walks = []

    def counted(cs):
        walks.append(len(cs))
        return expand_or(cs)

    monkeypatch.setattr(cli, "expand_or", counted)
    monkeypatch.setattr(constraints, "expand_or", counted)
    f = tmp_path / "no_or.smt2"
    f.write_text('(declare-const x String)(declare-const y String)'
                 '(assert (= x (str.++ y "a")))(assert (str.in_re y (str.to_re "b")))'
                 '(check-sat)', encoding="utf-8")
    verdict, _, _ = cli.solve_path(f)
    assert verdict.kind == "sat" and walks == [2]
    # a conjunction that holds an `or` is still expanded by `desugar`
    assert len(desugar([Or(((Length("x", "=", 1),), (Length("x", "=", 2),)))])) == 2
    assert walks == [2, 1]


def test_desugar_is_linear_in_the_number_of_constraints():
    # recounting the disjuncts over all earlier constraints after each one
    # is quadratic: 5.4-5.9 s for these 20 000 memberships on 2 CPUs,
    # against 0.25 s for a running product
    cs = [Membership(f"x{i}", rx.Epsilon()) for i in range(20_000)]
    set_validation(False)  # the autouse fixture turns it back on
    start = time.perf_counter()
    (problem,) = desugar(cs)
    assert time.perf_counter() - start < 1.0
    assert len(problem.variables) == 20_000


def test_desugar_checks_the_budget_every_stride_of_constraints():
    # one membership per variable, so no product runs: the checks are
    # desugaring's own, before constraints 0, 1024 and 2048
    cs = [Membership(f"x{i}", rx.parse_regex("ab")) for i in range(3000)]
    budget = CountingBudget()
    (problem,) = desugar(cs, budget=budget)
    assert budget.checked == [0, 0, 0]
    assert len(problem.variables) == 3000
    with pytest.raises(ResourceLimitError, match="time budget exhausted"):
        desugar(cs, budget=CountingBudget(deadline=time.monotonic() - 1))


def test_reserved_prefix_rejected():
    with pytest.raises(ValueError):
        desugar([Membership("_tricky", rx.parse_regex("a"))])
    with pytest.raises(ValueError):
        desugar([], base_vars=["_t1"])
    # the first reserved name in input order, whatever the string hash seed
    with pytest.raises(ValueError, match="_t9"):
        desugar([], base_vars=["_t9", "_t1"])


def test_problem_wf_validation():
    with pytest.raises(ValueError):
        Problem(frozenset({"x"}), {"x": frozenset({("x", "ghost")})}, {"x": rx.sigma_star()})
    with pytest.raises(ValueError):
        Problem(frozenset({"x"}), {}, {})


def test_sat_str_url_example():
    cs = [
        Membership("domain", rx.parse_regex("[a-zA-Z.]+")),
        Membership("dir", rx.parse_regex("[a-zA-Z0-9.]+")),
        Membership("file", rx.parse_regex("[a-zA-Z0-9.]+")),
        Equation(Var("path"), (Var("dir"), Lit("/"), Var("file"))),
        Equation(Var("url"), (Lit("http://"), Var("domain"), Lit("/"), Var("path"))),
    ]
    p = desugar(cs)[0]
    mu = {"domain": "a", "dir": "b", "file": "c", "path": "b/c", "url": "http://a/b/c",
          "_t1": "/", "_t2": "b/", "_t3": "http://", "_t4": "/",
          "_t5": "http://a", "_t6": "http://a/"}
    assert sat_str(p, mu)
    wrong = dict(mu, url="http://a/b/x")
    assert not sat_str(p, wrong)


def test_sat_str_equation_clause_fails():
    p = make_problem(["x", "y"], {"y": {("x", "x")}},
                     {"y": rx.word_automaton("ab"), "x": compile_pattern("a|b")})
    assert not sat_str(p, {"y": "ab", "x": "a"})
    assert sat_str(make_problem([]), {})  # vacuous


def test_is_sigma_star_is_structural():
    assert rx.is_sigma_star(rx.sigma_star())
    copy = SNfa(rx.sigma_star().rows, frozenset({0}), frozenset({0}))
    assert copy is not rx.sigma_star() and rx.is_sigma_star(copy)
    assert not rx.is_sigma_star(SNfa(copy.rows, frozenset({0}), frozenset()))
    short_label = SNfa((((0, MAX_CODEPOINT - 1, 0),),), frozenset({0}), frozenset({0}))
    assert not rx.is_sigma_star(short_label)
    assert not rx.is_sigma_star(rx.length_automaton(">=", 1))
    # another all-words automaton of another shape is simulated, not skipped
    assert not rx.is_sigma_star(rx.compile(rx.parse_regex(".*")))


def test_sat_str_simulates_only_languages_other_than_all_words(monkeypatch):
    # the long_models shape: z = a ++ "." ++ b desugars to _t1 = ".",
    # _t2 = a ++ _t1 and z = _t2 ++ b, where z and _t2 take every word
    p = desugar([Equation(Var("z"), (Var("a"), Lit("."), Var("b"))),
                 Length("a", ">=", 174), Length("b", ">=", 180)])[0]
    assert p.concat == {"_t2": {("a", "_t1")}, "z": {("_t2", "b")}}
    model = {"a": "a" * 174, "_t1": ".", "b": "b" * 180}
    model.update(_t2=model["a"] + ".", z=model["a"] + "." + model["b"])
    simulated = []

    def counting(a, word):
        simulated.append(word)
        return accepts(a, word)

    monkeypatch.setattr(importlib.import_module("strsolve.snfa"), "accepts", counting)
    assert sat_str(p, model)
    assert sorted(simulated) == sorted(model[v] for v in ("a", "b", "_t1"))
    # the skipped memberships leave the equations and the other languages checked
    assert not sat_str(p, dict(model, z=model["z"] + "b"))
    short = "a" * 173
    assert not sat_str(p, dict(model, a=short, _t2=short + ".", z=short + "." + model["b"]))


def test_sat_str_requires_total_assignment():
    p = make_problem(["x"])
    with pytest.raises(ValueError):
        sat_str(p, {})


def test_layering_paper_example():
    p = make_problem(["x1", "x2", "x3", "x4", "x5"],
                     {"x5": {("x3", "x4")}, "x3": {("x1", "x2")}})
    assert layering(p) == [{"x5"}, {"x3"}, {"x1", "x2", "x4"}]


def test_layering_cycle():
    p = make_problem(["x", "y1", "y2", "z1"],
                     {"x": {("y1", "y2")}, "y1": {("z1", "x")}})
    with pytest.raises(CyclicDependencyError) as err:
        layering(p)
    assert err.value.variables == frozenset({"x", "y1"})


def test_layering_of_a_long_chain():
    # x_i = x_{i-1} ++ c_i for 20 000 links, the shape of a deep str.++:
    # 20 000 layers. Rescanning the remaining variables once per layer took
    # about 15 s at 8000 links; Kahn's algorithm is linear.
    n = 20_000
    p = make_problem([f"x{i}" for i in range(n + 1)] + [f"c{i}" for i in range(1, n + 1)],
                     {f"x{i}": {(f"x{i - 1}", f"c{i}")} for i in range(1, n + 1)})
    start = time.perf_counter()
    layers = layering(p)
    assert time.perf_counter() - start < 1.0
    assert layers[0] == {f"x{n}"} and len(layers) == n + 1


problem_graph = st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just([f"v{i}" for i in range(n)]),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, n - 1)),
             max_size=2 * n)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(problem_graph)
def test_layering_matches_the_rescanning_reference(graph):
    names, eqs = graph
    pairs = {}
    for lhs, a, b in eqs:
        pairs.setdefault(names[lhs], set()).add((names[a], names[b]))
    p = make_problem(names, pairs)
    try:
        expected = layering_reference(p)
    except CyclicDependencyError as err:
        with pytest.raises(CyclicDependencyError) as got:
            layering(p)
        assert got.value.variables == err.variables
    else:
        assert layering(p) == expected


def test_layering_no_equations():
    p = make_problem(["a", "b"])
    assert layering(p) == [{"a", "b"}]


def test_check_tree():
    assert not check_tree(make_problem(["x", "y"], {"y": {("x", "x")}}))
    assert check_tree(make_problem(["x1", "x2", "x3", "x4", "x5"],
                                   {"x5": {("x3", "x4")}, "x3": {("x1", "x2")}}))
    assert check_tree(make_problem(["a"]))
    # same variable on two different right-hand sides
    assert not check_tree(make_problem(["a", "b", "c", "x"],
                                       {"a": {("x", "b")}, "c": {("x", "b")}}))


def _dfs_has_cycle(variables, edges) -> bool:
    """Independent cycle detector: plain coloring DFS over the dependence graph."""
    color = {v: 0 for v in variables}  # 0 new, 1 on stack, 2 done

    def visit(v) -> bool:
        color[v] = 1
        for w in edges.get(v, ()):
            if color[w] == 1 or (color[w] == 0 and visit(w)):
                return True
        color[v] = 2
        return False

    return any(color[v] == 0 and visit(v) for v in variables)


def test_layering_agrees_with_dfs_cycle_detector():
    rng = random.Random(888)
    for _ in range(200):
        n = rng.randint(1, 5)
        names = [f"v{i}" for i in range(n)]
        pairs = {}
        for _ in range(rng.randint(0, 3)):
            lhs = rng.choice(names)
            pair = (rng.choice(names), rng.choice(names))  # cycles allowed
            pairs.setdefault(lhs, set()).add(pair)
        p = make_problem(names, pairs)
        edges = {v: {x for pr in p.concat.get(v, ()) for x in pr} for v in names}
        cyclic = _dfs_has_cycle(names, edges)
        try:
            layers = layering(p)
        except CyclicDependencyError:
            assert cyclic
        else:
            assert not cyclic
            # the returned list witnesses the layering contract
            seen: set[str] = set()
            for layer in reversed(layers):
                for v in layer:
                    assert edges[v] <= seen
                seen |= layer
            assert seen == set(names)


def _tree_predicate(p: Problem) -> bool:
    """The three-clause forest condition, evaluated directly."""
    eqs = [(v, pair) for v in p.concat for pair in p.concat[v]]
    for _, (v1, v2) in eqs:
        if v1 == v2:
            return False
    for i, (va, (a1, a2)) in enumerate(eqs):
        for vb, (b1, b2) in eqs[i + 1:]:
            if {a1, a2} & {b1, b2}:
                return False
    return True


def test_check_tree_implies_tree_predicate():
    rng = random.Random(999)
    agree_true = agree_false = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        names = [f"v{i}" for i in range(n)]
        pairs = {}
        for _ in range(rng.randint(0, 3)):
            pairs.setdefault(rng.choice(names), set()).add(
                (rng.choice(names), rng.choice(names)))
        p = make_problem(names, pairs)
        if check_tree(p):
            assert _tree_predicate(p)
            agree_true += 1
        else:
            assert not _tree_predicate(p)  # distinctness is exactly the forest condition
            agree_false += 1
    assert agree_true and agree_false


def test_problem_dump_format():
    p = make_problem(["b", "a"], {"a": {("b", "b")}})
    text = problem_dump(p)
    assert text.splitlines() == [
        "a : states=1 transitions=1 ; deps: (b,b)",
        "b : states=1 transitions=1 ; deps: ",
    ]


def _surface_bounded_sat(cs, bound: Bound) -> bool:
    """Independent surface-level bounded satisfiability by direct enumeration."""
    variables = sorted({c.var for c in cs if isinstance(c, (Membership, Length))}
                       | {t.name for c in cs if isinstance(c, Equation)
                          for t in (c.lhs, *c.rhs) if isinstance(t, Var)})
    words = bound.words()

    def holds(mu) -> bool:
        for c in cs:
            if isinstance(c, Membership):
                if not ref_regex_match(c.regex, mu[c.var]):
                    return False
            elif isinstance(c, Length):
                n = len(mu[c.var])
                ok = {"<": n < c.bound, "<=": n <= c.bound, "=": n == c.bound,
                      ">=": n >= c.bound, ">": n > c.bound}[c.op]
                if not ok:
                    return False
            elif isinstance(c, Equation):
                lhs = mu[c.lhs.name] if isinstance(c.lhs, Var) else c.lhs.word
                rhs = "".join(mu[t.name] if isinstance(t, Var) else t.word for t in c.rhs)
                if lhs != rhs:
                    return False
        return True

    import itertools
    for choice in itertools.product(words, repeat=len(variables)):
        if holds(dict(zip(variables, choice))):
            return True
    return False


def test_desugar_preserves_bounded_satisfiability():
    """Surface-level enumeration agrees with the oracle on desugared output,
    existentially projecting the fresh variables."""
    rng = random.Random(4242)
    bound = Bound(3, IntervalSet.from_pairs(TEST_ALPHABET))
    checked = 0
    while checked < 25:
        nvars = rng.randint(1, 2)
        names = [f"v{i}" for i in range(nvars)]
        cs = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.5:
                from helpers import random_regex
                cs.append(Membership(rng.choice(names), random_regex(rng, 1)))
            elif roll < 0.7:
                cs.append(Length(rng.choice(names), rng.choice(["<=", "="]), rng.randint(0, 2)))
            elif nvars >= 2:
                items = [Var(names[1])] if rng.random() < 0.5 else [Var(names[1]), Lit("a")]
                cs.append(Equation(Var(names[0]), tuple(items)))
        if not cs:
            continue
        problems = desugar(cs)
        assert len(problems) == 1
        try:
            got = oracle_sat(problems[0], bound) is not None
        except ResourceLimitError:
            continue
        expected = _surface_bounded_sat(cs, bound)
        # desugaring may need fresh-variable words no longer than the bound;
        # literals used here are short, so the bound is preserved
        assert got == expected, cs
        checked += 1
