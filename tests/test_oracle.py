import ast
import random
from pathlib import Path

import pytest

from helpers import compile_pattern, random_snfa
from oracle import Bound, oracle_lang, oracle_sat, word_in
from strsolve import regex as rx
from strsolve.constraints import make_problem
from strsolve.errors import ResourceLimitError
from strsolve.snfa import concat, product

AB = ((97, 98),)
ABCD = ((97, 100),)


def test_bound_invariants():
    with pytest.raises(ValueError):
        Bound(9, AB)
    with pytest.raises(ValueError):
        Bound(3, ((0, 100),))
    assert Bound(2, AB).words() == ["", "a", "b", "aa", "ab", "ba", "bb"]


def test_oracle_sat_examples():
    just_a = make_problem(["x"], reg={"x": compile_pattern("a")})
    assert oracle_sat(just_a, Bound(2, AB)) == {"x": "a"}

    clash = make_problem(["x"], reg={"x": product(compile_pattern("a"),
                                                  compile_pattern("b"))})
    assert oracle_sat(clash, Bound(2, AB)) is None

    doubled = make_problem(["x", "y"], {"y": {("x", "x")}},
                           {"y": rx.word_automaton("ab"), "x": compile_pattern("a|b")})
    assert oracle_sat(doubled, Bound(2, AB)) is None


def test_oracle_sat_derives_equation_values():
    p = make_problem(["x", "y", "z"], {"z": {("x", "y")}},
                     {"x": rx.word_automaton("a"), "y": rx.word_automaton("bb"),
                      "z": rx.sigma_star()})
    assert oracle_sat(p, Bound(4, AB)) == {"x": "a", "y": "bb", "z": "abb"}
    # the derived word must also fit the bound
    assert oracle_sat(p, Bound(2, AB)) is None


def test_oracle_sat_space_cap():
    p = make_problem(["x", "y"])  # two unconstrained variables
    with pytest.raises(ResourceLimitError):
        oracle_sat(p, Bound(6, ABCD), cap=1000)


def test_oracle_lang_examples():
    assert oracle_lang(rx.sigma_star(), Bound(2, ((97, 97),))) == \
        {"", "a", "aa"}
    assert oracle_lang(rx.word_automaton("ab"), Bound(3, AB)) == {"ab"}
    assert oracle_lang(concat(compile_pattern("a"), compile_pattern("b")),
                       Bound(2, AB)) == {"ab"}


def test_word_in_is_a_matcher():
    a = compile_pattern("a(b|c)*")
    for w in ("a", "ab", "acb", "", "b", "abx"):
        assert word_in(a, w) == __import__("strsolve").accepts(a, w)


def test_concat_product_language_identities():
    rng = random.Random(77)
    bound = Bound(6, ABCD)
    for _ in range(40):
        a1, a2 = random_snfa(rng), random_snfa(rng)
        l1, l2 = oracle_lang(a1, bound), oracle_lang(a2, bound)
        expected_concat = {w1 + w2 for w1 in l1 for w2 in l2 if len(w1 + w2) <= 6}
        assert oracle_lang(concat(a1, a2), bound) == expected_concat
        assert oracle_lang(product(a1, a2), bound) == l1 & l2


def test_oracle_imports_only_data_types_from_the_package():
    # what it checks must not be what it runs: no layering, no simulation
    tree = ast.parse(Path(__file__).with_name("oracle.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "strsolve":
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "strsolve" for a in node.names)
    assert imported == {"SNfa", "Problem", "VarId", "ResourceLimitError"}
