import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (TEST_ALPHABET, CountingBudget, compile_reference, pattern,
                     random_regex, ref_regex_match, remove_unreachable, words_upto)
from strsolve import regex as rx
from strsolve.errors import ResourceLimitError
from strsolve.intervals import FULL, MAX_CODEPOINT, normalize
from strsolve.snfa import BUDGET_STRIDE, Budget, accepts, dump, validate


def test_parse_class_plus():
    ast = pattern("[a-zA-Z.]+")
    assert ast == rx.Plus(rx.CharClass(((46, 46), (65, 90), (97, 122))))


def test_parse_union():
    assert pattern("a|b") == rx.Union((rx.char(97), rx.char(98)))


def test_parse_script_pattern():
    ast = pattern(".*<script>.*")
    assert isinstance(ast, rx.Concat)
    assert ast.items[0] == rx.Star(rx.CharClass((FULL,)))
    assert ast.items[-1] == rx.Star(rx.CharClass((FULL,)))
    middle = ast.items[1:-1]
    assert middle == tuple(rx.char(ord(ch)) for ch in "<script>")


def test_parse_groups_and_precedence():
    a, b, c = rx.char(97), rx.char(98), rx.char(99)
    assert pattern("ab|c") == rx.Union((rx.Concat((a, b)), c))
    assert pattern("a(b|c)") == rx.Concat((a, rx.Union((b, c))))
    assert pattern("ab*") == rx.Concat((a, rx.Star(b)))
    assert pattern("") == rx.Literal("")


def test_compile_examples():
    eps = rx.compile(rx.Literal(""))
    assert len(eps.states) == 1 and not eps.transitions
    assert eps.initial == eps.accepting

    star = rx.compile(pattern("(ab)*"))
    lang = {w for w in words_upto((97, 98), 4) if accepts(star, w)}
    assert lang == {"", "ab", "abab"}

    cls = rx.compile(pattern("[a-c]"))
    assert {(lo, hi) for row in cls.rows for lo, hi, _ in row} == {(97, 99)}


A, B, C = rx.char(97), rx.char(98), rx.char(99)
NO_CHARS = rx.CharClass(())  # the empty class denotes no word


def test_compile_never_and_embedded_never():
    assert not rx.compile(NO_CHARS).accepting
    embedded = rx.Concat((rx.Literal("ab"), NO_CHARS))
    a = rx.compile(embedded)
    assert not a.accepting and a.trim and len(a.states) == 1
    dropped = rx.Union((NO_CHARS, A))
    assert accepts(rx.compile(dropped), "a")


# leaves over a..c: single characters, ranges, the full class, words of 0
# to 5 characters, and the empty class, which denotes no word
regex_ast = st.recursive(
    st.one_of(st.builds(rx.char, st.integers(97, 99)),
              st.tuples(st.integers(97, 99), st.integers(0, 2)).map(
                  lambda t: rx.CharClass(((t[0], t[0] + t[1]),))),
              st.text("abc", max_size=5).map(rx.Literal),
              st.sampled_from([rx.CharClass((FULL,)), NO_CHARS])),
    lambda inner: st.one_of(
        st.lists(inner, min_size=1, max_size=3).map(lambda xs: rx.Concat(tuple(xs))),
        st.lists(inner, min_size=1, max_size=3).map(lambda xs: rx.Union(tuple(xs))),
        st.builds(rx.Star, inner), st.builds(rx.Plus, inner), st.builds(rx.Opt, inner)),
    max_leaves=12)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(regex_ast)
@example(rx.Union((rx.Concat((A, NO_CHARS)), B)))
@example(rx.Plus(rx.Concat((rx.Literal("ab"), rx.Star(B), NO_CHARS))))
@example(rx.Star(NO_CHARS))
@example(NO_CHARS)
def test_compile_matches_the_two_pass_reference(ast):
    # dropping what denotes no word inside the one pass gives what rewriting
    # it away first gives: the same states, names, transitions and trim flag
    a, ref = rx.compile(ast), compile_reference(ast)
    assert dump(a) == dump(ref)
    assert a.trim == ref.trim


# the same leaves without the empty class, which denotes no word
word_ast = st.recursive(
    st.one_of(st.builds(rx.char, st.integers(97, 99)),
              st.tuples(st.integers(97, 99), st.integers(0, 2)).map(
                  lambda t: rx.CharClass(((t[0], t[0] + t[1]),))),
              st.text("abc", max_size=5).map(rx.Literal),
              st.just(rx.CharClass((FULL,)))),
    lambda inner: st.one_of(
        st.lists(inner, min_size=1, max_size=3).map(lambda xs: rx.Concat(tuple(xs))),
        st.lists(inner, min_size=1, max_size=3).map(lambda xs: rx.Union(tuple(xs))),
        st.builds(rx.Star, inner), st.builds(rx.Plus, inner), st.builds(rx.Opt, inner)),
    max_leaves=12)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(word_ast)
@example(rx.Star(rx.Union((A, B, rx.Star(rx.Union((A, B)))))))
# a dropped subterm's links stop counting when it is dropped
@example(rx.Union((rx.Concat((rx.Star(rx.Union((A, B, C))), NO_CHARS)),
                   rx.Star(rx.Union((A, B, C))))))
def test_compile_stops_for_the_cap_only_past_it(ast):
    a = rx.compile(ast)
    n = len(a.transitions)
    assert dump(rx.compile(ast, Budget(max_transitions=n))) == dump(a)
    if n:
        with pytest.raises(ResourceLimitError, match=f"grew past {n - 1} transitions"):
            rx.compile(ast, Budget(max_transitions=n - 1))


def test_compile_checks_the_budget_every_stride():
    # a chain of 3000 literals: before positions 1024 and 2048, with the
    # follow links held then
    budget = CountingBudget()
    chain = rx.compile(pattern("a" * 3000), budget)
    assert budget.checked == [1022, 2046]
    assert len(chain.transitions) == 3000
    # (c0|...|c399)*: 400 positions, each followed by all 400. Linking offers
    # 400 entries per position, so a check follows every 82nd position's
    # (past PAIR_STRIDE entries), and building the rows checks every 82 rows
    star = rx.Star(rx.Union(tuple(rx.char(0x100 + i) for i in range(400))))
    budget = CountingBudget()
    loop = rx.compile(star, budget)
    assert len(loop.transitions) == 400 + 400 * 400
    assert budget.checked == [32_800, 65_600, 98_400, 131_200,
                              400 + 400 * 10, 400 + 400 * 92, 400 + 400 * 174, 400 + 400 * 256,
                              400 + 400 * 338]
    # linking stops at the first position whose follow set takes it past the cap
    budget = CountingBudget(max_transitions=1000)
    with pytest.raises(ResourceLimitError, match="grew past 1000 transitions"):
        rx.compile(star, budget)
    assert budget.checked == [1200]
    with pytest.raises(ResourceLimitError, match="time budget exhausted"):
        rx.compile(star, CountingBudget(deadline=time.monotonic() - 1))


@pytest.mark.parametrize("n", [1023, 1024, 5 * 1024 + 3, 40_001])
def test_a_word_compiles_as_the_concat_of_its_characters(n):
    # the same positions, links and numbering, and the budget checked at
    # the same points, without expanding the word into nodes
    w = "".join(random.Random(n).choice("abc") for _ in range(n))
    word, chars = CountingBudget(), CountingBudget()
    a = rx.compile(rx.Literal(w), word)
    b = rx.compile(rx.Concat(tuple(rx.char(ord(ch)) for ch in w)), chars)
    assert dump(a) == dump(b)
    assert word.checked == chars.checked
    assert len(word.checked) >= n // BUDGET_STRIDE  # one before every stride-th position


def test_sigma_star_canonical_form():
    ss = rx.sigma_star()
    assert len(ss.states) == 1 and len(ss.transitions) == 1
    assert ss.initial == ss.accepting == set(ss.states)
    assert ss.rows == (((*FULL, 0),),)
    assert accepts(ss, "")
    assert accepts(ss, "any word at all é\U0001d11e")


def test_word_automaton():
    empty = rx.word_automaton("")
    assert len(empty.states) == 1 and accepts(empty, "") and not empty.transitions
    ab = rx.word_automaton("ab")
    assert len(ab.states) == 3 and len(ab.transitions) == 2
    assert accepts(ab, "ab") and not any(accepts(ab, w) for w in ("", "a", "b", "ba", "abc"))
    slash = rx.word_automaton("/")
    assert accepts(slash, "/")


def test_length_automaton():
    le6 = rx.length_automaton("<=", 6)
    assert len(le6.states) == 7 and le6.accepting == set(le6.states)
    assert all((lo, hi) == FULL for row in le6.rows for lo, hi, _ in row)
    assert accepts(le6, "x" * 6) and not accepts(le6, "x" * 7)

    eq0 = rx.length_automaton("=", 0)
    assert accepts(eq0, "") and not accepts(eq0, "a")

    gt2 = rx.length_automaton(">", 2)
    for w in words_upto((97, 97), 4):
        assert accepts(gt2, w) == (len(w) > 2)

    lt0 = rx.length_automaton("<", 0)
    assert not accepts(lt0, "")

    ge0 = rx.length_automaton(">=", 0)
    assert accepts(ge0, "") and accepts(ge0, "abc")

    with pytest.raises(ResourceLimitError):
        rx.length_automaton("<=", 10_001)
    with pytest.raises(ValueError):
        rx.length_automaton("!=", 3)


def test_compile_agrees_with_reference_matcher():
    rng = random.Random(1234)
    words = words_upto(TEST_ALPHABET, 5)
    for _ in range(150):
        ast = random_regex(rng, rng.randint(0, 4))
        a = rx.compile(ast)
        validate(a)
        assert remove_unreachable(a).states == a.states  # trim audit
        for w in words:
            assert accepts(a, w) == ref_regex_match(ast, w), (ast, w)


def test_negated_class_complement_is_exact():
    rng = random.Random(555)
    for _ in range(50):
        a = rng.randint(0, 200)
        b = rng.randint(a, 220)
        chars = ((a, b),)
        comp = rx.CharClass(normalize([(0, a - 1), (b + 1, MAX_CODEPOINT)]))  # [^a-b]
        auto = rx.compile(comp)
        for cp in (0, a - 1, a, (a + b) // 2, b, b + 1, 300, MAX_CODEPOINT):
            if cp < 0:
                continue
            assert accepts(auto, chr(cp)) == (not any(lo <= cp <= hi for lo, hi in chars))
