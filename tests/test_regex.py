import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (TEST_ALPHABET, CountingBudget, compile_reference, random_regex,
                     ref_regex_match, remove_unreachable, words_upto)
from strsolve import regex as rx
from strsolve.errors import ResourceLimitError, SyntaxParseError, UnsupportedError
from strsolve.intervals import FULL, IntervalSet, MAX_CODEPOINT
from strsolve.snfa import Budget, accepts, dump, validate


def test_parse_class_plus():
    ast = rx.parse_regex("[a-zA-Z.]+")
    assert ast == rx.Plus(rx.CharClass(IntervalSet.from_pairs((46, 46), (65, 90), (97, 122))))


def test_parse_union():
    assert rx.parse_regex("a|b") == rx.Union((rx.Literal(97), rx.Literal(98)))


def test_parse_script_pattern():
    ast = rx.parse_regex(".*<script>.*")
    assert isinstance(ast, rx.Concat)
    assert ast.items[0] == rx.Star(rx.AnyChar())
    assert ast.items[-1] == rx.Star(rx.AnyChar())
    middle = ast.items[1:-1]
    assert "".join(chr(x.cp) for x in middle) == "<script>"


def test_parse_escapes():
    assert rx.parse_regex(r"\.") == rx.Literal(46)
    assert rx.parse_regex(r"\\") == rx.Literal(92)
    assert rx.parse_regex(r"\/") == rx.Literal(47)
    assert rx.parse_regex(r"\n") == rx.Literal(10)
    assert rx.parse_regex(r"\t") == rx.Literal(9)
    assert rx.parse_regex(r"\x41") == rx.Literal(65)
    assert rx.parse_regex(r"\u{10FFFF}") == rx.Literal(0x10FFFF)
    assert rx.parse_regex("[\\]a]") == rx.CharClass(IntervalSet.from_pairs((93, 93), (97, 97)))


def test_parse_groups_and_precedence():
    assert rx.parse_regex("ab|c") == rx.Union((rx.Concat((rx.Literal(97), rx.Literal(98))),
                                               rx.Literal(99)))
    assert rx.parse_regex("a(b|c)") == rx.Concat((rx.Literal(97),
                                                  rx.Union((rx.Literal(98), rx.Literal(99)))))
    assert rx.parse_regex("ab*") == rx.Concat((rx.Literal(97), rx.Star(rx.Literal(98))))
    assert rx.parse_regex("(?:ab)*") == rx.Star(rx.Concat((rx.Literal(97), rx.Literal(98))))
    assert rx.parse_regex("") == rx.Epsilon()


def test_parse_negated_class():
    ast = rx.parse_regex("[^a]")
    assert ast == rx.CharClass(IntervalSet.from_pairs((0, 96), (98, MAX_CODEPOINT)))


@pytest.mark.parametrize("pattern,feature", [
    (r"a\1", "backreference"),
    ("(?=a)", "lookahead"),
    ("(?!a)", "negative lookahead"),
    ("(?<a)", "lookbehind"),
    ("a*?", "lazy quantifier"),
    ("a*+", "possessive quantifier"),
    ("a{2,3}", "bounded repetition"),
    ("^a", "anchor"),
    ("a$", "anchor"),
    (r"\d", "escape"),
])
def test_unsupported_features_fail_loudly(pattern, feature):
    with pytest.raises(UnsupportedError) as err:
        rx.parse_regex(pattern)
    assert feature.split()[0] in str(err.value)


# the hex escapes after "[z-a]" take signs, spaces, underscores, 0x and
# non-ASCII digits unless checked; \x-1 once became the code point -1
@pytest.mark.parametrize("pattern", ["(a", "a)", "[a", "[]", "a**", "*a", r"\x4", "[z-a]",
                                     r"\x-1", r"\x+1", r"\x 1", r"\u{0x41}", r"\u{1_0}",
                                     r"\u{ 41}", "\\u{\u0661}"])
def test_syntax_errors(pattern):
    with pytest.raises(SyntaxParseError):
        rx.parse_regex(pattern)


def test_syntax_error_reports_byte_offset():
    with pytest.raises(SyntaxParseError) as err:
        rx.parse_regex("ab(")
    assert err.value.pos == 2  # offset of the unmatched paren
    with pytest.raises(SyntaxParseError) as err:
        rx.parse_regex("é(")  # two UTF-8 bytes before the paren
    assert err.value.pos == 2


def test_compile_examples():
    eps = rx.compile(rx.Epsilon())
    assert len(eps.states) == 1 and not eps.transitions
    assert eps.initial == eps.accepting

    star = rx.compile(rx.parse_regex("(ab)*"))
    lang = {w for w in words_upto((97, 98), 4) if accepts(star, w)}
    assert lang == {"", "ab", "abab"}

    cls = rx.compile(rx.parse_regex("[a-c]"))
    assert {(lo, hi) for row in cls.rows for lo, hi, _ in row} == {(97, 99)}


def test_compile_never_and_embedded_never():
    assert not rx.compile(rx.Never()).accepting
    embedded = rx.Concat((rx.Literal(97), rx.Never()))
    a = rx.compile(embedded)
    assert not a.accepting and a.trim
    dropped = rx.Union((rx.Never(), rx.Literal(97)))
    assert accepts(rx.compile(dropped), "a")


A, B, C = rx.Literal(97), rx.Literal(98), rx.Literal(99)
NO_CHARS = rx.CharClass(IntervalSet(()))
# leaves over a..c, with the two subterms that denote no word: Never and an
# empty class
regex_ast = st.recursive(
    st.one_of(st.builds(rx.Literal, st.integers(97, 99)),
              st.tuples(st.integers(97, 99), st.integers(0, 2)).map(
                  lambda t: rx.CharClass(IntervalSet.from_pairs((t[0], t[0] + t[1])))),
              st.sampled_from([rx.AnyChar(), rx.Epsilon(), rx.Never(), NO_CHARS])),
    lambda inner: st.one_of(
        st.lists(inner, min_size=1, max_size=3).map(lambda xs: rx.Concat(tuple(xs))),
        st.lists(inner, min_size=1, max_size=3).map(lambda xs: rx.Union(tuple(xs))),
        st.builds(rx.Star, inner), st.builds(rx.Plus, inner), st.builds(rx.Opt, inner)),
    max_leaves=12)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(regex_ast)
@example(rx.Union((rx.Concat((A, rx.Never())), B)))
@example(rx.Plus(rx.Concat((A, rx.Star(B), rx.Never()))))
@example(rx.Star(rx.Never()))
@example(NO_CHARS)
def test_compile_matches_the_two_pass_reference(ast):
    # dropping what denotes no word inside the one pass gives what rewriting
    # it away first gives: the same states, names, transitions and trim flag
    a, ref = rx.compile(ast), compile_reference(ast)
    assert dump(a) == dump(ref)
    assert a.trim == ref.trim


# the same leaves without the two that denote no word, as the regex parser
# makes them
word_ast = st.recursive(
    st.one_of(st.builds(rx.Literal, st.integers(97, 99)),
              st.tuples(st.integers(97, 99), st.integers(0, 2)).map(
                  lambda t: rx.CharClass(IntervalSet.from_pairs((t[0], t[0] + t[1])))),
              st.sampled_from([rx.AnyChar(), rx.Epsilon()])),
    lambda inner: st.one_of(
        st.lists(inner, min_size=1, max_size=3).map(lambda xs: rx.Concat(tuple(xs))),
        st.lists(inner, min_size=1, max_size=3).map(lambda xs: rx.Union(tuple(xs))),
        st.builds(rx.Star, inner), st.builds(rx.Plus, inner), st.builds(rx.Opt, inner)),
    max_leaves=12)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(word_ast)
@example(rx.Star(rx.Union((A, B, rx.Star(rx.Union((A, B)))))))
# a dropped subterm's links stop counting when it is dropped
@example(rx.Union((rx.Concat((rx.Star(rx.Union((A, B, C))), rx.Never())),
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
    chain = rx.compile(rx.parse_regex("a" * 3000), budget)
    assert budget.checked == [1022, 2046]
    assert len(chain.transitions) == 3000
    # (c0|...|c399)*: 400 positions, each followed by all 400. Linking offers
    # 400 entries per position, so a check follows every 82nd position's
    # (past PAIR_STRIDE entries), and building the rows checks every 82 rows
    star = rx.Star(rx.Union(tuple(rx.Literal(0x100 + i) for i in range(400))))
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


def test_sigma_star_canonical_form():
    ss = rx.sigma_star()
    assert len(ss.states) == 1 and len(ss.transitions) == 1
    assert ss.initial == ss.accepting == set(ss.states)
    assert ss.rows == (((FULL.lo, FULL.hi, 0),),)
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
        chars = IntervalSet.from_pairs((a, b))
        comp = rx.CharClass(chars.complement())
        auto = rx.compile(comp)
        for cp in (0, a - 1, a, (a + b) // 2, b, b + 1, 300, MAX_CODEPOINT):
            if cp < 0:
                continue
            assert accepts(auto, chr(cp)) == (not any(p.lo <= cp <= p.hi for p in chars.parts))
