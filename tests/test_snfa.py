import gc
import importlib
import random
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (DEFAULT_ISO_CAP, LEMMA_ALPHABET, CountingBudget, accepts_reference,
                     compile_pattern, concat_reference, isomorphic, product_reference,
                     random_regex, random_snfa, remove_unreachable, some_word_reference,
                     split_word_scan, words_upto)
from oracle import Bound, concat_lang, oracle_lang, word_in
from strsolve.errors import ResourceLimitError
from strsolve.intervals import MAX_CODEPOINT
from strsolve.regex import Star, char, compile, length_automaton, sigma_star, word_automaton
from strsolve.snfa import (SNfa, accepts, concat, dump, is_empty, product, set_validation,
                           snfa, some_word, split_word, to_dot, validate)
from strsolve import solver
from strsolve.constraints import make_problem
from strsolve.solver import Budget, forward_prop

WORDS6 = words_upto(LEMMA_ALPHABET, 6)
SNFA_MODULE = importlib.import_module("strsolve.snfa")  # the package attribute is the constructor


def test_accepts_examples():
    ab = word_automaton("ab")
    assert accepts(ab, "ab")
    assert not accepts(ab, "")
    a = compile_pattern("[a-c]+")
    for w in words_upto((97, 100), 3):
        assert accepts(a, w) == word_in(a, w)  # brute-force path enumeration
    assert accepts(a, "cab")


def test_concat_examples():
    just_ab = concat(word_automaton("a"), word_automaton("b"))
    assert {w for w in WORDS6 if accepts(just_ab, w)} == {"ab"}

    eps_or_a = compile_pattern("a?")
    got = concat(eps_or_a, word_automaton("b"))
    assert {w for w in words_upto((97, 98), 2) if accepts(got, w)} == {"b", "ab"}

    two_sigma = concat(sigma_star(), sigma_star())
    assert (len(two_sigma.states), len(two_sigma.transitions)) == (2, 3)


def test_product_examples():
    a = compile_pattern("(a|b)c*")
    against_sigma = product(sigma_star(), a)
    for w in words_upto((97, 99), 4):
        assert accepts(against_sigma, w) == accepts(a, w)

    even = product(compile_pattern("a+"), compile_pattern("(aa)*"))
    expected = {"a" * n for n in range(2, 9, 2)}
    assert {w for w in words_upto((97, 97), 8) if accepts(even, w)} == expected

    disjoint = product(word_automaton("a"), word_automaton("b"))
    assert not disjoint.accepting and is_empty(disjoint)


def test_product_sweep_keeps_an_entry_a_later_label_meets():
    # a1's row has two labels and one target, so product sweeps a2's row
    # once per label. The sweep may skip [95,96] for "a" only while an entry
    # before it is still left: [90,100] also meets "c". Skipping past it
    # drops "c", which no random suite finds
    a1 = snfa([[(97, 97, 1), (99, 99, 1)], []], {0}, {1})
    a2 = snfa([[(90, 100, 1), (95, 96, 2), (97, 97, 3)], [], [], []], {0}, {1, 2, 3})
    p = product(a1, a2)
    assert [w for w in ("", "a", "b", "c") if word_in(p, w)] == ["a", "c"]
    assert oracle_lang(p, Bound(2, ((97, 99),))) == {"a", "c"}


def test_remove_unreachable():
    q0, q1, orphan = 0, 1, 2
    a = snfa([[(97, 97, q1)], [], []], {q0}, {q1, orphan})
    trimmed = remove_unreachable(a)
    assert trimmed.states == range(2)
    assert trimmed.accepting == frozenset({q1})
    assert remove_unreachable(trimmed) == trimmed

    only_orphan_accepts = snfa([[], []], {q0}, {1})
    assert not remove_unreachable(only_orphan_accepts).accepting

    # kept states keep their order, and their transitions follow them
    a = snfa([[(97, 97, 2)], [(98, 98, 0)], [(99, 99, 2)]], {0}, {2})
    trimmed = remove_unreachable(a)
    assert trimmed.accepting == frozenset({1})
    assert trimmed.rows == (((97, 97, 1),), ((99, 99, 1),))


def test_is_empty_examples():
    assert not is_empty(word_automaton("a"))
    assert is_empty(snfa([[]], {0}, ()))
    assert is_empty(snfa([[], [(97, 97, 1)]], {0}, {1}))  # accepting but unreachable
    assert is_empty(product(word_automaton("a"), word_automaton("b")))
    # brute force agrees on short words
    assert not any(accepts(product(word_automaton("a"), word_automaton("b")), w)
                   for w in words_upto((97, 98), 1))


def test_some_word_examples():
    assert some_word(word_automaton("ab")) == "ab"
    assert some_word(snfa([[]], {0}, ())) is None
    assert some_word(snfa([[], [(97, 97, 1)]], {0}, {1})) is None
    assert some_word(compile_pattern("[b-d]x*")) == "b"
    a = compile_pattern("(aaa|bb)")
    w = some_word(a)
    assert w == "bb" and accepts(a, w)  # BFS finds a minimal-length witness


def test_split_word_examples():
    astar, b = compile_pattern("a*"), compile_pattern("b")
    assert split_word(astar, b, "aab") == ("aa", "b")
    one_a = compile_pattern("a")
    assert split_word(one_a, one_a, "aaa") is None
    aplus = compile_pattern("a+")
    got = split_word(aplus, aplus, "aaa")
    assert got == ("a", "aa")  # shortest first part wins
    w1, w2 = got
    assert w1 + w2 == "aaa" and accepts(aplus, w1) and accepts(aplus, w2)


def test_split_word_matches_prefix_scan():
    rng = random.Random(505)
    eps, never = word_automaton(""), snfa([[]], {0}, ())
    pairs = [(eps, eps), (eps, compile_pattern("[a-d]*")), (compile_pattern("a*"), eps),
             (never, eps), (eps, never)]
    pairs += [(random_snfa(rng), random_snfa(rng)) for _ in range(10)]
    seen = {"none": 0, "eps1": 0, "eps2": 0, "split": 0}
    for a1, a2 in pairs:
        for w in WORDS6:
            got = split_word(a1, a2, w)
            assert got == split_word_scan(a1, a2, w), (dump(a1), dump(a2), w)
            if got is None:
                seen["none"] += 1
            elif got[0] == "" and w:
                seen["eps1"] += 1
            elif got[1] == "" and w:
                seen["eps2"] += 1
            else:
                seen["split"] += 1
    assert all(seen.values()), seen
    assert any(len(a1.initial) > 1 and len(a2.initial) > 1 for a1, a2 in pairs)


class CountedWord(str):
    """A word that counts the positions read from it: the simulation reads
    w[i] once per position it simulates, walked or stepped."""

    reads = 0

    def __getitem__(self, key):
        if isinstance(key, int):
            self.reads += 1
        return str.__getitem__(self, key)


def _positions_read(a1: SNfa, a2: SNfa, w: str) -> tuple[object, int]:
    """split_word(a1, a2, w) and the number of positions of w it read."""
    counted = CountedWord(w)
    return split_word(a1, a2, counted), counted.reads


def test_split_word_memo_skips_failed_runs():
    # a1 = a* offers a cut at every position of a^n b; a2 = a*c|b fails from
    # each of them until the last, and every failed run after the first is
    # cut short at its first step by the pairs the first one left dead
    n = 400
    w = "a" * n + "b"
    a1, a2 = compile_pattern("a*"), compile_pattern("a*c|b")
    got, reads = _positions_read(a1, a2, w)
    assert got == ("a" * n, "b")
    assert reads <= 4 * (n + 1)  # the prefix scan takes about n * n / 2
    assert split_word(a1, a2, w[:60]) == split_word_scan(a1, a2, w[:60]) is None

    # a2 = a{k}b: the cuts before n - k fail after k + 1 steps each
    k = 7
    a_k_b = word_automaton("a" * k + "b")
    assert split_word(a1, a_k_b, w) == ("a" * (n - k), "a" * k + "b")
    for m in range(k + 3):
        v = "a" * m + "b"
        assert split_word(a1, a_k_b, v) == split_word_scan(a1, a_k_b, v)

    # a2 = (ab)+ as one-transition states 0 -a-> 1 -b-> 2 -a-> 1, which runs
    # walk: every even cut fails at the final c. The scan of a1 reads each
    # position once, the first failed run twice (once more to list the pairs
    # it walked) and each later run one, since the first left its pairs
    # dead; without the memo the runs read about |v| * |v| / 4
    ab_plus = snfa([[(97, 97, 1)], [(98, 98, 2)], [(97, 97, 1)]], {0}, {2})
    v = "ab" * n + "c"
    got, reads = _positions_read(sigma_star(), ab_plus, v)
    assert got is None and split_word_scan(sigma_star(), ab_plus, v[-9:]) is None
    assert reads <= 5 * len(v)


def test_split_word_tries_each_cut_when_it_is_found():
    # every position is a cut of the all-words automaton, and the first wins:
    # the scan of a1 reads no position of w, the run of a2 reads each once
    w = "xy" * 2500
    got, reads = _positions_read(sigma_star(), sigma_star(), w)
    assert got == ("", w)
    assert reads == len(w)
    # the first cut of a1 = a^3 Σ* is 3: its scan reads 3 positions, not |w|
    got, reads = _positions_read(length_automaton(">=", 3), word_automaton(w[3:]), w)
    assert got == (w[:3], w[3:])
    assert reads == len(w)


# The simulation walks one-transition chains without state sets. It must
# agree with the set-based reference in helpers on the chains that string
# equations produce (length, word and all-words automata and their fused
# concatenations), on chains with a branching state, a dead end or an empty
# row in the middle, with labels at both ends of the code points, and with
# no initial state.

EDGE_CPS = (0, 1, 97, 98, MAX_CODEPOINT - 1, MAX_CODEPOINT)
edge_label = st.tuples(st.sampled_from(EDGE_CPS), st.sampled_from(EDGE_CPS)).map(
    lambda t: (min(t), max(t)))
edge_word = st.lists(st.sampled_from(EDGE_CPS), max_size=6).map(lambda cps: "".join(map(chr, cps)))


@st.composite
def equation_automaton(draw) -> SNfa:
    kind = draw(st.sampled_from(["length", "word", "all"]))
    if kind == "length":
        return length_automaton(draw(st.sampled_from(["<", "<=", "=", ">=", ">"])),
                                draw(st.integers(0, 5)))
    if kind == "word":
        return word_automaton(draw(edge_word))
    return sigma_star()


@st.composite
def broken_chain(draw) -> SNfa:
    """A chain of n one-transition states whose state k branches to any
    state, branches into a dead end, or has an empty row."""
    n = draw(st.integers(1, 7))
    rows = [[(*draw(edge_label), q + 1)] for q in range(n)] + [[]]
    k = draw(st.integers(0, n - 1))
    how = draw(st.sampled_from(["branch", "dead end", "empty row"]))
    if how == "branch":
        rows[k].append((*draw(edge_label), draw(st.integers(0, n))))
    elif how == "dead end":
        rows[k].append((*draw(edge_label), n + 1))
        rows.append([])
    else:
        rows[k] = []
    states = st.sets(st.integers(0, len(rows) - 1), max_size=3)
    return snfa(rows, draw(states), draw(states))  # either set may be empty


chain_heavy = st.one_of(
    equation_automaton(),
    st.builds(concat, equation_automaton(), equation_automaton()),
    broken_chain(),
    st.builds(concat, broken_chain(), equation_automaton()))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(chain_heavy, chain_heavy, edge_word, edge_word)
@example(sigma_star(), word_automaton("\x00\U0010ffff"), "", "\U0010ffff")
@example(length_automaton(">=", 2), concat(word_automaton("a"), length_automaton("=", 2)),
         "\x01", "b")
@example(snfa([[(0, MAX_CODEPOINT, 1)], [(97, 97, 2)], [(0, 0, 0), (0, 0, 3)], []], (), {3}),
         sigma_star(), "a", "")
@example(snfa([[(97, 97, 1)], [(98, 98, 0), (98, 98, 2)], [(0, 0, 2)]], {0}, {0, 2}),
         snfa([[(97, 97, 1)], [(98, 98, 0)]], {0}, {0}), "ab", "\x00")
@example(snfa([[(97, 97, 1)], [(97, 97, 2)], [(97, 97, 3)], [(98, 98, 4)], []], {0, 3}, {2, 4}),
         sigma_star(), "aa", "b")  # BFS reaches 4 from 3 before 2 from 0
@example(snfa([[(97, 97, 1)], [(98, 98, 2)], []], {0, 1}, {2}),
         sigma_star(), "a", "")  # seed 1 stays a seed when 0 reaches it: "b", not "ab"
@example(snfa([[(97, 97, 1)], [(98, 98, 2)], [(99, 99, 1)], []], {0}, {3}),
         sigma_star(), "abcb", "")  # some_word's chain walk meets 1 again
def test_simulation_matches_the_set_based_reference(a1, a2, x, y):
    for a in (a1, a2):
        assert some_word(a) == some_word_reference(a), dump(a)
    u, v = some_word_reference(a1) or "", some_word_reference(a2) or ""
    for w in {u + v, x + u + v, u + x + v, u + v + y, x + y, u + x + y + v}:
        for a in (a1, a2):
            assert accepts(a, w) == accepts_reference(a, w), (dump(a), w)
        assert split_word(a1, a2, w) == split_word_scan(a1, a2, w), (dump(a1), dump(a2), w)


def test_isomorphic_examples():
    a = compile_pattern("a(b|c)")
    assert isomorphic(a, a)
    last = len(a.rows) - 1  # the same automaton with its states numbered backwards
    backwards = snfa([[(lo, hi, last - d) for lo, hi, d in row] for row in reversed(a.rows)],
                     {last - q for q in a.initial}, {last - q for q in a.accepting})
    assert backwards != a and isomorphic(a, backwards)
    assert not isomorphic(compile_pattern("a"), compile_pattern("b"))
    # equal language, different shape
    assert not isomorphic(compile_pattern("aa*"), compile_pattern("a+"))
    with pytest.raises(ResourceLimitError):
        isomorphic(word_automaton("x" * 20), word_automaton("x" * 20))


def test_dump_and_dot_shapes():
    a = word_automaton("ab")
    text = dump(a)
    assert text.splitlines()[0] == "snfa trim=1 states=3 initial=1 accepting=1 transitions=2"
    assert "t 0:0 -> 1:0 [97,97]" in text
    dot = to_dot(a)
    assert 'label="97-97"' in dot and "doublecircle" in dot


def assert_documented_dump_order(a: SNfa) -> None:
    """docs/dump-format.md: `q` lines sorted by (id, tag), `t` lines in
    sorted (src, label, dst) order, no duplicate lines."""
    def state(text: str) -> tuple[int, int]:
        i, tag = text.split(":")
        return int(i), int(tag)

    lines = dump(a).splitlines()
    qs = [state(line.split()[1]) for line in lines if line.startswith("q ")]
    ts = []
    for line in lines:
        if line.startswith("t "):
            _, src, _, dst, label = line.split()
            ts.append((state(src), tuple(map(int, label[1:-1].split(","))), state(dst)))
    assert (len(qs), len(ts)) == (len(a.states), len(a.transitions))
    assert all(x < y for x, y in zip(qs, qs[1:])), qs
    assert all(x < y for x, y in zip(ts, ts[1:])), ts


def test_dump_order_is_the_documented_one():
    rng = random.Random(606)
    for _ in range(60):
        a1, a2 = random_snfa(rng), random_snfa(rng)
        c, p = concat(a1, a2), product(a1, a2)
        cc = concat(c, p)
        # not trim: only the first initial state of a concatenation
        partial = SNfa(cc.rows, frozenset(sorted(cc.initial)[:1]), cc.accepting)
        for a in (c, p, cc, product(c, concat(a2, a1)), remove_unreachable(partial),
                  compile(random_regex(rng, rng.randint(0, 4)))):
            assert_documented_dump_order(a)
    for a in (word_automaton(""), word_automaton("abba"), sigma_star(),
              *(length_automaton(op, n) for op in ("<", "<=", "=", ">=", ">") for n in (0, 3))):
        assert_documented_dump_order(a)


# Property suites (small here; the full-size runs live in the acceptance tests)

def test_concat_matches_split_oracle():
    rng = random.Random(101)
    bound = Bound(6, (LEMMA_ALPHABET,))
    for _ in range(60):
        a1, a2 = random_snfa(rng), random_snfa(rng)
        c = concat(a1, a2)
        validate(c)
        assert c.trim
        expected = concat_lang(oracle_lang(a1, bound), oracle_lang(a2, bound), bound)
        assert oracle_lang(c, bound) == expected, (dump(a1), dump(a2))


def test_product_matches_membership_conjunction():
    rng = random.Random(202)
    for _ in range(60):
        a1, a2 = random_snfa(rng), random_snfa(rng)
        p = product(a1, a2)
        validate(p)
        assert p.trim
        for w in WORDS6:
            assert accepts(p, w) == (word_in(a1, w) and word_in(a2, w))


def test_ops_never_store_empty_labels_and_stay_trim():
    rng = random.Random(303)
    for _ in range(40):
        a1, a2 = random_snfa(rng), random_snfa(rng)
        for result in (concat(a1, a2), product(a1, a2)):
            assert all(lo <= hi for row in result.rows for lo, hi, _ in row)
            audit = remove_unreachable(result)
            assert audit.states == result.states  # BFS audit: already trim


def test_is_empty_iff_no_short_word():
    rng = random.Random(404)
    bound = Bound(5, (LEMMA_ALPHABET,))
    for _ in range(60):
        a = random_snfa(rng)
        # in a trim automaton the shortest witness is shorter than |Q|
        short = [w for w in words_upto(LEMMA_ALPHABET, len(a.states)) if accepts(a, w)]
        assert is_empty(a) == (not short)
        witness = some_word(a)
        assert (witness is None) == is_empty(a)
        if witness is not None:
            assert accepts(a, witness)
            assert word_in(a, witness)


def test_determinism_of_constructions():
    rng1, rng2 = random.Random(7), random.Random(7)
    for _ in range(20):
        a1, b1 = random_snfa(rng1), random_snfa(rng1)
        a2, b2 = random_snfa(rng2), random_snfa(rng2)
        assert dump(concat(a1, b1)) == dump(concat(a2, b2))
        assert dump(product(a1, b1)) == dump(product(a2, b2))


# Differential pin of `concat` and `product` against the reference kernels
# in helpers: the same rows, numbering and trim flag. `concat` numbers its
# states in discovery order, as the product of the all-words automaton with
# the reference concatenation does.

label = st.tuples(st.integers(97, 100), st.integers(0, 2)).map(
    lambda t: (t[0], min(t[0] + t[1], 100)))


@st.composite
def operand(draw) -> SNfa:
    """Chains (one entry per row), wide rows that repeat labels, or sparse
    random rows; with any initial and accepting sets, trimmed or not."""
    n = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(["chain", "wide", "sparse"]))
    if shape == "chain":
        rows = [[(*draw(label), draw(st.integers(0, n - 1)))] for _ in range(n)]
    elif shape == "wide":
        labels = draw(st.lists(label, min_size=1, max_size=2))
        rows = [[(*draw(st.sampled_from(labels)), draw(st.integers(0, n - 1)))
                 for _ in range(draw(st.integers(2, 6)))] for _ in range(n)]
    else:
        rows = [[(*draw(label), draw(st.integers(0, n - 1)))
                 for _ in range(draw(st.integers(0, 2)))] for _ in range(n)]
    states = st.sets(st.integers(0, n - 1), max_size=n)
    a = snfa(rows, draw(states), draw(states))
    return remove_unreachable(a) if draw(st.booleans()) else a


def _same_automaton(got: SNfa, ref: SNfa) -> None:
    assert dump(got) == dump(ref)
    assert got == ref  # rows, initial and accepting
    assert got.trim == ref.trim


CHAIN = snfa([[(97, 98, 1)], [(98, 99, 2)], [(97, 97, 0)]], {0}, {2})
WIDE = snfa([[(97, 97, 0), (97, 97, 1), (97, 98, 2), (97, 98, 0)], [(97, 97, 2)], []],
            {0, 1}, {2})
EPS = snfa([[(97, 97, 1)], [(98, 98, 0)], [(99, 99, 2)]], {0, 1}, {0, 1})  # accepts ε
NOTHING = snfa([[(97, 97, 1)], [(97, 97, 0)]], {0}, ())
# Untrimmed operands with more states than `operand` draws. Below 8 states a
# set of ints iterates in sorted order, but `list({1, 8}) == [8, 1]`, so
# concat must sort the reached states of FAR before numbering them.
FAR = snfa([[]] + [[(97, 97, 8)]] + [[]] * 7, {1}, ())
DEAD_END = snfa([[(97, 97, 1)], [(98, 98, 0)], [(99, 99, 2)]], {0}, {2})  # 2 unreachable
ORPHANS = snfa([[(97, 97, 2)], [(98, 98, 0)], [(99, 99, 2)], [(97, 97, 3)]], {0}, {2, 3})
# State 0 has a row of several entries on one label, [97, 98], which product
# meets with each a2 row once. Against OVERLAPPING the first two entries of
# state 0 both meet it in (97, 98, 1), and the copy must be dropped; against
# MISSES no entry meets it.
ONE_LABEL = snfa([[(97, 98, 0), (97, 98, 1), (97, 98, 2)], [(97, 97, 2)], []], {0}, {1, 2})
OVERLAPPING = snfa([[(97, 98, 1), (97, 99, 1), (98, 100, 0)], [(97, 97, 0)]], {0}, {1})
MISSES = snfa([[(95, 96, 1), (99, 100, 0)], [(97, 98, 0)]], {0}, {1})
SEVERAL_ENTRIES = snfa([[(97, 97, 1)], [(98, 98, 2)], [(97, 99, 0)]], {0, 1, 2}, {2})
# Every row of REUSE carries the one label [97, 98], and product builds the
# run of each a1 target once per (label, a2 state): against LOOP the pair
# states (1, 0) and (2, 0) reuse the runs of targets 1 and 2 that (0, 0)
# built. TWICE's state 0 meets the label in (97, 98, 0) twice, and every
# run with it holds one copy.
REUSE = snfa([[(97, 98, 1), (97, 98, 2)], [(97, 98, 1), (97, 98, 2)],
              [(97, 98, 0), (97, 98, 2)]], {0}, {2})
LOOP = snfa([[(97, 97, 0), (98, 98, 0)]], {0}, {0})
TWICE = snfa([[(97, 98, 0), (97, 99, 0), (98, 98, 1)], [(97, 97, 0)]], {0}, {1})
# Each pair state of STRIDED and MANY_HITS pairs 2 a1 entries with 16 400
# hits, more row pairs than PAIR_STRIDE, so product walks its a1 entries in
# strides (`_strided`), and the second one reuses both runs in that walk.
STRIDED = snfa([[(0, 20_000, 0), (0, 20_000, 1)]] * 2, {0}, {1})
MANY_HITS = snfa([[(c, c, 0) for c in range(16_400)]], {0}, {0})
# Both rows of TARGET_TWICE go to one target on the labels [97, 99] and
# [98, 100], which both meet ONE_ENTRY_LOOP's entry in (98, 98, 0): the hits
# keep one copy, and the pair state (1, 0) builds its run from the hits that
# (0, 0) met. SPREAD's one-target rows sweep BLOCKED's row, whose first
# entry [96, 100] meets every label of SPREAD: the sweep cannot skip it, nor
# the entries after it that end below 99.
TARGET_TWICE = snfa([[(97, 99, 1), (98, 100, 1)], [(97, 99, 0), (98, 100, 0)]], {0}, {1})
ONE_ENTRY_LOOP = snfa([[(98, 98, 0)]], {0}, {0})
SPREAD = snfa([[(97, 97, 1), (99, 99, 1), (100, 100, 1)],
               [(97, 97, 0), (99, 99, 0), (100, 100, 0)]], {0}, {1})
BLOCKED = snfa([[(96, 100, 0), (97, 97, 1), (98, 98, 1), (101, 102, 0)], [(97, 99, 0)]],
               {0}, {0, 1})
# One entry against a row of character classes, and a mixed row (two labels,
# two targets) against the same row.
ONE_ENTRY = snfa([[(97, 122, 1)], []], {0}, {1})
MIXED = snfa([[(97, 97, 1), (98, 104, 2), (110, 111, 1)], [], [(48, 57, 0)]], {0}, {1, 2})
CLASSES = snfa([[(48, 57, 0), (65, 90, 1), (97, 97, 1), (98, 99, 0), (100, 120, 1)],
                [(97, 122, 0)]], {0}, {0, 1})


@settings(derandomize=True, max_examples=400, deadline=None)
@given(operand(), operand(), st.booleans())
@example(CHAIN, remove_unreachable(CHAIN), False)
@example(remove_unreachable(CHAIN), remove_unreachable(CHAIN), True)
@example(WIDE, remove_unreachable(WIDE), True)
@example(remove_unreachable(EPS), remove_unreachable(WIDE), False)
@example(EPS, CHAIN, True)
@example(remove_unreachable(NOTHING), remove_unreachable(CHAIN), False)
@example(FAR, CHAIN, False)
@example(FAR, WIDE, True)
@example(EPS, FAR, False)
@example(DEAD_END, remove_unreachable(CHAIN), False)
@example(DEAD_END, ORPHANS, True)
@example(remove_unreachable(EPS), ORPHANS, False)
@example(remove_unreachable(CHAIN), ORPHANS, True)
@example(ONE_LABEL, OVERLAPPING, False)
@example(ONE_LABEL, OVERLAPPING, True)
@example(ONE_LABEL, MISSES, True)
@example(ONE_LABEL, SEVERAL_ENTRIES, True)
@example(REUSE, LOOP, False)
@example(REUSE, TWICE, True)
@example(STRIDED, MANY_HITS, True)
@example(TARGET_TWICE, ONE_ENTRY_LOOP, False)
@example(SPREAD, BLOCKED, True)
@example(ONE_ENTRY, CLASSES, False)
@example(MIXED, CLASSES, True)
def test_concat_and_product_match_the_reference_kernels(a1, a2, budgeted):
    def budget() -> Budget:
        return Budget(max_transitions=10 ** 9, deadline=time.monotonic() + 3600) \
            if budgeted else Budget()

    _same_automaton(concat(a1, a2, budget()),
                    product_reference(sigma_star(), concat_reference(a1, a2), budget()))
    _same_automaton(product(a1, a2, budget()), product_reference(a1, a2, budget()))


def test_product_matches_the_reference_kernel_on_every_doubling_step(monkeypatch):
    # forward propagation of x = xi ++ xi: every product meets rows whose
    # entries all carry the full range, the benchmark's own shape
    steps = []

    def checked(a1: SNfa, a2: SNfa, budget: Budget) -> SNfa:
        got = product(a1, a2, budget)
        assert dump(got) == dump(product_reference(a1, a2, budget))
        steps.append(len(got.transitions))
        return got

    monkeypatch.setattr(solver, "product", checked)
    names = ["x"] + [f"x{i}" for i in range(1, 9)]
    forward_prop(make_problem(names, {"x": {(f"x{i}", f"x{i}") for i in range(1, 9)}}))
    assert steps == [3 ** k for k in range(2, 9)]


# Peak bytes traced per pair state while `product` builds the chain below,
# 20 % above the largest reading without pytest on CPython 3.11.7, 3.12.1 and
# 3.13.0 (226 on each).
PRODUCT_PEAK_BYTES_PER_STATE = 271


def test_product_peak_bytes_per_pair_state_stay_bounded():
    # on chains the bytes go with the states, which the transition cap
    # bounds only as far as one state costs a bounded number of bytes
    a1 = word_automaton("a" * 160)
    a2 = concat(compile(Star(char(97))), word_automaton("a" * 80))
    # the validator's own sets are not the product's; the autouse fixture
    # turns it back on
    set_validation(False)
    gc.collect()
    tracemalloc.start()
    try:
        got = product(a1, a2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(got.rows) == 9962
    assert peak / len(got.rows) < PRODUCT_PEAK_BYTES_PER_STATE


# Peak bytes traced per transition while `product` builds the ninth
# doubling step below, 20 % above the reading without pytest on CPython
# 3.11.7 (20.0).
DOUBLING_PEAK_BYTES_PER_TRANSITION = 24


def test_doubling_product_peak_bytes_per_transition_stay_bounded():
    # every row of a1 is a label set of one label, the full range: the pair
    # states that meet it with one a2 state share the runs of its targets
    step = concat(sigma_star(), sigma_star())
    a1 = step
    for _ in range(7):
        a1 = product(a1, step)
    set_validation(False)
    gc.collect()
    tracemalloc.start()
    try:
        got = product(a1, step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(got.rows), len(got.transitions)) == (2 ** 9, 3 ** 9)
    assert peak / len(got.transitions) < DOUBLING_PEAK_BYTES_PER_TRANSITION


def _counted_meets(monkeypatch) -> list[int]:
    """A list that grows by one each time product meets the label set of a
    shaped row of a1 with a row of a2."""
    meets: list[int] = []

    class Labels(tuple):
        def __iter__(self):  # product walks the labels of a shape once per meet
            meets.append(1)
            return tuple.__iter__(self)

    def counted(r1, sigs, n2, shape=SNFA_MODULE._shape):
        got = shape(r1, sigs, n2)
        return got and (got[0], Labels(got[1]), got[2])

    monkeypatch.setattr(SNFA_MODULE, "_shape", counted)
    return meets


# two states of wide rows that swap on every character
WIDE_SWAP = snfa([[(c, c, 1) for c in range(40, 130, 3)],
                  [(c, c, 0) for c in range(40, 130, 3)]], {0}, {0, 1})


def test_one_target_rows_meet_each_label_set_and_a2_state_once(monkeypatch):
    # a chain of 20 states whose rows all go to the next state on the same
    # three classes, against WIDE_SWAP: 20 pair states, but only the label
    # set against state 0 and against state 1 to meet
    meets = _counted_meets(monkeypatch)
    classes = [(48, 57), (65, 90), (97, 122)]
    a1 = SNfa(tuple(tuple((lo, hi, p + 1) for lo, hi in classes) for p in range(20)) + ((),),
              frozenset({0}), frozenset({20}))
    got = product(a1, WIDE_SWAP)
    assert len(got.rows) == 21 and not is_empty(got)
    assert len(meets) == 2
    _same_automaton(got, product_reference(a1, WIDE_SWAP))


def test_one_label_rows_meet_each_label_and_a2_state_once(monkeypatch):
    # a chain of 20 states whose rows all go to the next two states on the
    # same label, against WIDE_SWAP: 42 pair states, but only the label
    # against state 0 and against state 1 to meet
    meets = _counted_meets(monkeypatch)
    a1 = SNfa(tuple(((32, 126, p + 1), (32, 126, p + 2)) for p in range(20)) + ((),) * 2,
              frozenset({0}), frozenset({21}))
    got = product(a1, WIDE_SWAP)
    assert len(got.rows) == 42 and not is_empty(got)
    assert len(meets) == 2
    _same_automaton(got, product_reference(a1, WIDE_SWAP))


def test_two_wide_rows_meet_in_linear_reads():
    # one pair state of two 60-class one-target rows, a1's [4i, 4i+1]
    # against a2's [4i+1, 4i+2]: each class meets one other, at 4i+1. The
    # sweep reads each a2 entry that ends below a class of a1 once, not once
    # per later class: at most |r1| + |r2| + hits entries of a2
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

    n = 60
    a1 = SNfa((tuple((4 * i, 4 * i + 1, 1) for i in range(n)), ()),
              frozenset({0}), frozenset({1}))
    a2 = SNfa((CountedRow((4 * i + 1, 4 * i + 2, 1) for i in range(n)), CountedRow()),
              frozenset({0}), frozenset({1}))
    reads[0] = 0  # building a2 may have read it, under validation
    got = product(a1, a2)
    hits = len(got.rows[0])
    assert hits == n
    assert reads[0] <= n + n + hits
    _same_automaton(got, product_reference(a1, a2))


# Two a-transitions of state 0 into accepting states: both bridge to a2's
# initial states on the same label, and the copies must be dropped.
DUPLICATE_BRIDGE = snfa([[(97, 97, 1), (97, 97, 2), (98, 98, 1)], [(99, 99, 2)], []],
                        {0}, {1, 2})


@settings(derandomize=True, max_examples=400, deadline=None)
@given(operand(), operand())
@example(DUPLICATE_BRIDGE, SEVERAL_ENTRIES)
@example(DUPLICATE_BRIDGE, remove_unreachable(CHAIN))
@example(EPS, SEVERAL_ENTRIES)
@example(remove_unreachable(EPS), WIDE)
@example(CHAIN, EPS)
@example(FAR, CHAIN)
@example(DEAD_END, ORPHANS)
@example(ORPHANS, DEAD_END)
@example(NOTHING, CHAIN)
@example(CHAIN, NOTHING)
@example(EPS, NOTHING)
@example(snfa([[]], {0}, {0}), snfa([[]], {0}, {0}))
def test_concat_is_the_product_of_all_words_and_the_reference_concatenation(a1, a2):
    # DEAD_END and FAR reach no accepting state of their own, NOTHING has
    # none; EPS accepts the empty word; WIDE, EPS and SEVERAL_ENTRIES have
    # several initial states; FAR, DEAD_END and ORPHANS are not trimmed
    got = concat(a1, a2)
    _same_automaton(got, product_reference(sigma_star(), concat_reference(a1, a2)))
    assert got.trim
    # the shortcut of `forward_prop`: a product with all words changes nothing
    _same_automaton(product(sigma_star(), got), got)


WORDS4 = words_upto(LEMMA_ALPHABET, 4)
# A variable with a language of its own refines to product(a, concat(r1,
# r2)). `concat` numbers its states in discovery order, not in the reference's
# key order, so where a row repeats a label with several targets the product
# can discover its pairs in another order: here the three c-targets of state
# 1 come in another order, and the accepting one is 2, not 3.
RENUMBERED = (word_automaton("c"),
              snfa([[(99, 100, 0)], [(99, 100, 1), (99, 100, 2)], [(99, 100, 0), (99, 100, 1)]],
                   {2}, {0, 2}),
              word_automaton(""))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(operand(), operand(), operand())
@example(*RENUMBERED)
@example(EPS, WIDE, ONE_LABEL)
@example(remove_unreachable(CHAIN), DUPLICATE_BRIDGE, EPS)
def test_refinement_matches_the_reference_up_to_numbering(a, r1, r2):
    got = product(a, concat(r1, r2))
    ref = product_reference(a, concat_reference(r1, r2))
    assert ((len(got.states), len(got.transitions), len(got.initial), len(got.accepting),
             got.trim) == (len(ref.states), len(ref.transitions), len(ref.initial),
                           len(ref.accepting), ref.trim))
    for w in WORDS4:
        assert accepts(got, w) == accepts_reference(ref, w), (dump(a), dump(r1), dump(r2), w)
    if len(got.states) <= DEFAULT_ISO_CAP:
        assert isomorphic(got, ref)
    if (a, r1, r2) == RENUMBERED:
        assert got != ref


def test_concat_stops_inside_under_the_budget():
    a1, a2 = word_automaton("a" * 3000), compile_pattern("(b|c)*d")
    late = CountingBudget(deadline=time.monotonic() - 1)
    with pytest.raises(ResourceLimitError, match="time"):
        concat(a1, a2, late)
    assert late.checked == [0]  # stopped before it built any state

    capped = CountingBudget(max_transitions=1000)
    with pytest.raises(ResourceLimitError, match="automaton grew past 1000 transitions"):
        concat(a1, a2, capped)
    assert capped.checked == [0, 1001]  # stopped at the first state past it

    # one state whose 1000 loops all enter an accepting state: its row,
    # bridged into a2, holds 2000 transitions
    loops = snfa([[(cp, cp, 0) for cp in range(1000)]], {0}, {0})
    capped = CountingBudget(max_transitions=1000)
    with pytest.raises(ResourceLimitError, match="automaton grew past 1000 transitions"):
        concat(loops, word_automaton("a"), capped)
    assert capped.checked == [0, 2000]
