import importlib
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (LEMMA_ALPHABET, compile_pattern, concat_reference, isomorphic,
                     product_reference, random_regex, random_snfa, remove_unreachable, rename,
                     split_word_scan, words_upto)
from oracle import Bound, word_in
from strsolve.errors import ResourceLimitError
from strsolve.regex import compile, length_automaton, sigma_star, word_automaton
from strsolve.snfa import (SNfa, accepts, concat, dump, is_empty, product, snfa,
                           some_word, split_word, to_dot, validate)
from strsolve.solver import Budget

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


def test_rename_disjoint_tags_and_language():
    a = compile_pattern("a(b|c)*")
    r1, r2 = rename(a, 1), rename(a, 2)
    assert not set(map(r1.name, r1.states)) & set(map(r2.name, r2.states))
    for w in words_upto((97, 99), 3):
        assert accepts(r1, w) == accepts(a, w) == accepts(r2, w)
    empty = snfa((), (), ())
    assert rename(empty, 2) == empty


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


def test_remove_unreachable():
    q0, q1, orphan = 0, 1, 2
    a = snfa([[(97, 97, q1)], [], []], {q0}, {q1, orphan})
    trimmed = remove_unreachable(a)
    assert trimmed.states == range(2)
    assert trimmed.accepting == frozenset({q1})
    assert remove_unreachable(trimmed) == trimmed

    only_orphan_accepts = snfa([[], []], {q0}, {1})
    assert not remove_unreachable(only_orphan_accepts).accepting

    # kept states keep their names, and their transitions follow them
    a = snfa([[(97, 97, 2)], [(98, 98, 0)], [(99, 99, 2)]], {0}, {2})
    trimmed = remove_unreachable(a)
    assert [trimmed.name(q) for q in trimmed.states] == ["0:0", "2:0"]
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


def test_split_word_memo_skips_failed_runs(monkeypatch):
    # a1 = a* offers a cut at every position of a^n b; a2 = a*c|b fails from
    # each of them until the last, and every failed run after the first is
    # cut short at its first step by the pairs the first one left dead
    n = 400
    w = "a" * n + "b"
    a1, a2 = compile_pattern("a*"), compile_pattern("a*c|b")
    steps = []
    step = SNFA_MODULE._step
    monkeypatch.setattr(SNFA_MODULE, "_step",
                        lambda out, cur, cp: steps.append(cp) or step(out, cur, cp))
    assert split_word(a1, a2, w) == ("a" * n, "b")
    assert len(steps) <= 4 * (n + 1)  # the prefix scan takes about n * n / 2
    monkeypatch.undo()
    assert split_word(a1, a2, w[:60]) == split_word_scan(a1, a2, w[:60]) is None

    # a2 = a{k}b: the cuts before n - k fail after k + 1 steps each
    k = 7
    a_k_b = word_automaton("a" * k + "b")
    assert split_word(a1, a_k_b, w) == ("a" * (n - k), "a" * k + "b")
    for m in range(k + 3):
        v = "a" * m + "b"
        assert split_word(a1, a_k_b, v) == split_word_scan(a1, a_k_b, v)


def test_isomorphic_examples():
    a = compile_pattern("a(b|c)")
    assert isomorphic(a, rename(a, 2))
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
        # not trim: only the first initial state of a tagged concatenation
        partial = SNfa(cc.rows, frozenset(sorted(cc.initial)[:1]), cc.accepting, cc.names)
        for a in (c, p, cc, product(c, concat(a2, a1)), remove_unreachable(partial),
                  compile(random_regex(rng, rng.randint(0, 4)))):
            assert_documented_dump_order(a)
    for a in (word_automaton(""), word_automaton("abba"), sigma_star(),
              *(length_automaton(op, n) for op in ("<", "<=", "=", ">=", ">") for n in (0, 3))):
        assert_documented_dump_order(a)


# Property suites (small here; the full-size runs live in the acceptance tests)

def test_concat_matches_split_oracle():
    rng = random.Random(101)
    for _ in range(60):
        a1, a2 = random_snfa(rng), random_snfa(rng)
        c = concat(a1, a2)
        validate(c)
        assert c.trim
        for w in WORDS6:
            expected = any(word_in(a1, w[:i]) and word_in(a2, w[i:])
                           for i in range(len(w) + 1))
            assert accepts(c, w) == expected, (dump(a1), dump(a2), w)


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
    bound = Bound(5, __import__("strsolve").IntervalSet.from_pairs(LEMMA_ALPHABET))
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
# in helpers: the same rows, numbering, names (as integers) and trim flag.

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
    assert got == ref  # rows, initial, accepting and names
    assert got.trim == ref.trim
    assert got.names is None or all(type(nm) is int for nm in got.names)


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
def test_concat_and_product_match_the_reference_kernels(a1, a2, budgeted):
    def budget() -> Budget:
        return Budget(max_transitions=10 ** 9, deadline=time.monotonic() + 3600) \
            if budgeted else Budget()

    _same_automaton(concat(a1, a2, budget()), concat_reference(a1, a2, budget()))
    _same_automaton(product(a1, a2, budget()), product_reference(a1, a2, budget()))


def test_concat_of_trim_operands_reads_each_row_once():
    reads: dict[tuple[int, int], int] = {}

    class CountedRows(tuple):
        side = 0

        def __getitem__(self, q):
            reads[self.side, q] = reads.get((self.side, q), 0) + 1
            return tuple.__getitem__(self, q)

    def counted(a: SNfa, side: int) -> SNfa:
        rows = CountedRows(a.rows)
        rows.side = side
        return SNfa(rows, a.initial, a.accepting, a.names, a.trim)

    a1, a2 = word_automaton("ab"), compile_pattern("(c|d)*e")
    for x, y in ((a1, a2), (compile_pattern("a*"), a2), (a2, a1)):
        c1, c2 = counted(x, 1), counted(y, 2)
        reads.clear()
        got = concat(c1, c2)
        assert got == concat_reference(x, y)
        assert reads == {(side, q): 1 for side, a in ((1, x), (2, y)) for q in a.states}
