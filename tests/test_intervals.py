import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import sem
from oracle import Bound
from strsolve.errors import ResourceLimitError
from strsolve.intervals import FULL, MAX_CODEPOINT, Interval, IntervalSet

def test_sem_examples():
    assert sem(Interval(97, 99)) == {97, 98, 99}
    assert sem(Interval(5, 4)) == frozenset()
    assert sem(Interval(65, 65)) == {65}


def test_sem_refuses_large_enumeration():
    with pytest.raises(ResourceLimitError):
        sem(FULL)
    assert len(sem(Interval(0, 2 ** 16 - 1))) == 2 ** 16  # exactly at the cap


def test_empty_canonical_form():
    assert Interval(5, 2) == Interval(9, 0) == Interval(1, 0)
    assert repr(Interval(5, 2)) == "[1,0]"
    assert repr(Interval(97, 122)) == "[97,122]"


# IntervalSet against brute-force sets on a byte-sized alphabet

small = st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255)), max_size=5)


def brute(iset: IntervalSet) -> set[int]:
    return {c for p in iset.parts for c in range(p.lo, min(p.hi, 255) + 1)}


@given(small)
def test_normalize_matches_brute_force(pairs):
    iset = IntervalSet.from_pairs(*pairs)
    expected = {c for lo, hi in pairs for c in range(max(lo, 0), min(hi, 255) + 1)}
    assert brute(iset) == expected
    for a, b in zip(iset.parts, iset.parts[1:]):
        assert a.hi + 1 < b.lo  # sorted, disjoint, non-adjacent


# A union of character sets is normalize over the parts of both, as
# `re.union` and the pattern reader build it.
@given(small, small)
def test_union_matches_brute_force(p1, p2):
    x = IntervalSet.from_pairs(*p1)
    y = IntervalSet.from_pairs(*p2)
    assert brute(IntervalSet.normalize(x.parts + y.parts)) == brute(x) | brute(y)


@given(small)
def test_complement_matches_brute_force(pairs):
    x = IntervalSet.from_pairs(*pairs)
    comp = x.complement()
    assert brute(comp) == set(range(256)) - brute(x)
    assert comp.complement() == x


def test_normalize_examples():
    assert IntervalSet.from_pairs((97, 100), (99, 105)).parts == (Interval(97, 105),)
    full_minus_letters = IntervalSet.from_pairs((0, 96), (123, MAX_CODEPOINT))
    assert full_minus_letters.complement().parts == (Interval(97, 122),)
    assert IntervalSet.from_pairs((1, 2), (4, 5)).parts == (Interval(1, 2), Interval(4, 5))


# The oracle enumerates an alphabet from its parts, in ascending order
# across the gaps, and refuses one too wide to enumerate.
def test_code_points_enumeration():
    assert Bound(1, IntervalSet.from_pairs((120, 120), (97, 98))).chars() == ["a", "b", "x"]
    with pytest.raises(ValueError):
        Bound(1, IntervalSet((FULL,))).chars()
