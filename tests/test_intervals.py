import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import Bound
from strsolve.errors import ResourceLimitError
from strsolve.intervals import FULL, normalize

# Enumerating the members of a large class is almost always a bug, so
# `sem` refuses it above this cap.
SEM_CAP = 1 << 16


def sem(parts: tuple[tuple[int, int], ...], cap: int = SEM_CAP) -> frozenset[int]:
    """The code points the pairs denote, materialized; a pair with lo > hi
    denotes none. Refused above `cap` elements."""
    n = sum(hi - lo + 1 for lo, hi in parts if lo <= hi)
    if n > cap:
        raise ResourceLimitError(f"refusing to enumerate {n} code points (cap {cap})")
    return frozenset(c for lo, hi in parts for c in range(lo, hi + 1))


def test_sem_examples():
    assert sem(((97, 99),)) == {97, 98, 99}
    assert sem(((5, 4),)) == frozenset()
    assert sem(((65, 65),)) == {65}
    assert sem(((1, 2), (4, 5))) == {1, 2, 4, 5}


def test_sem_refuses_large_enumeration():
    with pytest.raises(ResourceLimitError):
        sem((FULL,))
    with pytest.raises(ResourceLimitError):
        sem(((0, 2 ** 15), (2 ** 16, 2 ** 16 + 2 ** 15 - 1)))  # one over, across pairs
    assert len(sem(((0, 2 ** 16 - 1),))) == 2 ** 16  # exactly at the cap


# A reversed pair denotes no character; its normal form is the empty
# class `()`, and a class prints as its pairs.
def test_empty_canonical_form():
    assert normalize([(5, 2)]) == normalize([(9, 0)]) == normalize([(1, 0)]) == ()
    assert normalize([(5, 2), (97, 122), (9, 0)]) == ((97, 122),)
    assert repr(normalize([(97, 122)])) == "((97, 122),)"


# normalize against brute-force sets on a byte-sized alphabet

small = st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255)), max_size=5)


def brute(parts: tuple[tuple[int, int], ...]) -> set[int]:
    return set(sem(tuple((lo, min(hi, 255)) for lo, hi in parts)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(small)
def test_normalize_matches_brute_force(pairs):
    parts = normalize(pairs)
    expected = {c for lo, hi in pairs for c in range(max(lo, 0), min(hi, 255) + 1)}
    assert brute(parts) == expected
    assert all(lo <= hi for lo, hi in parts)
    for a, b in zip(parts, parts[1:]):
        assert a[1] + 1 < b[0]  # sorted, disjoint, non-adjacent


# A union of character classes is normalize over the pairs of both, as
# `re.union` builds it.
@settings(derandomize=True, max_examples=300, deadline=None)
@given(small, small)
def test_union_matches_brute_force(p1, p2):
    x, y = normalize(p1), normalize(p2)
    assert brute(normalize(x + y)) == brute(x) | brute(y)


def test_normalize_examples():
    assert normalize([(97, 100), (99, 105)]) == ((97, 105),)
    assert normalize([(1, 2), (4, 5)]) == ((1, 2), (4, 5))


# The oracle enumerates an alphabet from its pairs, in ascending order
# across the gaps, and refuses one too wide to enumerate.
def test_code_points_enumeration():
    assert Bound(1, normalize([(120, 120), (97, 98)])).chars() == ["a", "b", "x"]
    with pytest.raises(ValueError):
        Bound(1, (FULL,)).chars()
