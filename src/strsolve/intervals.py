"""Closed code-point intervals: the label algebra for symbolic-automaton transitions.

The alphabet is the plain integer range 0..0x10FFFF (surrogates included).
A transition label is one closed interval, the plain pair `(lo, hi)` with
lo <= hi. A character class is a tuple of such pairs in normal form:
sorted, disjoint and non-adjacent, which is the form the automata store.
`normalize` makes it from any pairs and `complement` negates it.

`Value` is the mixin of the package's immutable value classes, which are
namedtuple subclasses: cheap to define at import, which every start of
the command line pays for.
"""

from __future__ import annotations

from typing import Iterable

MAX_CODEPOINT = 0x10FFFF
FULL = (0, MAX_CODEPOINT)


class Value:
    """Equality of a namedtuple value class: instances are equal only within
    one class (plain tuples would make Star(a) equal to Plus(a)); the hash is
    that of the fields as a tuple. A subclass lists the mixin first and sets
    `__slots__ = ()`, which keeps its instances immutable."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__


def normalize(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The normal form of the union of `pairs`: sort, drop empty pairs
    (lo > hi), and merge overlapping or adjacent ones."""
    merged: list[tuple[int, int]] = []
    for lo, hi in sorted(p for p in pairs if p[0] <= p[1]):
        if merged and lo <= merged[-1][1] + 1:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return tuple(merged)


def complement(parts: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """The complement of normal-form `parts` relative to [0, MAX_CODEPOINT]."""
    gaps: list[tuple[int, int]] = []
    next_free = 0
    for lo, hi in parts:
        if lo > next_free:
            gaps.append((next_free, lo - 1))
        next_free = hi + 1
    if next_free <= MAX_CODEPOINT:
        gaps.append((next_free, MAX_CODEPOINT))
    return tuple(gaps)
