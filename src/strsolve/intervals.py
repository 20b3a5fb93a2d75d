"""Closed code-point intervals: the label algebra for symbolic-automaton transitions.

The alphabet is the plain integer range 0..0x10FFFF (surrogates included).
A transition label is a single closed interval; an interval with lo > hi is
empty and canonicalizes to [1,0] so that equal sets compare equal.
IntervalSet is the normalized union-of-intervals form of character
classes, which the parsers make; automata never store one.

`Value` is the mixin of the package's immutable value classes, which are
namedtuple subclasses: cheap to define at import, which every start of
the command line pays for.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable

MAX_CODEPOINT = 0x10FFFF


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


class Interval(namedtuple("Interval", ["lo", "hi"])):
    """Closed range [lo, hi] of code points. Empty iff lo > hi."""

    __slots__ = ()

    def __new__(cls, lo: int, hi: int):
        if lo > hi:
            lo, hi = 1, 0
        return tuple.__new__(cls, (lo, hi))  # what the namedtuple's __new__ does, without its call

    def __repr__(self) -> str:
        return f"[{self.lo},{self.hi}]"


FULL = Interval(0, MAX_CODEPOINT)


class IntervalSet:
    """Sorted, disjoint, non-adjacent, non-empty intervals; immutable.

    Build through normalize()/from_pairs(); direct construction trusts the
    caller to hand over parts already in normal form. Not a tuple, whose
    `count` and `index` would read as operations on the set.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[Interval, ...]):
        _set_parts(self, parts)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"IntervalSet is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash((self.parts,))

    @staticmethod
    def normalize(raw: Iterable[Interval]) -> "IntervalSet":
        """Sort, drop empties, and merge overlapping or adjacent intervals."""
        parts = sorted(p for p in raw if p.lo <= p.hi)
        merged: list[Interval] = []
        for p in parts:
            if merged and p.lo <= merged[-1].hi + 1:
                if p.hi > merged[-1].hi:
                    merged[-1] = Interval(merged[-1].lo, p.hi)
            else:
                merged.append(p)
        return IntervalSet(tuple(merged))

    @staticmethod
    def from_pairs(*pairs: tuple[int, int]) -> "IntervalSet":
        return IntervalSet.normalize(Interval(lo, hi) for lo, hi in pairs)

    def complement(self) -> "IntervalSet":
        """Complement relative to [0, MAX_CODEPOINT]."""
        gaps: list[Interval] = []
        next_free = 0
        for p in self.parts:
            if p.lo > next_free:
                gaps.append(Interval(next_free, p.lo - 1))
            next_free = p.hi + 1
        if next_free <= MAX_CODEPOINT:
            gaps.append(Interval(next_free, MAX_CODEPOINT))
        return IntervalSet(tuple(gaps))

    def is_empty(self) -> bool:
        return not self.parts

    def __repr__(self) -> str:
        return "{" + ",".join(repr(p) for p in self.parts) + "}"


_set_parts = IntervalSet.parts.__set__  # the slot's own setter, past __setattr__
