"""Bounded brute-force satisfiability checking, independent of the solver.

This module is the executable cross-check for the property suites. Word
membership here is decided by naive path enumeration over the stored
transition rows, sharing no code with the production simulation in
`snfa.accepts`, the alphabet is enumerated from its intervals here, and
the variables are ordered by a scan of their own, not by
`constraints.layering`; that independence is the point, and a test pins
the few names imported from the package, data types only. Results are only
meaningful within the given bound: exhausting the space proves nothing
beyond it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from strsolve.constraints import Problem, VarId
from strsolve.errors import ResourceLimitError
from strsolve.intervals import IntervalSet
from strsolve.snfa import SNfa

MAX_ORACLE_LEN = 8
MAX_ORACLE_ALPHABET = 8
DEFAULT_SPACE_CAP = 10_000_000


@dataclass(frozen=True)
class Bound:
    """Word-length cap and restricted alphabet for bounded enumeration."""

    max_len: int
    alphabet: IntervalSet

    def __post_init__(self):
        if self.max_len > MAX_ORACLE_LEN:
            raise ValueError(f"oracle bound too deep: {self.max_len} > {MAX_ORACLE_LEN}")
        width = sum(p.hi - p.lo + 1 for p in self.alphabet.parts)
        if width > MAX_ORACLE_ALPHABET:
            raise ValueError(f"oracle alphabet too wide: {width} > {MAX_ORACLE_ALPHABET}")

    def chars(self) -> list[str]:
        return [chr(cp) for p in self.alphabet.parts for cp in range(p.lo, p.hi + 1)]

    def words(self) -> list[str]:
        """All words over the alphabet up to max_len, in length-lexicographic order."""
        chars = self.chars()
        out = [""]
        for n in range(1, self.max_len + 1):
            out.extend("".join(tup) for tup in itertools.product(chars, repeat=n))
        return out


def word_in(a: SNfa, w: str) -> bool:
    """Membership by depth-first path enumeration over the transition rows."""
    def walk(q, i: int) -> bool:
        if i == len(w):
            return q in a.accepting
        cp = ord(w[i])
        for lo, hi, d in a.rows[q]:
            if lo <= cp <= hi and walk(d, i + 1):
                return True
        return False

    return any(walk(q, 0) for q in sorted(a.initial))


def oracle_lang(a: SNfa, bound: Bound, cap: int = DEFAULT_SPACE_CAP) -> set[str]:
    """All accepted words over the bound, by forward path enumeration."""
    chars = bound.chars()
    space = sum(len(chars) ** n for n in range(bound.max_len + 1))
    if space > cap:
        raise ResourceLimitError(f"oracle language space {space} exceeds cap {cap}")
    found: set[str] = set()
    frontier: set[tuple] = {(q, "") for q in a.initial}
    for q, w in frontier:
        if q in a.accepting:
            found.add(w)
    for _ in range(bound.max_len):
        nxt: set[tuple] = set()
        for q, w in frontier:
            for lo, hi, d in a.rows[q]:
                for ch in chars:
                    if lo <= ord(ch) <= hi:
                        nxt.add((d, w + ch))
        for q, w in nxt:
            if q in a.accepting:
                found.add(w)
        frontier = nxt
    return found


def _derivation_order(p: Problem, base: list[VarId]) -> Optional[list[VarId]]:
    """The variables with equations, each after the variables of its pairs,
    by scanning the rest in name order until no scan places one; None when
    some are left, which means a cycle."""
    placed = set(base)
    order: list[VarId] = []
    rest = sorted(v for v in p.variables if v not in placed)
    while rest:
        ready = [v for v in rest if all(a in placed and b in placed for a, b in p.concat[v])]
        if not ready:
            return None
        order += ready
        placed.update(ready)
        rest = [v for v in rest if v not in placed]
    return order


def oracle_sat(p: Problem, bound: Bound, cap: int = DEFAULT_SPACE_CAP) -> Optional[dict[VarId, str]]:
    """First in-bound satisfying assignment, or None when the bounded space
    holds none (which is not an unsatisfiability proof).

    Only variables without equations are enumerated: in any satisfying
    assignment the remaining values are forced to be the concatenation of
    their pair's values, so deriving them explores exactly the candidates
    that could satisfy the problem. The space cap applies to the number of
    enumerated base assignments.
    """
    base = sorted(v for v in p.variables if not p.concat.get(v))
    derived = _derivation_order(p, base)
    if derived is None:
        base, derived = sorted(p.variables), []

    candidates: dict[VarId, list[str]] = {}
    for v in base:
        lang = oracle_lang(p.reg[v], bound, cap)
        candidates[v] = sorted(lang, key=lambda w: (len(w), w))

    space = 1
    for v in base:
        space *= len(candidates[v])
        if space > cap:
            raise ResourceLimitError(f"oracle assignment space exceeds cap {cap}")
    if space == 0:
        return None

    for choice in itertools.product(*(candidates[v] for v in base)):
        mu = dict(zip(base, choice))
        ok = True
        for v in derived:
            pairs = sorted(p.concat[v])
            v1, v2 = pairs[0]
            if v1 not in mu or v2 not in mu:  # cyclic fallback never reaches here
                ok = False
                break
            word = mu[v1] + mu[v2]
            if len(word) > bound.max_len or not word_in(p.reg[v], word):
                ok = False
                break
            mu[v] = word
            if any(mu[a] + mu[b] != word for a, b in pairs[1:]):
                ok = False
                break
        if ok and all(mu[a] + mu[b] == mu[v] for v in p.concat for a, b in p.concat[v]):
            return mu
    return None
