"""Constraint intermediate form and desugaring.

A Problem is the core fragment the propagation engine works on: a variable
set, a map from variables to sets of concatenation pairs (v = v1 + v2), and
a total map from variables to regular constraints. Surface constraints
(n-ary equations, literals inside equations, length bounds, disjunction)
are desugared into that shape here.

Fresh variables use the reserved "_t" prefix with deterministic numbering
in input order; surface variables must not use the prefix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from . import regex as rx
from .errors import ResourceLimitError, StrSolveError
from .snfa import DEFAULT_BUDGET, Budget, SNfa, accepts, product

VarId = str

FRESH_PREFIX = "_t"
MAX_DISJUNCTS = 64


class CyclicDependencyError(StrSolveError):
    """The concatenation dependence graph has a cycle; carries the variables
    stuck on it. The solver reports these instances as unknown."""

    def __init__(self, variables: frozenset[VarId]):
        super().__init__(f"cyclic concatenation dependencies among {sorted(variables)}")
        self.variables = variables


# ---------------------------------------------------------------------------
# Surface constraints

@dataclass(frozen=True)
class Var:
    name: VarId


@dataclass(frozen=True)
class Lit:
    word: str


EqTerm = Var | Lit


@dataclass(frozen=True)
class Membership:
    var: VarId
    regex: rx.Regex


@dataclass(frozen=True)
class Equation:
    lhs: EqTerm
    rhs: tuple[EqTerm, ...]  # length >= 1

    def __post_init__(self):
        if not self.rhs:
            raise ValueError("equation right-hand side must be non-empty")


@dataclass(frozen=True)
class Length:
    var: VarId
    op: str  # <, <=, =, >=, >
    bound: int


@dataclass(frozen=True)
class Or:
    branches: tuple[tuple["SurfaceConstraint", ...], ...]  # disjunction of conjunctions


SurfaceConstraint = Membership | Equation | Length | Or


# ---------------------------------------------------------------------------
# Core problem form

@dataclass(frozen=True)
class Problem:
    """Well-formed core constraint: reg is total on variables, concat maps a
    subset of variables to pair sets whose components are variables."""

    variables: frozenset[VarId]
    concat: Mapping[VarId, frozenset[tuple[VarId, VarId]]]
    reg: Mapping[VarId, SNfa]


Assignment = dict[VarId, str]


def validate_problem(p: Problem) -> None:
    for v in p.concat:
        if v not in p.variables:
            raise ValueError(f"equation variable {v!r} not in the variable set")
        for v1, v2 in p.concat[v]:
            if v1 not in p.variables or v2 not in p.variables:
                raise ValueError(f"pair ({v1!r},{v2!r}) mentions unknown variables")
    if set(p.reg) != set(p.variables):
        missing = set(p.variables) ^ set(p.reg)
        raise ValueError(f"regular-constraint map must be total on variables; mismatch {sorted(missing)}")


def make_problem(variables: Iterable[VarId],
                 concat: Mapping[VarId, Iterable[tuple[VarId, VarId]]] | None = None,
                 reg: Mapping[VarId, SNfa] | None = None) -> Problem:
    """Convenience constructor: missing regular constraints default to all words."""
    variables = frozenset(variables)
    reg = dict(reg or {})
    for v in variables:
        reg.setdefault(v, rx.sigma_star())
    p = Problem(variables,
                {v: frozenset(pairs) for v, pairs in (concat or {}).items() if pairs},
                reg)
    validate_problem(p)
    return p


# ---------------------------------------------------------------------------
# Desugaring

def _expand_or(cs: Sequence[SurfaceConstraint]) -> list[list[SurfaceConstraint]]:
    """Cartesian expansion of nested disjunctions into flat conjunctions, of
    at most MAX_DISJUNCTS of them."""
    alternatives: list[list[list[SurfaceConstraint]]] = []
    total = 1
    for c in cs:
        branches: list[list[SurfaceConstraint]] = [[c]]
        if isinstance(c, Or):
            branches = []
            for branch in c.branches:
                branches.extend(_expand_or(list(branch)))
        alternatives.append(branches)
        total *= len(branches)
        if total > MAX_DISJUNCTS:
            raise ResourceLimitError(f"disjunction expands to more than {MAX_DISJUNCTS} cases")
    out = []
    for combo in itertools.product(*alternatives):
        out.append([c for chunk in combo for c in chunk])
    return out


class _Desugarer:
    def __init__(self, base_vars: Iterable[VarId], budget: Budget):
        self.budget = budget
        self.base_vars = set(base_vars)
        for v in self.base_vars:
            if v.startswith(FRESH_PREFIX):
                raise ValueError(f"variable name {v!r} uses the reserved prefix {FRESH_PREFIX!r}")
        self.counter = 0
        self.automata: dict[VarId, list[SNfa]] = {}   # memberships, in input order
        self.fixed: dict[VarId, SNfa] = {}            # fresh vars with a fixed language
        self.pairs: dict[VarId, list[tuple[VarId, VarId]]] = {}
        self.seen: set[VarId] = set(self.base_vars)

    def fresh(self, language: SNfa) -> VarId:
        self.counter += 1
        name = f"{FRESH_PREFIX}{self.counter}"
        self.fixed[name] = language
        self.seen.add(name)
        return name

    def note(self, v: VarId) -> VarId:
        """Record a surface variable; the fresh prefix is off limits to those."""
        if v.startswith(FRESH_PREFIX):
            raise ValueError(f"variable name {v!r} uses the reserved prefix {FRESH_PREFIX!r}")
        self.seen.add(v)
        return v

    def add_pair(self, lhs: VarId, a: VarId, b: VarId) -> None:
        self.pairs.setdefault(lhs, []).append((a, b))

    def constrain(self, v: VarId, a: SNfa) -> None:
        self.automata.setdefault(v, []).append(a)

    def equation(self, eq: Equation) -> None:
        if isinstance(eq.lhs, Lit):
            # Literal = literal: decided on the spot. A mismatch pins a fresh
            # variable to the empty language so the verdict keeps a witness.
            if any(isinstance(t, Var) for t in eq.rhs):
                raise ValueError("equation with literal left-hand side and variables on the right")
            rhs_word = "".join(t.word for t in eq.rhs)  # type: ignore[union-attr]
            if eq.lhs.word != rhs_word:
                self.fresh(rx.compile(rx.Never()))
            return
        lhs = self.note(eq.lhs.name)
        names = [self.note(t.name) if isinstance(t, Var) else self.fresh(rx.word_automaton(t.word))
                 for t in eq.rhs]
        if len(names) == 1:
            # x = y stays in the binary fragment via an empty-word partner.
            self.add_pair(lhs, names[0], self.fresh(rx.word_automaton("")))
            return
        cur = names[0]
        for nxt in names[1:-1]:
            tmp = self.fresh(rx.sigma_star())
            self.add_pair(tmp, cur, nxt)
            cur = tmp
        self.add_pair(lhs, cur, names[-1])

    def run(self, cs: Sequence[SurfaceConstraint]) -> Problem:
        for c in cs:
            if isinstance(c, Membership):
                self.constrain(self.note(c.var), rx.compile(c.regex))
            elif isinstance(c, Length):
                self.constrain(self.note(c.var), rx.length_automaton(c.op, c.bound))
            elif isinstance(c, Equation):
                self.equation(c)
            else:
                raise TypeError(f"unexpected constraint in flat conjunction: {c!r}")
        reg: dict[VarId, SNfa] = {}
        for v in sorted(self.seen):
            if v in self.fixed:
                reg[v] = self.fixed[v]
            elif v in self.automata:
                acc = self.automata[v][0]
                for extra in self.automata[v][1:]:
                    acc = product(acc, extra, self.budget)
                reg[v] = acc
            else:
                reg[v] = rx.sigma_star()
        p = Problem(frozenset(self.seen),
                    {v: frozenset(prs) for v, prs in self.pairs.items()},
                    reg)
        validate_problem(p)
        return p


def desugar(cs: Sequence[SurfaceConstraint], base_vars: Iterable[VarId] = (),
            budget: Budget = DEFAULT_BUDGET) -> list[Problem]:
    """Lower surface constraints to one Problem per disjunct.

    n-ary equations fold left through fresh variables, literals become fresh
    variables with singleton languages, length bounds become regular
    constraints, and several memberships on one variable are intersected
    into a single automaton under `budget`. `base_vars` forces
    declared-but-unused variables into every Problem.
    """
    return [_Desugarer(base_vars, budget).run(conj) for conj in _expand_or(cs)]


# ---------------------------------------------------------------------------
# Semantics and structural checks

def sat_str(p: Problem, m: Mapping[VarId, str]) -> bool:
    """The satisfaction predicate: every variable's word is in its regular
    language and every equation holds as word concatenation."""
    missing = set(p.variables) - set(m)
    if missing:
        raise ValueError(f"assignment missing variables: {sorted(missing)}")
    for v in sorted(p.variables):
        if not accepts(p.reg[v], m[v]):
            return False
    for v in sorted(p.concat):
        for v1, v2 in sorted(p.concat[v]):
            if m[v] != m[v1] + m[v2]:
                return False
    return True


def dependencies(p: Problem, v: VarId) -> set[VarId]:
    deps: set[VarId] = set()
    for v1, v2 in p.concat.get(v, ()):
        deps.add(v1)
        deps.add(v2)
    return deps


def layering(p: Problem) -> list[set[VarId]]:
    """Arrange variables into dependence layers, most dependent first.

    Each variable's dependencies lie strictly in later layers; such a list
    exists exactly when the dependence graph is acyclic. On a cycle, raises
    CyclicDependencyError carrying the stuck variables.
    """
    validate_problem(p)
    deps = {v: dependencies(p, v) for v in p.variables}
    level: dict[VarId, int] = {}
    remaining = set(p.variables)
    while remaining:
        ready = [v for v in remaining if deps[v].issubset(level)]
        if not ready:
            raise CyclicDependencyError(frozenset(remaining))
        for v in ready:
            level[v] = 1 + max((level[d] for d in deps[v]), default=-1)
        remaining.difference_update(ready)
    layers: dict[int, set[VarId]] = {}
    for v, lv in level.items():
        layers.setdefault(lv, set()).add(v)
    return [layers[lv] for lv in sorted(layers, reverse=True)]


def check_tree(p: Problem) -> bool:
    """True iff no variable repeats on the right-hand sides of the equations
    (which implies the dependence graph is a forest)."""
    validate_problem(p)
    occurrences: list[VarId] = []
    for v in sorted(p.concat):
        for v1, v2 in sorted(p.concat[v]):
            occurrences.append(v1)
            occurrences.append(v2)
    return len(occurrences) == len(set(occurrences))


def problem_dump(p: Problem) -> str:
    """One line per variable: name, automaton size, dependence pairs.
    Format documented in docs/dump-format.md."""
    lines = []
    for v in sorted(p.variables):
        a = p.reg[v]
        deps = ",".join(f"({v1},{v2})" for v1, v2 in sorted(p.concat.get(v, frozenset())))
        lines.append(f"{v} : states={len(a.states)} transitions={len(a.transitions)} ; deps: {deps}")
    return "\n".join(lines) + "\n"
