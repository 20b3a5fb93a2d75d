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
from collections import namedtuple
from typing import Iterable, Mapping, Sequence

from . import regex as rx
from .errors import ResourceLimitError, StrSolveError
from .intervals import Value
# `sat_str` calls `snfa.accepts` through the module, so a binding that
# replaces it there (a tracer's counter) sees every model check. This runs
# while the package's __init__ imports this module, before it binds the name
# `snfa` to the constructor
from . import snfa
from .snfa import BUDGET_STRIDE, DEFAULT_BUDGET, Budget, SNfa, product

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

class Var(Value, namedtuple("Var", "name")):
    __slots__ = ()


class Lit(Value, namedtuple("Lit", "word")):
    __slots__ = ()


EqTerm = Var | Lit


class Membership(Value, namedtuple("Membership", "var regex")):
    __slots__ = ()


class Equation(Value, namedtuple("Equation", "lhs rhs")):
    __slots__ = ()  # rhs: a tuple of EqTerm, of length >= 1

    def __new__(cls, lhs: EqTerm, rhs: tuple[EqTerm, ...]):
        if not rhs:
            raise ValueError("equation right-hand side must be non-empty")
        return tuple.__new__(cls, (lhs, rhs))


class Length(Value, namedtuple("Length", "var op bound")):
    __slots__ = ()  # op: <, <=, =, >=, >


class Or(Value, namedtuple("Or", "branches")):
    __slots__ = ()  # branches: a disjunction of conjunctions of SurfaceConstraint


SurfaceConstraint = Membership | Equation | Length | Or


# ---------------------------------------------------------------------------
# Core problem form

class Problem(Value, namedtuple("Problem", "variables concat reg")):
    """Well-formed core constraint: reg is total on variables, concat maps a
    subset of variables to pair sets whose components are variables.
    Construction raises ValueError otherwise."""

    __slots__ = ()

    def __new__(cls, variables: frozenset[VarId],
                concat: Mapping[VarId, frozenset[tuple[VarId, VarId]]],
                reg: Mapping[VarId, SNfa]):
        for v in concat:
            if v not in variables:
                raise ValueError(f"equation variable {v!r} not in the variable set")
            for v1, v2 in concat[v]:
                if v1 not in variables or v2 not in variables:
                    raise ValueError(f"pair ({v1!r},{v2!r}) mentions unknown variables")
        if set(reg) != set(variables):
            missing = set(variables) ^ set(reg)
            raise ValueError(f"regular-constraint map must be total on variables; mismatch {sorted(missing)}")
        return tuple.__new__(cls, (variables, concat, reg))


Assignment = dict[VarId, str]


def make_problem(variables: Iterable[VarId],
                 concat: Mapping[VarId, Iterable[tuple[VarId, VarId]]] | None = None,
                 reg: Mapping[VarId, SNfa] | None = None) -> Problem:
    """Convenience constructor: missing regular constraints default to all words."""
    variables = frozenset(variables)
    reg = dict(reg or {})
    for v in variables:
        reg.setdefault(v, rx.sigma_star())
    return Problem(variables,
                   {v: frozenset(pairs) for v, pairs in (concat or {}).items() if pairs},
                   reg)


# ---------------------------------------------------------------------------
# Desugaring

def expand_or(cs: Sequence[SurfaceConstraint]) -> list[list[SurfaceConstraint]]:
    """Cartesian expansion of nested disjunctions into flat conjunctions, of
    at most MAX_DISJUNCTS of them. The nested `or`s are walked on an
    explicit stack, so no depth of nesting overflows the interpreter's."""
    # a conjunction's frame: [its constraints left to read, the alternatives
    # of those read, the product of their counts]; an `or`'s frame: [its
    # branches left to expand, the conjunctions of those expanded]
    stack: list[list] = [[iter(cs), [], 1]]
    while True:
        frame = stack[-1]
        if len(frame) == 2:
            branch = next(frame[0], None)
            if branch is not None:
                stack.append([iter(branch), [], 1])
                continue
            stack.pop()
            branches = frame[1]
        else:
            c = next(frame[0], None)
            if c is None:  # the conjunction is read: expand it
                stack.pop()
                out = [[c for chunk in combo for c in chunk]
                       for combo in itertools.product(*frame[1])]
                if not stack:
                    return out
                stack[-1][1].extend(out)
                continue
            if isinstance(c, Or):
                stack.append([iter(c.branches), []])
                continue
            branches = [[c]]
        frame = stack[-1]  # the conjunction that `branches` is one alternative of
        frame[1].append(branches)
        frame[2] *= len(branches)
        if frame[2] > MAX_DISJUNCTS:
            raise ResourceLimitError(f"disjunction expands to more than {MAX_DISJUNCTS} cases")


class _Desugarer:
    def __init__(self, base_vars: Iterable[VarId], budget: Budget):
        self.budget = budget
        self.counter = 0
        # each variable's languages in input order; a fresh variable has one
        self.langs: dict[VarId, list[SNfa]] = {}
        self.pairs: dict[VarId, list[tuple[VarId, VarId]]] = {}
        for v in base_vars:
            self.note(v)

    def fresh(self, language: SNfa) -> VarId:
        self.counter += 1
        name = f"{FRESH_PREFIX}{self.counter}"
        self.langs[name] = [language]
        return name

    def note(self, v: VarId) -> VarId:
        """Record a surface variable; the fresh prefix is off limits to those."""
        if v.startswith(FRESH_PREFIX):
            raise ValueError(f"variable name {v!r} uses the reserved prefix {FRESH_PREFIX!r}")
        self.langs.setdefault(v, [])
        return v

    def add_pair(self, lhs: VarId, a: VarId, b: VarId) -> None:
        self.pairs.setdefault(lhs, []).append((a, b))

    def equation(self, eq: Equation) -> None:
        if isinstance(eq.lhs, Lit):
            # Literal = literal: decided on the spot. A mismatch pins a fresh
            # variable to the empty language so the verdict keeps a witness.
            if any(isinstance(t, Var) for t in eq.rhs):
                raise ValueError("equation with literal left-hand side and variables on the right")
            rhs_word = "".join(t.word for t in eq.rhs)  # type: ignore[union-attr]
            if eq.lhs.word != rhs_word:
                self.fresh(rx.compile(rx.CharClass(())))
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
        for i, c in enumerate(cs):
            if not i % BUDGET_STRIDE:
                self.budget.check(0)
            if isinstance(c, Membership):
                self.langs[self.note(c.var)].append(rx.compile(c.regex, self.budget))
            elif isinstance(c, Length):
                self.langs[self.note(c.var)].append(rx.length_automaton(c.op, c.bound))
            elif isinstance(c, Equation):
                self.equation(c)
            else:
                raise TypeError(f"unexpected constraint in flat conjunction: {c!r}")
        reg: dict[VarId, SNfa] = {}
        for v in sorted(self.langs):
            acc, *extra = self.langs[v] or [rx.sigma_star()]
            for a in extra:
                acc = product(acc, a, self.budget)
            reg[v] = acc
        return Problem(frozenset(self.langs),
                       {v: frozenset(prs) for v, prs in self.pairs.items()},
                       reg)


def desugar(cs: Sequence[SurfaceConstraint], base_vars: Iterable[VarId] = (),
            budget: Budget = DEFAULT_BUDGET) -> list[Problem]:
    """Lower surface constraints to one Problem per disjunct.

    n-ary equations fold left through fresh variables, literals become fresh
    variables with singleton languages, length bounds become regular
    constraints, and several memberships on one variable are intersected
    into a single automaton under `budget`, which also bounds each regex
    compile and is checked before every BUDGET_STRIDE-th constraint of a
    disjunct, starting with the first. `base_vars` forces
    declared-but-unused variables into every Problem. A conjunction without
    `or`, such as each one `cli.solve_path` hands over, is its own one
    disjunct and is not expanded.
    """
    conjunctions = expand_or(cs) if any(isinstance(c, Or) for c in cs) else [cs]
    return [_Desugarer(base_vars, budget).run(conj) for conj in conjunctions]


# ---------------------------------------------------------------------------
# Semantics and structural checks

def sat_str(p: Problem, m: Mapping[VarId, str]) -> bool:
    """The satisfaction predicate: every variable's word is in its regular
    language and every equation holds as word concatenation.

    A variable whose language is the all-words automaton
    (`regex.is_sigma_star`) is not simulated: every `str` is in it, so the
    test is exact, and it spares the model check the words of every
    variable without a language of its own. Every other language is
    checked by `accepts`."""
    missing = set(p.variables) - set(m)
    if missing:
        raise ValueError(f"assignment missing variables: {sorted(missing)}")
    for v in sorted(p.variables):
        a = p.reg[v]
        if not rx.is_sigma_star(a) and not snfa.accepts(a, m[v]):
            return False
    for v in sorted(p.concat):
        for v1, v2 in sorted(p.concat[v]):
            if m[v] != m[v1] + m[v2]:
                return False
    return True


def layering(p: Problem) -> list[set[VarId]]:
    """Arrange variables into dependence layers, most dependent first.

    Each variable's dependencies lie strictly in later layers; such a list
    exists exactly when the dependence graph is acyclic. On a cycle, raises
    CyclicDependencyError carrying the variables on or above it.

    Kahn's algorithm, in O(V + E): a variable is placed once all its
    dependencies are, at level 1 + the highest of theirs (0 without any).
    """
    waiting: dict[VarId, int] = {}  # unplaced dependencies per variable
    users: dict[VarId, list[VarId]] = {}
    for v, pairs in p.concat.items():
        deps = {d for pair in pairs for d in pair}
        waiting[v] = len(deps)
        for d in deps:
            users.setdefault(d, []).append(v)
    level = {v: 0 for v in p.variables if not waiting.get(v)}
    placed = list(level)
    for v in placed:  # `placed` grows while it is walked
        for u in users.get(v, ()):
            waiting[u] -= 1
            if not waiting[u]:
                level[u] = 1 + max(level[d] for pair in p.concat[u] for d in pair)
                placed.append(u)
    if len(level) < len(p.variables):
        raise CyclicDependencyError(frozenset(v for v in p.variables if v not in level))
    layers: dict[int, set[VarId]] = {}
    for v, lv in level.items():
        layers.setdefault(lv, set()).add(v)
    return [layers[lv] for lv in sorted(layers, reverse=True)]


def check_tree(p: Problem) -> bool:
    """True iff no variable repeats on the right-hand sides of the equations
    (which implies the dependence graph is a forest)."""
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
