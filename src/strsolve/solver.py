"""Forward propagation of regular constraints and verdict classification.

Propagation walks the concatenation dependence graph from independent
variables upward, one round per dependence layer: each round refines every
variable of its layer, replacing its automaton with the product of the
current one and the concatenation of its pair's automata. The layers come
from `constraints.layering`, which finds a cyclic dependence graph before
any concatenation or product is built; such a solve reports unknown.

Verdicts: an empty refined language anywhere is a sound unsat; when all
refined languages are non-empty and no variable repeats on the equations'
right-hand sides, the constraint is satisfiable and a model is extracted
from the refined automata; otherwise the result is unknown.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Mapping, Optional

from .constraints import (Assignment, CyclicDependencyError, Problem, VarId,
                          check_tree, layering, sat_str)
from .regex import is_sigma_star
from .snfa import (DEFAULT_BUDGET, Budget, SNfa, concat, concat_bfs, is_empty, product,
                   some_word, split_word)

RefinedReg = dict[VarId, SNfa]


class SolveStats:
    def __init__(self, iterations: int = 0, millis: float = 0.0,
                 var_sizes: Optional[dict[VarId, tuple[int, int]]] = None):
        self.iterations = iterations
        self.millis = millis
        self.var_sizes = {} if var_sizes is None else var_sizes

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and vars(self) == vars(other)

    def __repr__(self) -> str:
        return (f"SolveStats(iterations={self.iterations!r}, millis={self.millis!r}, "
                f"var_sizes={self.var_sizes!r})")

    @property
    def max_states(self) -> int:
        return max((s for s, _ in self.var_sizes.values()), default=0)

    @property
    def max_transitions(self) -> int:
        return max((t for _, t in self.var_sizes.values()), default=0)


class Verdict:
    def __init__(self, kind: str, model: Optional[Assignment] = None,
                 witness: Optional[VarId] = None, reason: Optional[str] = None,
                 stats: Optional[SolveStats] = None, refined: Optional[RefinedReg] = None):
        self.kind = kind  # "sat" | "unsat" | "unknown"
        self.model = model  # sat only; passes sat_str
        self.witness = witness  # unsat only; variable with empty language
        self.reason = reason  # unknown only; "not-tree" | "cyclic"
        self.stats = SolveStats() if stats is None else stats
        # the refined automata the verdict was read from (None when cyclic);
        # for dumps only, never serialized, compared or printed
        self.refined = refined

    def _key(self) -> tuple:
        return self.kind, self.model, self.witness, self.reason, self.stats

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __repr__(self) -> str:
        return (f"Verdict(kind={self.kind!r}, model={self.model!r}, witness={self.witness!r}, "
                f"reason={self.reason!r}, stats={self.stats!r})")


def forward_prop(p: Problem, budget: Budget = DEFAULT_BUDGET,
                 optimize: bool = False, stats: Optional[SolveStats] = None) -> RefinedReg:
    """Refine all regular constraints, one round per dependence layer and
    one variable at a time in name order, in one map: a variable's pairs
    lie in earlier rounds. Raises CyclicDependencyError before any automaton
    is built when the dependence graph has a cycle.

    Each equation v = v1 ++ v2 replaces v's automaton with its product with
    the concatenation of v1's and v2's. While v's automaton is still the
    all-words one, `concat_bfs` builds that product in one pass, without the
    concatenation, and gives the same automaton. With `optimize`, an
    equation whose operands both still accept every word is skipped: it
    constrains nothing."""
    layers = layering(p)
    reg: RefinedReg = dict(p.reg)
    for layer in reversed(layers):
        for v in sorted(layer):
            a = reg[v]
            for v1, v2 in sorted(p.concat.get(v, ())):
                r1, r2 = reg[v1], reg[v2]
                if optimize and is_sigma_star(r1) and is_sigma_star(r2):
                    continue
                a = (concat_bfs(r1, r2, budget) if is_sigma_star(a)
                     else product(a, concat(r1, r2, budget), budget))
            reg[v] = a
    if stats is not None:
        stats.iterations = len(layers)
    return reg


def extract_model(p: Problem, reg1: Mapping[VarId, SNfa]) -> Assignment:
    """Build a satisfying assignment from refined automata, top down.

    Requires the tree property, acyclicity, and all languages non-empty.
    Roots take a shortest witness of their refined language; equations then
    split each assigned word into the pair's variables. Failure to split is
    a solver bug, not an input condition, hence the hard error.
    """
    rhs_vars = {x for v in p.concat for pair in p.concat[v] for x in pair}
    mu: Assignment = {}
    queue = deque(v for v in sorted(p.variables) if v not in rhs_vars)
    for v in queue:
        w = some_word(reg1[v])
        if w is None:
            raise RuntimeError(f"model extraction on empty language for {v!r}")
        mu[v] = w
    while queue:
        v = queue.popleft()
        for v1, v2 in sorted(p.concat.get(v, frozenset())):
            split = split_word(reg1[v1], reg1[v2], mu[v])
            if split is None:
                raise RuntimeError(
                    f"no split of {mu[v]!r} for {v} = {v1} + {v2}; refinement is broken")
            mu[v1], mu[v2] = split
            queue.append(v1)
            queue.append(v2)
    missing = set(p.variables) - set(mu)
    if missing:
        raise RuntimeError(f"model extraction left variables unassigned: {sorted(missing)}")
    return mu


def classify(p: Problem, reg1: RefinedReg, stats: SolveStats) -> Verdict:
    """Turn refined constraints into a verdict.

    unsat needs only one empty language (sound unconditionally); sat
    additionally needs the tree property and is backed by an extracted,
    checked model; everything else is unknown. Records the refined sizes
    in `stats`.
    """
    stats.var_sizes = {v: (len(reg1[v].states), len(reg1[v].transitions))
                       for v in sorted(reg1)}
    for v in sorted(reg1):
        if is_empty(reg1[v]):
            return Verdict("unsat", witness=v, stats=stats)
    if not check_tree(p):
        return Verdict("unknown", reason="not-tree", stats=stats)
    model = extract_model(p, reg1)
    if not sat_str(p, model):
        raise RuntimeError("extracted model fails the satisfaction predicate; solver bug")
    return Verdict("sat", model=model, stats=stats)


def solve(p: Problem, optimize: bool = False, budget: Budget = DEFAULT_BUDGET) -> Verdict:
    """Propagate and classify one problem under `budget`, collecting run
    statistics; a cyclic dependence graph is unknown."""
    stats = SolveStats()
    start = time.perf_counter()
    try:
        reg1 = forward_prop(p, budget, optimize, stats)
    except CyclicDependencyError:
        verdict = Verdict("unknown", reason="cyclic", stats=stats)
    else:
        verdict = classify(p, reg1, stats)
        verdict.refined = reg1
    stats.millis = (time.perf_counter() - start) * 1000.0
    return verdict
