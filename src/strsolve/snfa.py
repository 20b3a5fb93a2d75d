"""Symbolic NFAs with interval-labeled transitions, stored as dense rows.

The states of an automaton are the integers 0..n-1, and its one stored
adjacency form is a tuple of rows `(lo, hi, dst)` per state: `rows[q]`
holds the transitions leaving q, sorted by (lo, hi, dst) and free of
duplicates. Labels are single non-empty code-point intervals. Every
simulation, `product` and `concat` index `rows[q]` directly.

Each state also has a printed name `id:tag`, stored as the one integer
`4*id + tag` (tag 0..2), so integer order is (id, tag) order. The tag
realizes the injective renaming that keeps the two operands of a
concatenation disjoint: `concat` names the states it keeps from its first
operand `i:1` and those from its second `j:2`, after their numbers there,
and every other construction names state q `q:0`. `SNfa.names` stores the
names only where they differ from `q:0`, and `SNfa.name` decodes one for
printing. Every construction numbers its states in the order of their
names, so `dump` and `to_dot` print states sorted by (id, tag) and
transitions sorted by (src, label, dst) straight from the rows, without a
global sort: `product` numbers pair states in breadth-first discovery
order, `concat` sorts the names of the states it reached, and `regex`
numbers positions in order.

Identical inputs always rebuild identical automata, and concatenation and
product emit only states reachable from the initial set (trim), which
makes language emptiness a check on the accepting set. `product` finds
its states by exploring pairs; `concat` takes them from each operand's
reachable states, which a trim flag gives for free (see `concat`).
`_reachable_states` is the one reachability pass. The module also owns
the per-solve `Budget`. `product` and `concat` check it as they start and
while they build (see `product`), and so do the SMT reader, desugaring
and `regex.compile` (see `BUDGET_STRIDE`).

`validate` is the one well-formedness check; with validation switched on it
runs on every constructed automaton.

Model extraction splits a word w = w1+w2 across a concatenation with
`split_word` in O(|w|·|Q|) steps, not one membership test per prefix: one
forward pass over the first automaton yields the candidate cuts, and runs
of the second share a memo of the (position, state) pairs already shown to
have no accepting run.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from operator import eq
from typing import Iterable, Iterator, Optional

from .errors import ResourceLimitError
from .intervals import MAX_CODEPOINT

Row = tuple[int, int, int]           # (lo, hi, dst)
Rows = tuple[tuple[Row, ...], ...]   # one sorted, duplicate-free tuple per state

DEFAULT_MAX_TRANSITIONS = 5_000_000
# The budget is consulted once per this many states built by `product` and
# `concat`, in addition to the transition cap, which is checked per state,
# and once per this many tokens read, surface constraints desugared and
# regex positions made.
BUDGET_STRIDE = 1024
# `product` also consults it before scanning more than this many row pairs
# since its last check: one pair state of two wide character classes scans
# up to |rows1[p]|·|rows2[q]| of them.
PAIR_STRIDE = 1 << 15


class Budget:
    """Cooperative per-solve limits, checked as the SMT reader, desugaring,
    `regex.compile`, `product` and `concat` work."""

    def __init__(self, max_transitions: int = DEFAULT_MAX_TRANSITIONS,
                 deadline: Optional[float] = None):
        self.max_transitions = max_transitions
        self.deadline = deadline  # time.monotonic() value

    def check(self, transitions: int) -> None:
        """Raise ResourceLimitError when `transitions` passes the cap or the
        deadline has passed."""
        if transitions > self.max_transitions:
            raise ResourceLimitError(
                f"automaton grew past {self.max_transitions} transitions")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ResourceLimitError("time budget exhausted")


# Nothing mutates a budget, so every call that names none shares this one.
DEFAULT_BUDGET = Budget()


# Debug-mode validation: when enabled, every constructed automaton is checked
# for well-formedness (and for honesty of its trim flag). Too costly for big
# products to leave on unconditionally.
_VALIDATE = False


def set_validation(enabled: bool) -> bool:
    global _VALIDATE
    previous = _VALIDATE
    _VALIDATE = enabled
    return previous


class _Transitions:
    """The number of an automaton's transitions, counted once from the rows,
    as `len(a.transitions)`; walk `a.rows` for the transitions themselves."""

    __slots__ = ("_len",)

    def __init__(self, rows: Rows):
        self._len = sum(map(len, rows))

    def __len__(self) -> int:
        return self._len


@dataclass(frozen=True)
class SNfa:
    """Immutable symbolic NFA over the states 0..len(rows)-1.

    Direct construction trusts the caller to hand over rows that are sorted
    and duplicate-free per state, and names (if any) that are strictly
    increasing; `snfa()` canonicalizes arbitrary rows. `trim` records
    whether every state is known to be reachable from the initial set. The
    flag is bookkeeping, not part of value equality.
    """

    rows: Rows
    initial: frozenset[int]
    accepting: frozenset[int]
    names: Optional[tuple[int, ...]] = None  # 4*id + tag; None: state q is q:0
    trim: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.names is not None and all(
                map(eq, self.names, range(0, 4 * len(self.names), 4))):
            object.__setattr__(self, "names", None)
        if _VALIDATE:
            validate(self)

    @property
    def states(self) -> range:
        return range(len(self.rows))

    @cached_property
    def transitions(self) -> _Transitions:
        return _Transitions(self.rows)

    def name(self, q: int) -> str:
        """The printed name `id:tag` of state q."""
        key = 4 * q if self.names is None else self.names[q]
        return f"{key >> 2}:{key & 3}"

    def __repr__(self) -> str:
        return (f"SNfa(states={len(self.rows)}, transitions={len(self.transitions)}, "
                f"initial={len(self.initial)}, accepting={len(self.accepting)})")


def snfa(rows: Iterable[Iterable[Row]], initial: Iterable[int],
         accepting: Iterable[int], trim: bool = False) -> SNfa:
    """Canonicalizing constructor: sorts and dedupes each state's rows; the
    states are named `q:0`."""
    return SNfa(tuple(tuple(sorted(set(row))) for row in rows), frozenset(initial),
                frozenset(accepting), trim=trim)


def validate(a: SNfa) -> None:
    """Raise ValueError on any well-formedness violation (debug aid)."""
    n = len(a.rows)
    for kind, qs in (("initial", a.initial), ("accepting", a.accepting)):
        outside = sorted(q for q in qs if not (isinstance(q, int) and 0 <= q < n))
        if outside:
            raise ValueError(f"{kind} states outside Q: {outside}")
    for src, row in enumerate(a.rows):
        for lo, hi, dst in row:
            t = (src, lo, hi, dst)
            if not (isinstance(dst, int) and 0 <= dst < n):
                raise ValueError(f"transition endpoint outside Q: {t}")
            if lo > hi:
                raise ValueError(f"empty transition label stored: {t}")
            if lo < 0 or hi > MAX_CODEPOINT:
                raise ValueError(f"transition label outside the code points: {t}")
        if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
            raise ValueError(f"rows of state {src} not sorted and duplicate-free: {row}")
    if a.names is not None:
        if len(a.names) != n:
            raise ValueError(f"{len(a.names)} names for {n} states")
        bad = [nm for nm in a.names if not isinstance(nm, int) or nm < 0 or nm & 3 == 3]
        if bad:
            raise ValueError(f"state names not of the form 4*id + tag, tag 0..2: {bad}")
        if any(a.names[i] >= a.names[i + 1] for i in range(n - 1)):
            raise ValueError("state names not strictly increasing")
    if a.trim:
        reachable = _reachable_states(a)
        if len(reachable) != n:
            unreached = sorted(set(range(n)) - reachable)
            raise ValueError(f"trim flag set but unreachable states exist: {unreached}")


def _reachable_states(a: SNfa) -> set[int]:
    """The states reachable from the initial set, by breadth-first search."""
    seen = set(a.initial)
    queue = deque(sorted(a.initial))
    rows = a.rows
    while queue:
        for _, _, d in rows[queue.popleft()]:
            if d not in seen:
                seen.add(d)
                queue.append(d)
    return seen


def _step(rows: Rows, current: Iterable[int], cp: int) -> set[int]:
    """The states reached from `current` on code point `cp`."""
    nxt = set()
    for q in current:
        for lo, hi, d in rows[q]:
            if lo <= cp <= hi:
                nxt.add(d)
    return nxt


def accepts(a: SNfa, word: str) -> bool:
    """Membership by forward state-set simulation."""
    current: Iterable[int] = a.initial
    if not current:
        return False
    rows = a.rows
    for ch in word:
        current = _step(rows, current, ord(ch))
        if not current:
            return False
    return not a.accepting.isdisjoint(current)


def _sorted_row(row: list[Row]) -> tuple[Row, ...]:
    """`row` sorted and without duplicates (sorting first makes any
    duplicates adjacent, and they are rare)."""
    if len(row) < 2:
        return tuple(row)
    row.sort()
    if any(map(eq, row, islice(row, 1, None))):
        return tuple(sorted(set(row)))
    return tuple(row)


def concat(a1: SNfa, a2: SNfa, budget: Budget = DEFAULT_BUDGET) -> SNfa:
    """Concatenation: L(result) = { w1+w2 | w1 in L(a1), w2 in L(a2) }.

    State i of a1 becomes `i:1` and state j of a2 becomes `j:2`, which keeps
    the operands disjoint. Every a1-transition into an a1-accepting state is
    bridged to each a2-initial state; the initial set additionally includes
    a2's when a1 accepts the empty word. Only states reachable from the
    initial set are kept, so the result is trim by construction; the kept
    states are numbered in the order of their names. The budget is consulted
    as in `product`.

    The kept states of each operand are its reachable states: all of it when
    it is trim, else `_reachable_states` of it. That is exact for a1, whose
    states are entered only by its own transitions. a2's states are kept
    exactly when a reached a1 state accepts: that state is initial (a1
    accepts the empty word) or the target of a bridged transition, and
    either way every a2-initial state is entered; without one, no a2 state
    is entered at all.
    """
    rows1, rows2, acc1 = a1.rows, a2.rows, a1.accepting
    n1, n2 = len(rows1), len(rows2)
    # state i of a1 is named 4i+1 (i:1) and state j of a2 4j+2 (j:2); the
    # result numbers the states it keeps in the order of these names
    reached = range(n1) if a1.trim else _reachable_states(a1)
    keys = [4 * i + 1 for i in reached]
    if not acc1.isdisjoint(reached):
        keys += [4 * j + 2 for j in (range(n2) if a2.trim else _reachable_states(a2))]
    keys.sort()
    new1, new2 = [None] * n1, [None] * n2
    for k, key in enumerate(keys):
        if key & 2:
            new2[key >> 2] = k
        else:
            new1[key >> 2] = k
    entry = [e for e in map(new2.__getitem__, sorted(a2.initial)) if e is not None]
    start = [new1[i] for i in a1.initial]
    if not acc1.isdisjoint(a1.initial):
        start += entry
    cap = budget.max_transitions
    rows: list[tuple[Row, ...]] = []
    emitted = 0
    for k, key in enumerate(keys):
        if not k % BUDGET_STRIDE:
            budget.check(emitted)
        if key & 2:
            rows.append(tuple([(lo, hi, new2[d]) for lo, hi, d in rows2[key >> 2]]))
        else:
            row = []
            bridged = False
            for lo, hi, d in rows1[key >> 2]:
                row.append((lo, hi, new1[d]))
                if d in acc1:
                    bridged = True
                    row.extend([(lo, hi, e) for e in entry])
            rows.append(_sorted_row(row) if bridged else tuple(row))
        emitted += len(rows[-1])
        if emitted > cap:
            budget.check(emitted)
    return SNfa(tuple(rows), frozenset(start),
                frozenset(k for k in map(new2.__getitem__, a2.accepting) if k is not None),
                tuple(keys), trim=True)


def product(a1: SNfa, a2: SNfa, budget: Budget = DEFAULT_BUDGET) -> SNfa:
    """Product: L(result) = L(a1) & L(a2).

    Pair states are numbered in breadth-first discovery order from I1 x I2,
    so only reachable pairs are built, and they are explored in that same
    order. A pair transition is kept exactly when the label intersection is
    non-empty; each state's rows are sorted and deduplicated once, when the
    state is explored. A pair of two one-entry rows, the common case on
    chains such as length and word automata, is built directly: it has at
    most one transition.

    `budget.check` runs before every BUDGET_STRIDE-th pair state is
    explored, before any run of rows of a1 that would take the row pairs
    scanned since the last check past PAIR_STRIDE (a row of a1 counts as
    |rows2[q]| pairs; a pair of one-entry rows is not counted, as the state
    stride already bounds those), and as soon as the number of distinct
    transitions built passes `budget.max_transitions`, so a run past either
    limit stops inside the operation.
    """
    rows1, rows2 = a1.rows, a2.rows
    n2 = len(rows2)
    pairs = [(p, q) for p in sorted(a1.initial) for q in sorted(a2.initial)]
    ids = {p * n2 + q: i for i, (p, q) in enumerate(pairs)}
    get = ids.get
    # many pair states reach the same pair on the same label: one tuple each
    shared = {}.setdefault
    cap = budget.max_transitions
    rows: list[tuple[Row, ...]] = []
    emitted = 0
    scanned = 0  # row pairs scanned since the last check, |r2| per row of a1
    for src, (p, q) in enumerate(pairs):  # `pairs` grows while it is walked
        if not src % BUDGET_STRIDE:
            budget.check(emitted)
            scanned = 0
        r1, r2 = rows1[p], rows2[q]
        if len(r1) == 1 == len(r2):
            # the common case on chains: one row pair, at most one transition
            (lo1, hi1, d1), = r1
            (lo2, hi2, d2), = r2
            lo = lo1 if lo1 >= lo2 else lo2
            hi = hi1 if hi1 <= hi2 else hi2
            if lo > hi:
                rows.append(())
                continue
            key = d1 * n2 + d2
            dst = get(key)
            if dst is None:
                dst = ids[key] = len(pairs)
                pairs.append((d1, d2))
            t = (lo, hi, dst)
            rows.append((shared(t, t),))
            emitted += 1
            if emitted > cap:
                budget.check(emitted)
            continue
        row: list[Row] = []
        add = row.append
        if r2:
            scanned += len(r1) * len(r2)
            if scanned > PAIR_STRIDE:
                # check before each run of `step` rows of a1 in this state
                width = len(r2)
                step = PAIR_STRIDE // width or 1
                scanned = ((len(r1) - 1) % step + 1) * width  # the last run's pairs
                r1 = _in_strides(r1, step, budget, emitted)
            for lo1, hi1, d1 in r1:
                base = d1 * n2
                for lo2, hi2, d2 in r2:
                    if lo2 > hi1:
                        break  # r2 is sorted by lo: no later row meets [lo1, hi1]
                    lo = lo1 if lo1 >= lo2 else lo2
                    hi = hi1 if hi1 <= hi2 else hi2
                    if lo > hi:
                        continue
                    key = base + d2
                    dst = get(key)
                    if dst is None:
                        dst = ids[key] = len(pairs)
                        pairs.append((d1, d2))
                    t = (lo, hi, dst)
                    add(shared(t, t))
        rows.append(_sorted_row(row))
        emitted += len(rows[-1])
        if emitted > cap:
            budget.check(emitted)
    acc1, acc2 = a1.accepting, a2.accepting
    return SNfa(tuple(rows), frozenset(range(len(a1.initial) * len(a2.initial))),
                frozenset(i for i, (p, q) in enumerate(pairs) if p in acc1 and q in acc2),
                trim=True)


def _in_strides(rows: tuple[Row, ...], step: int, budget: Budget, emitted: int) -> Iterator[Row]:
    """The rows, with `budget.check(emitted)` before each run of `step` of them."""
    for i in range(0, len(rows), step):
        budget.check(emitted)
        yield from rows[i:i + step]


def is_empty(a: SNfa) -> bool:
    """Emptiness as accepting-set emptiness on the trimmed automaton."""
    if a.trim or not a.accepting:
        return not a.accepting
    return a.accepting.isdisjoint(_reachable_states(a))


def some_word(a: SNfa) -> Optional[str]:
    """A shortest accepted word (BFS-first), taking each label's lo; None if empty."""
    if not a.accepting:
        return None
    seeds = sorted(a.initial)
    for q in seeds:
        if q in a.accepting:
            return ""
    parent: dict[int, tuple[int, int]] = {}
    seen = set(seeds)
    queue = deque(seeds)
    rows = a.rows
    while queue:
        q = queue.popleft()
        for lo, _, d in rows[q]:
            if d in seen:
                continue
            seen.add(d)
            parent[d] = (q, lo)
            if d in a.accepting:
                chars: list[int] = []
                cur = d
                while cur in parent:
                    cur, cp = parent[cur]
                    chars.append(cp)
                return "".join(map(chr, reversed(chars)))
            queue.append(d)
    return None


def split_word(a1: SNfa, a2: SNfa, w: str) -> Optional[tuple[str, str]]:
    """A split w = w1+w2 with w1 in L(a1) and w2 in L(a2); shortest w1 wins.

    One forward state-set pass of a1 over w records every cut i where the
    set meets a1's accepting states (it stops once the set is empty). The
    cuts are tried in ascending order by a state-set run of a2 from its
    initial states at position i. `dead[j]` holds the a2 states already
    shown to have no accepting run on w[j:]: they are removed from every
    later run, and a failed run adds every (position, state) pair it
    visited, since any of them with an accepting run would have carried the
    run to an accepting end. Each pair is expanded by at most one failed run
    and by the winning one, so the cost is O(|w|·|Q|) state expansions, and
    O(|w|) when the first cut wins with state sets of bounded size.

    Two alternatives were measured and rejected. A backward simulation of
    a2 over reversed edges turns the deterministic chain of a length
    automaton into a nondeterministic one, so its state sets grow with |w|
    (6.4 million set inserts on the long_models benchmark, no gain). A
    single forward pass that tracks the earliest start per a2 state keeps
    one entry per start when every start sits on its own chain state: for
    z = a ++ b with |a|, |b| >= 3000 it took 1.9 s, against 0.2 s here.
    """
    rows1, acc1 = a1.rows, a1.accepting
    current: Iterable[int] = a1.initial
    cuts = [0] if not acc1.isdisjoint(current) else []
    for i, ch in enumerate(w, 1):
        current = _step(rows1, current, ord(ch))
        if not current:
            break
        if not acc1.isdisjoint(current):
            cuts.append(i)

    rows2, acc2 = a2.rows, a2.accepting
    dead: dict[int, set[int]] = {}
    for i in cuts:
        run = a2.initial.difference(dead.get(i, ()))
        trail = []
        j = i
        while run:
            trail.append((j, run))
            if j == len(w):
                if not acc2.isdisjoint(run):
                    return w[:i], w[i:]
                break
            run = _step(rows2, run, ord(w[j]))
            j += 1
            run.difference_update(dead.get(j, ()))
        for j, states in trail:
            dead.setdefault(j, set()).update(states)
    return None


def to_dot(a: SNfa) -> str:
    """GraphViz export, the graph named `snfa`, with "lo-hi" edge labels."""
    names = list(map(a.name, a.states))
    lines = ["digraph snfa {", "  rankdir=LR;"]
    for i, q in enumerate(sorted(a.initial)):
        lines.append(f'  __start{i} [shape=point];')
        lines.append(f'  __start{i} -> "{names[q]}";')
    for q in a.states:
        shape = "doublecircle" if q in a.accepting else "circle"
        lines.append(f'  "{names[q]}" [shape={shape}];')
    for src, row in enumerate(a.rows):
        s = names[src]
        lines.extend(f'  "{s}" -> "{names[dst]}" [label="{lo}-{hi}"];' for lo, hi, dst in row)
    lines.append("}")
    return "\n".join(lines) + "\n"


def dump(a: SNfa) -> str:
    """Line-based debug dump; exact grammar in docs/dump-format.md."""
    names = list(map(a.name, a.states))
    lines = [f"snfa trim={int(a.trim)} states={len(a.rows)} "
             f"initial={len(a.initial)} accepting={len(a.accepting)} "
             f"transitions={len(a.transitions)}"]
    for q in a.states:
        flags = ("I" if q in a.initial else "-") + ("A" if q in a.accepting else "-")
        lines.append(f"q {names[q]} {flags}")
    for src, row in enumerate(a.rows):
        s = names[src]
        lines.extend(f"t {s} -> {names[dst]} [{lo},{hi}]" for lo, hi, dst in row)
    return "\n".join(lines) + "\n"
