"""Symbolic NFAs with interval-labeled transitions, stored as dense rows.

The states of an automaton are the integers 0..n-1, and its one stored
adjacency form is a tuple of rows `(lo, hi, dst)` per state: `rows[q]`
holds the transitions leaving q, sorted by (lo, hi, dst) and free of
duplicates. Labels are single non-empty code-point intervals. Every
simulation, `product` and `concat` index `rows[q]` directly; both number
their states in breadth-first discovery order. `dump` and `to_dot` print
state q as `q:0` and the transitions straight from the rows, sorted by
(src, label, dst) without a global sort.

Identical inputs always rebuild identical automata, and concatenation and
product emit only states reachable from the initial set (trim), which
makes language emptiness a check on the accepting set. Both find their
states by exploring; elsewhere `_reachable_states` is the one reachability
pass. `concat` keeps its two operands apart by an injective index, a1
state i at 2i and a2 state j at 2j+1, and walks them as `product` walks
pairs, so `product(sigma_star(), concat(a1, a2)) == concat(a1, a2)`. The
module also owns the per-solve `Budget`. `product` and `concat` check it as
they start and while they build (see `product`), and so do the SMT reader,
desugaring and `regex.compile` (see `BUDGET_STRIDE`).

`validate` is the one well-formedness check; with validation switched on it
runs on every constructed automaton.

Every simulation of a word, in `accepts` and in `split_word`, moves
through `_advance`. Most automata of string equations are chains of
one-transition states (length, word and all-words automata and their
concatenations), so while the state set is one state whose row holds one
transition, `_advance` walks the chain: one comparison with the label per
character, and no state set or call. Elsewhere it steps the set with
`_step`. Model extraction splits a word w = w1+w2 across a concatenation
with `split_word` in O(|w|·|Q|) steps, not one membership test per prefix:
the run of the first automaton stops at each cut, each cut is tried as
soon as it is found by a run of the second, so the scan ends at the
winning cut, and the runs of the second share a memo of the (position,
state) pairs already shown to have no accepting run. `some_word`, the
shortest word of a root variable, follows a chain without its
breadth-first queue while the queue is empty.

A search that can only meet its operands' states keeps its bookkeeping in
lists indexed by state: `some_word` its search tree, and `concat` the
number it gave each operand index. `product` keeps a dict, because its
pair space n1·n2 can be far larger than the pairs it reaches.
It classifies each row of a1 once: two or more entries on one label, or
into one target, make a label set times a set of targets. The label set
meets the row of a2 state q once per (label set, q), keyed by
`sig * n2 + q` with the label set interned to the int `sig`, in a linear
sweep that starts past the a2 entries that end below the current label,
so two wide rows of character classes meet in time linear in their sizes.
A memo keeps the hits of that meet, and the run of transitions each a1
target yields with them, built on the target's first use. A row that many
pair states need again, as on the doubling family or a character class
that many a1 states repeat, is then one lookup per target.
"""

from __future__ import annotations

import time
from collections import deque, namedtuple
from itertools import islice
from operator import eq
from typing import AbstractSet, Collection, Iterable, Iterator, Optional

from .errors import ResourceLimitError
from .intervals import MAX_CODEPOINT, Value

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
    """The number of an automaton's transitions, counted from the rows, as
    `len(a.transitions)`; walk `a.rows` for the transitions themselves."""

    __slots__ = ("_len",)

    def __init__(self, rows: Rows):
        self._len = sum(map(len, rows))

    def __len__(self) -> int:
        return self._len


class SNfa(Value, namedtuple("SNfa", "rows initial accepting trim")):
    """Immutable symbolic NFA over the states 0..len(rows)-1.

    Direct construction trusts the caller to hand over rows that are sorted
    and duplicate-free per state; `snfa()` canonicalizes arbitrary rows.
    `trim` records whether every state is known to be reachable from the
    initial set. The flag is bookkeeping, not part of value equality or the
    hash.
    """

    __slots__ = ()

    def __new__(cls, rows: Rows, initial: frozenset[int], accepting: frozenset[int],
                trim: bool = False):
        self = tuple.__new__(cls, (rows, initial, accepting, trim))
        if _VALIDATE:
            validate(self)
        return self

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self[:3] == other[:3]

    def __hash__(self) -> int:
        return hash(self[:3])

    @property
    def states(self) -> range:
        return range(len(self.rows))

    @property
    def transitions(self) -> _Transitions:
        return _Transitions(self.rows)

    def __repr__(self) -> str:
        return (f"SNfa(states={len(self.rows)}, transitions={len(self.transitions)}, "
                f"initial={len(self.initial)}, accepting={len(self.accepting)})")


def snfa(rows: Iterable[Iterable[Row]], initial: Iterable[int],
         accepting: Iterable[int], trim: bool = False) -> SNfa:
    """Canonicalizing constructor: sorts and dedupes each state's rows."""
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


_NO_STATES: frozenset[int] = frozenset()


def _advance(rows: Rows, current: Collection[int], w: str, i: int, end: int,
             stop: AbstractSet[int]) -> tuple[Collection[int], int]:
    """One move of the simulation of `rows` on w from the state set
    `current` at position i < end; returns the states reached and their
    position.

    While the set is one state whose row holds one transition, the move
    walks the chain: it compares each code point with the label and moves
    to the target, building no set and making no call per character, up to
    `end`, a state in `stop`, or a state with zero or several transitions.
    Any other set takes one `_step`. Every simulation of a word moves here:
    `accepts` and both automata of `split_word`.
    """
    if len(current) == 1:
        q, = current
        row = rows[q]
        if len(row) == 1:
            while True:
                lo, hi, q = row[0]
                if not lo <= ord(w[i]) <= hi:
                    return (), i + 1
                i += 1
                row = rows[q]
                if i == end or q in stop or len(row) != 1:
                    return (q,), i
    return _step(rows, current, ord(w[i])), i + 1


def accepts(a: SNfa, word: str) -> bool:
    """Membership by forward simulation (`_advance`): one-transition chains
    are walked without state sets, every other position is a state-set
    step."""
    rows, current, i, n = a.rows, a.initial, 0, len(word)
    while current and i < n:
        current, i = _advance(rows, current, word, i, n, _NO_STATES)
    return not a.accepting.isdisjoint(current)


def _sorted_row(row: list[Row]) -> tuple[Row, ...]:
    """`row` sorted and without duplicates (sorting first makes any
    duplicates adjacent, and they are rare): the one place where duplicates
    leave a row of `concat` or `product`."""
    if len(row) < 2:
        return tuple(row)
    row.sort()
    if any(map(eq, row, islice(row, 1, None))):
        return tuple(sorted(set(row)))
    return tuple(row)


def concat(a1: SNfa, a2: SNfa, budget: Budget = DEFAULT_BUDGET) -> SNfa:
    """Concatenation: L(result) = { w1+w2 | w1 in L(a1), w2 in L(a2) }.

    State i of a1 is the index 2i and state j of a2 the index 2j+1, an
    injective renaming that keeps the operands apart. Every a1-transition
    into an a1-accepting state is also bridged to each a2-initial state, and
    the initial indices are a1's initial states, and a2's too when a1
    accepts the empty word. The walk is `product`'s, breadth-first from the
    sorted initial indices, and numbers its states through one list, `ids`,
    indexed by them. Each state's row is read in (lo, hi, index) order and
    its new targets are numbered in that order, so the result is trim,
    accepts exactly at a2's accepting states, and is its own product with
    the all-words automaton: `product(sigma_star(), concat(a1, a2))` equals
    it. `budget.check` runs before every BUDGET_STRIDE-th state and as soon
    as the transitions built pass `budget.max_transitions`, as in `product`.
    """
    rows1, rows2, acc1 = a1.rows, a2.rows, a1.accepting
    entry = [2 * j + 1 for j in sorted(a2.initial)]
    order = [2 * i for i in a1.initial]
    if not acc1.isdisjoint(a1.initial):
        order += entry
    order.sort()
    start = len(order)
    ids: list[Optional[int]] = [None] * (2 * max(len(rows1), len(rows2)))
    for k, x in enumerate(order):
        ids[x] = k
    cap = budget.max_transitions
    rows: list[tuple[Row, ...]] = []
    emitted = 0
    for k, x in enumerate(order):  # `order` grows while it is walked
        if not k % BUDGET_STRIDE:
            budget.check(emitted)
        tag = x & 1
        row = rows2[x >> 1] if tag else rows1[x >> 1]
        if len(row) == 1 and (tag or row[0][2] not in acc1):
            # the common case on chains: one transition, not bridged, so its
            # target keeps the tag of its source
            (lo, hi, d), = row
            d = 2 * d + tag
            dst = ids[d]
            if dst is None:
                dst = ids[d] = len(order)
                order.append(d)
            rows.append(((lo, hi, dst),))
            emitted += 1
            if emitted > cap:
                budget.check(emitted)
            continue
        if tag:
            row = [(lo, hi, 2 * d + 1) for lo, hi, d in row]
        else:
            # 2d keeps the row's order, so only a bridged row needs a sort,
            # which also drops the copies of two bridges with one label
            moves = []
            bridged = False
            for lo, hi, d in row:
                moves.append((lo, hi, 2 * d))
                if d in acc1:
                    bridged = True
                    moves.extend([(lo, hi, e) for e in entry])
            row = _sorted_row(moves) if bridged else moves
        out: list[Row] = []
        for lo, hi, d in row:
            dst = ids[d]
            if dst is None:
                dst = ids[d] = len(order)
                order.append(d)
            out.append((lo, hi, dst))
        rows.append(_sorted_row(out))
        emitted += len(out)
        if emitted > cap:
            budget.check(emitted)
    accepting = (ids[2 * j + 1] for j in a2.accepting)
    return SNfa(tuple(rows), frozenset(range(start)),
                frozenset(k for k in accepting if k is not None), trim=True)


def product(a1: SNfa, a2: SNfa, budget: Budget = DEFAULT_BUDGET) -> SNfa:
    """Product: L(result) = L(a1) & L(a2).

    Pair states are numbered in breadth-first discovery order from I1 x I2,
    so only reachable pairs are built, and they are explored in that same
    order. A pair transition is kept exactly when the label intersection is
    non-empty; each state's rows are sorted and deduplicated once, when the
    state is explored. A pair of two one-entry rows, the common case on
    chains such as length and word automata, is built directly: it has at
    most one transition.

    Every other pair state (p, q) meets the row r1 of p with the row r2 of
    a2 state q. How depends on r1, classified once, on p's first pair state
    (`_shape`):
    - a row of two or more entries on one label, or into one target, is a
      label set times targets. The label set meets r2 once per (label set,
      q), in a linear sweep: as r1 is sorted by lo, an a2 entry that ends
      below the current label meets no later one, and once no unskipped
      entry stands before it the sweep starts past it, so two rows of
      disjoint classes meet in |r1| + |r2| + hits reads. The label set is
      interned to an int sig, and the memo under `sig * n2 + q` keeps the
      hits (lo, hi, d2) of that meet, which discovers no pair, and the run
      of each a1 target: the transitions it yields with the hits, built on
      its first use and sorted by `_sorted_row`, which drops the copies
      of a hit that two labels or two a2 entries meet in. The row is its
      targets' runs, concatenated and sorted, free of duplicates as the
      targets are distinct;
    - any other row, one-entry or mixed, meets r2 a1 entry by a1 entry and
      a2 entry by a2 entry, and discovers pairs in that order.
    Target by target, then hit by hit, is that order too, for both shapes,
    so the numbering does not depend on the path. On the doubling family
    every row of a1 carries the full range, and 3^k transitions reach 2^k
    states from 2·|Q1| runs; on character classes many a1 states repeat
    one label set. A pair (p, q) is its int key p·|Q2| + q alone, and a
    transition the plain (lo, hi, dst) tuple, appended where it is found;
    the pair states that reuse a run share its tuple by reference.

    `budget.check` runs before every BUDGET_STRIDE-th pair state is
    explored, before any run of a1 entries or targets that would take the
    row pairs scanned since the last check past PAIR_STRIDE (a meet counts
    |rows2[q]| pairs per a1 entry or label it meets with, which bounds the
    a2 entries that it reads or skips, and the runs of a label set's
    targets |hits| per target; a pair of one-entry rows is not counted, as
    the state stride already bounds those), and as soon as the number of
    distinct transitions built passes `budget.max_transitions`, so a run
    past either limit stops inside the operation.
    """
    rows1, rows2 = a1.rows, a2.rows
    n2 = len(rows2)
    pairs = [p * n2 + q for p in sorted(a1.initial) for q in sorted(a2.initial)]
    ids = {pair: i for i, pair in enumerate(pairs)}
    get = ids.get
    # per a1 state, from its first pair state on: its `_shape`
    shapes: list[Optional[tuple]] = [None] * len(rows1)
    sigs: dict[tuple, int] = {}
    # per (label set, a2 state) met, keyed by sig * n2 + q: the hits
    # (lo, hi, d2), and the run of each a1 target
    memo: dict[int, tuple[list[Row], dict[int, tuple[Row, ...]]]] = {}
    cap = budget.max_transitions
    rows: list[tuple[Row, ...]] = []
    emitted = 0
    scanned = 0  # row pairs scanned since the last check
    for src, pair in enumerate(pairs):  # `pairs` grows while it is walked
        if not src % BUDGET_STRIDE:
            budget.check(emitted)
            scanned = 0
        p, q = divmod(pair, n2)
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
            pair = d1 * n2 + d2
            dst = get(pair)
            if dst is None:
                dst = ids[pair] = len(pairs)
                pairs.append(pair)
            rows.append(((lo, hi, dst),))
            emitted += 1
            if emitted > cap:
                budget.check(emitted)
            continue
        if not r1 or not r2:
            rows.append(())
            continue
        shape = shapes[p]
        if shape is None:
            shape = shapes[p] = _shape(r1, sigs, n2)
        if not shape:
            entries = r1
            width = len(r2)
            scanned += len(entries) * width
            if scanned > PAIR_STRIDE:
                entries, scanned = _strided(entries, width, budget, emitted)
            row: list[Row] = []
            add = row.append
            for lo1, hi1, d1 in entries:
                base = d1 * n2
                for lo2, hi2, d2 in r2:
                    if lo2 > hi1:
                        break  # r2 is sorted by lo: no later entry meets [lo1, hi1]
                    if hi2 < lo1:
                        continue
                    pair = base + d2
                    dst = get(pair)
                    if dst is None:
                        dst = ids[pair] = len(pairs)
                        pairs.append(pair)
                    add((lo1 if lo1 >= lo2 else lo2, hi1 if hi1 <= hi2 else hi2, dst))
            out = _sorted_row(row)
        else:
            key, labels, targets = shape
            key += q
            met = memo.get(key)
            if met is None:
                width = len(r2)
                scanned += len(labels) * width
                if scanned > PAIR_STRIDE:
                    labels, scanned = _strided(labels, width, budget, emitted)
                hits: list[Row] = []
                add = hits.append
                start = 0  # the a2 entries before it end below the current label
                for lo1, hi1, _ in labels:
                    for j in range(start, width):
                        lo2, hi2, d2 = r2[j]
                        if lo2 > hi1:
                            break
                        if hi2 < lo1:
                            if j == start:
                                start += 1  # r1 is sorted by lo: it meets no later label
                            continue
                        add((lo1 if lo1 >= lo2 else lo2, hi1 if hi1 <= hi2 else hi2, d2))
                met = memo[key] = (hits, {})
            hits, runs = met
            one = len(targets) == 1
            scanned += len(targets) * len(hits)
            if scanned > PAIR_STRIDE:
                targets, scanned = _strided(targets, len(hits), budget, emitted)
            row = []
            extend = row.extend
            for _, _, d1 in targets:
                run = runs.get(d1)
                if run is None:
                    # d1's first use: the pairs it reaches are discovered here,
                    # in the order of the hits
                    base = d1 * n2
                    new = []
                    for lo, hi, d2 in hits:
                        pair = base + d2
                        dst = get(pair)
                        if dst is None:
                            dst = ids[pair] = len(pairs)
                            pairs.append(pair)
                        new.append((lo, hi, dst))
                    run = runs[d1] = _sorted_row(new)
                extend(run)
            if one:
                out = run
            else:
                row.sort()  # distinct targets and duplicate-free runs: no duplicates
                out = tuple(row)
        rows.append(out)
        emitted += len(out)
        if emitted > cap:
            budget.check(emitted)
    acc1, acc2 = a1.accepting, a2.accepting
    return SNfa(tuple(rows), frozenset(range(len(a1.initial) * len(a2.initial))),
                frozenset(i for i, pair in enumerate(pairs)
                          if pair // n2 in acc1 and pair % n2 in acc2), trim=True)


def _shape(r1: tuple[Row, ...], sigs: dict[tuple, int], n2: int) -> tuple:
    """How `product` meets the non-empty row r1 of a1: `()` for a mixed or
    one-entry row, else a label set times targets, `(sig * n2, labels,
    targets)`: `sig` interns the label set in `sigs`, and the entries of
    `labels` carry the label set and those of `targets` the targets. A
    one-label row's label set is the bare (lo, hi), a one-target row's the
    pair of its lo and hi tuples."""
    if len(r1) == 1:
        return ()
    lo, hi, d1 = r1[0]
    if r1[-1][0] == lo and r1[-1][1] == hi:  # r1 is sorted: one label
        return sigs.setdefault((lo, hi), len(sigs)) * n2, r1[:1], r1
    if r1[-1][2] == d1:
        los, his, targets = zip(*r1)
        if targets.count(d1) == len(targets):  # one target
            return sigs.setdefault((los, his), len(sigs)) * n2, r1, r1[:1]
    return ()


def _strided(seq: tuple, width: int, budget: Budget, emitted: int) -> tuple[Iterator, int]:
    """The items of `seq` in runs of PAIR_STRIDE // width, with
    `budget.check(emitted)` before each run, and the row pairs of the last
    run."""
    step = PAIR_STRIDE // width or 1

    def runs() -> Iterator:
        for i in range(0, len(seq), step):
            budget.check(emitted)
            yield from seq[i:i + step]

    return runs(), ((len(seq) - 1) % step + 1) * width


def is_empty(a: SNfa) -> bool:
    """Emptiness as accepting-set emptiness on the trimmed automaton."""
    if a.trim or not a.accepting:
        return not a.accepting
    return a.accepting.isdisjoint(_reachable_states(a))


_SEED = -1  # the parent of a seed in `some_word`'s search tree


def some_word(a: SNfa) -> Optional[str]:
    """A shortest accepted word (BFS-first), taking each label's lo; None if empty.

    The search tree is two lists indexed by state: `parent[q]` is the state
    q was first reached from, None while q is unseen and `_SEED` for an
    initial state, and `label[q]` the lo of the label it was reached on.
    When the queue is empty and the state just popped has one transition to
    an unseen state, the search would pop that state next, so it follows
    the chain directly, without the queue, until it meets an accepting
    state, a seen one, or a state with zero or several transitions.
    """
    accepting = a.accepting
    if not accepting:
        return None
    seeds = sorted(a.initial)
    if not accepting.isdisjoint(seeds):
        return ""
    rows = a.rows
    parent: list[Optional[int]] = [None] * len(rows)
    label = [0] * len(rows)
    for q in seeds:
        parent[q] = _SEED
    queue = deque(seeds)
    while queue:
        q = queue.popleft()
        row = rows[q]
        while not queue and len(row) == 1:
            lo, _, d = row[0]
            if parent[d] is not None:
                break
            parent[d] = q
            label[d] = lo
            if d in accepting:
                return _word_to(parent, label, d)
            q = d
            row = rows[q]
        for lo, _, d in row:
            if parent[d] is not None:
                continue
            parent[d] = q
            label[d] = lo
            if d in accepting:
                return _word_to(parent, label, d)
            queue.append(d)
    return None


def _word_to(parent: list[Optional[int]], label: list[int], q: int) -> str:
    """The word that spells the search's path to q, from its parent links."""
    chars: list[int] = []
    while parent[q] != _SEED:
        chars.append(label[q])
        q = parent[q]
    return "".join(map(chr, reversed(chars)))


def split_word(a1: SNfa, a2: SNfa, w: str) -> Optional[tuple[str, str]]:
    """A split w = w1+w2 with w1 in L(a1) and w2 in L(a2); shortest w1 wins.

    One forward run of a1 over w stops at each cut i where its states meet
    a1's accepting states, that is where w[:i] is in L(a1), and the cut is
    tried at once by a run of a2 from its initial states at position i
    (`_run_from`), so the scan of a1 ends at the winning cut. Both runs
    walk one-transition chains without state sets (`_advance`).

    `dead[j]` holds the a2 states already shown to have no accepting run on
    w[j:], and `marked` every state that occurs in `dead`. A run of a2
    stops to drop the dead states wherever it meets a marked one. A failed
    run adds every (position, state) pair it visited to `dead`, since any of
    them with an accepting run would have carried the run to an accepting
    end; when the run walked past positions it did not stop at, it is first
    run again, stopping at every position, to list them. Each pair is
    expanded by at most one failed run (twice, when it is run again) and by
    the winning one, so the cost is O(|w|·|Q|) state expansions, and O(|w|)
    when the first cut wins with state sets of bounded size.

    Two alternatives were measured and rejected. A backward simulation of
    a2 over reversed edges turns the deterministic chain of a length
    automaton into a nondeterministic one, so its state sets grow with |w|
    (6.4 million set inserts on the long_models benchmark, no gain). A
    single forward pass that tracks the earliest start per a2 state keeps
    one entry per start when every start sits on its own chain state: for
    z = a ++ b with |a|, |b| >= 3000 it took 1.9 s, against 0.2 s here.
    """
    n = len(w)
    rows1, acc1, acc2 = a1.rows, a1.accepting, a2.accepting
    dead: dict[int, set[int]] = {}
    marked: set[int] = set()
    current: Collection[int] = a1.initial
    i = 0
    while True:
        if not acc1.isdisjoint(current):
            stops = _run_from(a2, w, i, n, dead, marked)
            j, states = stops[-1]
            if j == n and not acc2.isdisjoint(states):
                return w[:i], w[i:]
            if len(stops) <= j - i:
                stops = _run_from(a2, w, i, 1, dead, marked)
            for j, states in stops:
                dead.setdefault(j, set()).update(states)
                marked.update(states)
        if not current or i == n:
            return None
        current, i = _advance(rows1, current, w, i, n, acc1)


def _run_from(a: SNfa, w: str, i: int, stride: int, dead: dict[int, set[int]],
              marked: AbstractSet[int]) -> list[tuple[int, Collection[int]]]:
    """The run of `a` on w from its initial states at position i, as the
    (position, states) where it stopped: after each state-set step, at a
    state in `marked`, at most `stride` positions apart, at the end of w
    and where no state is left. At each stop j it drops the states of
    `dead[j]`."""
    rows, n = a.rows, len(w)
    states: Collection[int] = a.initial.difference(dead.get(i, ()))
    stops = [(i, states)]
    while states and i < n:
        states, i = _advance(rows, states, w, i, min(i + stride, n), marked)
        if i in dead:
            states = set(states).difference(dead[i])
        stops.append((i, states))
    return stops


def to_dot(a: SNfa) -> str:
    """GraphViz export, the graph named `snfa`, with "lo-hi" edge labels;
    state q is the node "q:0"."""
    lines = ["digraph snfa {", "  rankdir=LR;"]
    for i, q in enumerate(sorted(a.initial)):
        lines.append(f'  __start{i} [shape=point];')
        lines.append(f'  __start{i} -> "{q}:0";')
    for q in a.states:
        shape = "doublecircle" if q in a.accepting else "circle"
        lines.append(f'  "{q}:0" [shape={shape}];')
    for src, row in enumerate(a.rows):
        lines.extend(f'  "{src}:0" -> "{dst}:0" [label="{lo}-{hi}"];' for lo, hi, dst in row)
    lines.append("}")
    return "\n".join(lines) + "\n"


def dump(a: SNfa) -> str:
    """Line-based debug dump, state q printed as `q:0`; exact grammar in
    docs/dump-format.md."""
    lines = [f"snfa trim={int(a.trim)} states={len(a.rows)} "
             f"initial={len(a.initial)} accepting={len(a.accepting)} "
             f"transitions={len(a.transitions)}"]
    for q in a.states:
        flags = ("I" if q in a.initial else "-") + ("A" if q in a.accepting else "-")
        lines.append(f"q {q}:0 {flags}")
    for src, row in enumerate(a.rows):
        lines.extend(f"t {src}:0 -> {dst}:0 [{lo},{hi}]" for lo, hi, dst in row)
    return "\n".join(lines) + "\n"
