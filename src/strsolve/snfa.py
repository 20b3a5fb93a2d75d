"""Symbolic NFAs with interval-labeled transitions.

States are (id, tag) pairs; the tag realizes the injective state renaming
that keeps the two operands of a concatenation disjoint. Transition labels
are single non-empty intervals. Every collection is iterated in a fixed
sorted order, so identical inputs always rebuild identical automata, and
concatenation and product emit only states reachable from the initial set
(trim), which makes language emptiness a check on the accepting set.

`validate` is the one well-formedness check; with validation switched on it
runs on every constructed automaton.

Every simulation reads one adjacency form, `SNfa._out`: per source state, the
rows `(lo, hi, dst)` in transition order. Model extraction splits a word
w = w1+w2 across a concatenation with `split_word` in O(|w|·|Q|) steps, not
one membership test per prefix: one forward pass over the first automaton
yields the candidate cuts, and runs of the second share a memo of the
(position, state) pairs already shown to have no accepting run.
"""

from __future__ import annotations

from collections import defaultdict, deque, namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

from .intervals import MAX_CODEPOINT, Interval

class StateId(namedtuple("StateId", ["id", "tag"])):
    __slots__ = ()

    def __repr__(self) -> str:
        return f"{self.id}:{self.tag}"


Transition = namedtuple("Transition", ["src", "label", "dst"])

# Debug-mode validation: when enabled, every constructed automaton is checked
# for well-formedness (and for honesty of its trim flag). Too costly for big
# products to leave on unconditionally.
_VALIDATE = False


def set_validation(enabled: bool) -> bool:
    global _VALIDATE
    previous = _VALIDATE
    _VALIDATE = enabled
    return previous


@dataclass(frozen=True)
class SNfa:
    """Immutable symbolic NFA (Q, transitions, I, F).

    `transitions` is a sorted duplicate-free tuple; `trim` records whether
    every state is known to be reachable from the initial set. The flag is
    bookkeeping, not part of value equality.
    """

    states: frozenset[StateId]
    transitions: tuple[Transition, ...]
    initial: frozenset[StateId]
    accepting: frozenset[StateId]
    trim: bool = field(default=False, compare=False)

    @cached_property
    def _out(self) -> dict[StateId, list[tuple[int, int, StateId]]]:
        adj: dict[StateId, list[tuple[int, int, StateId]]] = {}
        for t in self.transitions:
            adj.setdefault(t.src, []).append((t.label.lo, t.label.hi, t.dst))
        return adj

    def __repr__(self) -> str:
        return (f"SNfa(states={len(self.states)}, transitions={len(self.transitions)}, "
                f"initial={len(self.initial)}, accepting={len(self.accepting)})")


def snfa(states: Iterable[StateId], transitions: Iterable[Transition],
         initial: Iterable[StateId], accepting: Iterable[StateId],
         trim: bool = False) -> SNfa:
    """Canonicalizing constructor: sorts and dedupes, validates in debug mode."""
    if not isinstance(transitions, (set, frozenset)):
        transitions = set(transitions)
    a = SNfa(frozenset(states), tuple(sorted(transitions)),
             frozenset(initial), frozenset(accepting), trim)
    if _VALIDATE:
        validate(a)
    return a


def validate(a: SNfa) -> None:
    """Raise ValueError on any well-formedness violation (debug aid)."""
    if not a.initial <= a.states:
        raise ValueError(f"initial states outside Q: {sorted(a.initial - a.states)}")
    if not a.accepting <= a.states:
        raise ValueError(f"accepting states outside Q: {sorted(a.accepting - a.states)}")
    for t in a.transitions:
        if t.src not in a.states or t.dst not in a.states:
            raise ValueError(f"transition endpoint outside Q: {t}")
        if t.label.lo > t.label.hi:
            raise ValueError(f"empty transition label stored: {t}")
        if t.label.lo < 0 or t.label.hi > MAX_CODEPOINT:
            raise ValueError(f"transition label outside the code points: {t}")
    if a.trim:
        reachable = _reachable_states(a)
        if reachable != a.states:
            raise ValueError(f"trim flag set but unreachable states exist: {sorted(a.states - reachable)}")


def _reachable_states(a: SNfa) -> frozenset[StateId]:
    seen = set(a.initial)
    queue = deque(sorted(a.initial))
    out = a._out
    while queue:
        q = queue.popleft()
        for _, _, d in out.get(q, ()):
            if d not in seen:
                seen.add(d)
                queue.append(d)
    return frozenset(seen)


def _step(out: dict[StateId, list[tuple[int, int, StateId]]],
          current: Iterable[StateId], cp: int) -> set[StateId]:
    """The states reached from `current` on code point `cp`."""
    nxt = set()
    for q in current:
        for lo, hi, d in out.get(q, ()):
            if lo <= cp <= hi:
                nxt.add(d)
    return nxt


def accepts(a: SNfa, word: str) -> bool:
    """Membership by forward state-set simulation."""
    current = a.initial
    if not current:
        return False
    out = a._out
    for ch in word:
        current = _step(out, current, ord(ch))
        if not current:
            return False
    return not a.accepting.isdisjoint(current)


def rename(a: SNfa, tag: int) -> SNfa:
    """Isomorphic copy whose states are renumbered 0..n-1 and carry `tag`.

    Renumbering by sorted order keeps the map injective even when the input
    mixes tags, so two renames with distinct tags always have disjoint states.
    """
    mapping = {q: StateId(i, tag) for i, q in enumerate(sorted(a.states))}
    return snfa(mapping.values(),
                {Transition(mapping[t.src], t.label, mapping[t.dst]) for t in a.transitions},
                (mapping[q] for q in a.initial),
                (mapping[q] for q in a.accepting),
                trim=a.trim)


def concat(a1: SNfa, a2: SNfa) -> SNfa:
    """Concatenation: L(result) = { w1+w2 | w1 in L(a1), w2 in L(a2) }.

    The operands are renamed with tags 1 and 2 to make their state sets
    disjoint. Every a1-transition into an a1-accepting state is bridged to
    each a2-initial state; the initial set additionally includes a2's when
    a1 accepts the empty word. A worklist pass keeps only states reachable
    from the initial set, so the result is trim by construction.
    """
    r1 = rename(a1, 1)
    r2 = rename(a2, 2)
    if r1.initial & r1.accepting:
        initial = r1.initial | r2.initial
    else:
        initial = r1.initial
    entry2 = sorted(r2.initial)

    out: dict[StateId, list[Transition]] = defaultdict(list)
    for t in r1.transitions:
        out[t.src].append(t)
        if t.dst in r1.accepting:
            for q2 in entry2:
                out[t.src].append(Transition(t.src, t.label, q2))
    for t in r2.transitions:
        out[t.src].append(t)

    reached = set(initial)
    queue = deque(sorted(initial))
    kept: set[Transition] = set()
    while queue:
        q = queue.popleft()
        for t in out.get(q, ()):
            kept.add(t)
            if t.dst not in reached:
                reached.add(t.dst)
                queue.append(t.dst)
    return snfa(reached, kept, initial, reached & r2.accepting, trim=True)


def product(a1: SNfa, a2: SNfa) -> SNfa:
    """Product: L(result) = L(a1) & L(a2).

    Pair states are discovered by breadth-first search from I1 x I2 and
    renumbered on first visit, so only reachable pairs are built. A pair
    transition is kept exactly when the label intersection is non-empty.
    """
    out1 = a1._out
    out2 = a2._out
    pair_ids: dict[tuple[StateId, StateId], StateId] = {}
    init_pairs = [(p, q) for p in sorted(a1.initial) for q in sorted(a2.initial)]
    for pq in init_pairs:
        pair_ids[pq] = StateId(len(pair_ids), 0)
    queue = deque(init_pairs)
    labels: dict[tuple[int, int], Interval] = {}
    kept: set[Transition] = set()
    add = kept.add
    while queue:
        pq = queue.popleft()
        p, q = pq
        rows2 = out2.get(q)
        rows1 = out1.get(p)
        if not rows1 or not rows2:
            continue
        src = pair_ids[pq]
        for lo1, hi1, d1 in rows1:
            for lo2, hi2, d2 in rows2:
                lo = lo1 if lo1 >= lo2 else lo2
                hi = hi1 if hi1 <= hi2 else hi2
                if lo > hi:
                    continue
                dq = (d1, d2)
                dst = pair_ids.get(dq)
                if dst is None:
                    dst = StateId(len(pair_ids), 0)
                    pair_ids[dq] = dst
                    queue.append(dq)
                lab = labels.get((lo, hi))
                if lab is None:
                    lab = Interval(lo, hi)
                    labels[lo, hi] = lab
                add(Transition(src, lab, dst))
    acc1 = a1.accepting
    acc2 = a2.accepting
    accepting = {sid for (p, q), sid in pair_ids.items() if p in acc1 and q in acc2}
    initial = {pair_ids[pq] for pq in init_pairs}
    return snfa(pair_ids.values(), kept, initial, accepting, trim=True)


def remove_unreachable(a: SNfa) -> SNfa:
    """Language-preserving trim: drop states unreachable from the initial set."""
    reached = _reachable_states(a)
    return snfa(reached, (t for t in a.transitions if t.src in reached),
                a.initial, a.accepting & reached, trim=True)


def is_empty(a: SNfa) -> bool:
    """Emptiness as accepting-set emptiness on the trimmed automaton."""
    t = a if a.trim else remove_unreachable(a)
    return not t.accepting


def some_word(a: SNfa) -> Optional[str]:
    """A shortest accepted word (BFS-first), taking each label's lo; None if empty."""
    t = a if a.trim else remove_unreachable(a)
    if not t.accepting:
        return None
    seeds = sorted(t.initial)
    for q in seeds:
        if q in t.accepting:
            return ""
    parent: dict[StateId, tuple[StateId, int]] = {}
    seen = set(seeds)
    queue = deque(seeds)
    out = t._out
    while queue:
        q = queue.popleft()
        for lo, _, d in out.get(q, ()):
            if d in seen:
                continue
            seen.add(d)
            parent[d] = (q, lo)
            if d in t.accepting:
                chars: list[int] = []
                cur = d
                while cur in parent:
                    cur, cp = parent[cur]
                    chars.append(cp)
                return "".join(map(chr, reversed(chars)))
            queue.append(d)
    raise AssertionError("trim automaton with accepting states has a reachable witness")


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
    out1, acc1 = a1._out, a1.accepting
    current: Iterable[StateId] = a1.initial
    cuts = [0] if not acc1.isdisjoint(current) else []
    for i, ch in enumerate(w, 1):
        current = _step(out1, current, ord(ch))
        if not current:
            break
        if not acc1.isdisjoint(current):
            cuts.append(i)

    out2, acc2 = a2._out, a2.accepting
    dead: dict[int, set[StateId]] = {}
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
            run = _step(out2, run, ord(w[j]))
            j += 1
            run.difference_update(dead.get(j, ()))
        for j, states in trail:
            dead.setdefault(j, set()).update(states)
    return None


def to_dot(a: SNfa, name: str = "snfa") -> str:
    """GraphViz export with "lo-hi" edge labels."""
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for i, q in enumerate(sorted(a.initial)):
        lines.append(f'  __start{i} [shape=point];')
        lines.append(f'  __start{i} -> "{q}";')
    for q in sorted(a.states):
        shape = "doublecircle" if q in a.accepting else "circle"
        lines.append(f'  "{q}" [shape={shape}];')
    for t in a.transitions:
        lines.append(f'  "{t.src}" -> "{t.dst}" [label="{t.label.lo}-{t.label.hi}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def dump(a: SNfa) -> str:
    """Line-based debug dump; exact grammar in docs/dump-format.md."""
    lines = [f"snfa trim={int(a.trim)} states={len(a.states)} "
             f"initial={len(a.initial)} accepting={len(a.accepting)} "
             f"transitions={len(a.transitions)}"]
    for q in sorted(a.states):
        flags = ("I" if q in a.initial else "-") + ("A" if q in a.accepting else "-")
        lines.append(f"q {q} {flags}")
    for t in a.transitions:
        lines.append(f"t {t.src} -> {t.dst} {t.label!r}")
    return "\n".join(lines) + "\n"
