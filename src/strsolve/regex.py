"""The regex AST and its compilation to epsilon-free symbolic NFAs.

The SMT-LIB reader (`smtlib.parse_smt`) builds every regex a solve uses.
The AST has two leaves: a `CharClass`, one character from a set of
`(lo, hi)` pairs (`re.range` and `re.allchar` are classes, a character is
a class of one, and the empty class `re.none` denotes no word), and a
`Literal`, one word (`str.to_re`; "" is the empty word). Concat, Union,
Star, Plus and Opt combine them. Membership is full-match: the entire
word is in the language.

Compilation is a position construction (one state per character of a
`Literal` and per `CharClass` occurrence, plus a single initial state),
which yields an epsilon-free and trim automaton directly.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import ResourceLimitError
from .intervals import MAX_CODEPOINT, Value
from .snfa import BUDGET_STRIDE, DEFAULT_BUDGET, PAIR_STRIDE, Budget, SNfa, snfa


class Literal(Value, namedtuple("Literal", "word")):
    __slots__ = ()  # word: a str, "" for the empty word


class CharClass(Value, namedtuple("CharClass", "chars")):
    __slots__ = ()  # chars: a tuple of (lo, hi) pairs in normal form; () denotes no word


def char(cp: int) -> CharClass:
    """The class of the one character `cp`."""
    return CharClass(((cp, cp),))


class Concat(Value, namedtuple("Concat", "items")):
    __slots__ = ()  # items: a tuple of Regex


class Union(Value, namedtuple("Union", "items")):
    __slots__ = ()  # items: a tuple of Regex


class Star(Value, namedtuple("Star", "item")):
    __slots__ = ()


class Plus(Value, namedtuple("Plus", "item")):
    __slots__ = ()


class Opt(Value, namedtuple("Opt", "item")):
    __slots__ = ()


Regex = Literal | CharClass | Concat | Union | Star | Plus | Opt

LENGTH_CAP = 10_000


def compile(ast: Regex, budget: Budget = DEFAULT_BUDGET) -> SNfa:  # noqa: A001 - mirrors re.compile
    """Position-construction compile; the result is epsilon-free and trim.

    A subterm that denotes no word (an empty `CharClass`, a `Plus` of such
    a subterm, a `Union` of only such subterms, or a `Concat` with
    one among its items) makes no positions: a `Union` skips it, `Star` and
    `Opt` of it denote the empty word, and at the top it leaves only the
    initial state, which does not accept. So no position is unreachable.

    `budget.check` runs before every BUDGET_STRIDE-th position, after more
    than PAIR_STRIDE follow-set entries offered or transitions built, and as
    soon as the links held or the transitions built pass the cap. A held
    link is at least one transition of the result unless a subterm that
    denotes no word drops it, so only such a subterm's links can stop a
    compile whose automaton fits under the cap.
    """
    labels: list[tuple] = []        # the (lo, hi) parts of position p's label at labels[p-1]
    follow: list[set[int]] = []     # follow set of position p at follow[p-1]
    cap = budget.max_transitions
    made = links = work = 0  # positions made, links held, work since the last check

    def new_pos(chars: tuple) -> int:
        nonlocal made
        made += 1
        if not made % BUDGET_STRIDE:
            budget.check(links)
        labels.append(chars)
        follow.append(set())
        return len(labels)

    def link(lasts: tuple[int, ...], firsts: tuple[int, ...]) -> None:
        nonlocal links, work
        for p in lasts:
            f = follow[p - 1]
            held = len(f)
            f.update(firsts)
            links += len(f) - held
            work += len(firsts)
            if work > PAIR_STRIDE or links > cap:
                budget.check(links)
                work = 0

    # (nullable, first positions, last positions), or None for a subterm that
    # denotes no word. Every position a call returns or links was made during
    # that call, so a call that returns None leaves labels and follow as it
    # found them: a Concat that meets such an item deletes what it made.
    def lin(node: Regex) -> tuple[bool, tuple[int, ...], tuple[int, ...]] | None:
        nonlocal links
        if isinstance(node, CharClass):
            if not node.chars:
                return None
            p = new_pos(node.chars)
            return False, (p,), (p,)
        if isinstance(node, Literal):
            # one position per character, made and linked as a Concat of
            # one-character classes makes and links them
            first = last = ()
            for cp in map(ord, node.word):
                p = new_pos(((cp, cp),))
                link(last, (p,))
                first, last = first or (p,), (p,)
            return not node.word, first, last
        if isinstance(node, Concat):
            mark = len(labels)
            nullable, first, last = True, (), ()
            for item in node.items:
                part = lin(item)
                if part is None:
                    links -= sum(map(len, follow[mark:]))
                    del labels[mark:], follow[mark:]
                    return None
                n2, f2, l2 = part
                link(last, f2)
                first = first + f2 if nullable else first
                last = last + l2 if n2 else l2
                nullable = nullable and n2
            return nullable, first, last
        if isinstance(node, Union):
            parts = [part for part in map(lin, node.items) if part is not None]
            if not parts:
                return None
            nullable, first, last = False, (), ()
            for n2, f2, l2 in parts:
                nullable = nullable or n2
                first += f2
                last += l2
            return nullable, first, last
        if isinstance(node, Star):
            _, first, last = lin(node.item) or (True, (), ())
            link(last, first)
            return True, first, last
        if isinstance(node, Plus):
            part = lin(node.item)
            if part is not None:
                link(part[2], part[1])
            return part
        if isinstance(node, Opt):
            _, first, last = lin(node.item) or (True, (), ())
            return True, first, last
        raise TypeError(f"not a regex node: {node!r}")

    # `lin` refers to itself through its closure cell; deleting it breaks that
    # cycle, which would keep labels and follow alive until the cyclic
    # collector ran, on every path out of the walk
    try:
        nullable, first, last = lin(ast) or (False, (), ())
    finally:
        del lin
    # state 0 is the initial state and state p is position p
    rows = [[(lo, hi, p) for p in first for lo, hi in labels[p - 1]]]
    emitted = len(rows[0])
    for f in follow:
        rows.append([(lo, hi, q) for q in f for lo, hi in labels[q - 1]])
        emitted += len(rows[-1])
        work += len(rows[-1])
        if work > PAIR_STRIDE or emitted > cap:
            budget.check(emitted)
            work = 0
    accepting = set(last)
    if nullable:
        accepting.add(0)
    return snfa(rows, {0}, accepting, trim=True)


_SIGMA_STAR = None


def sigma_star() -> SNfa:
    """The canonical one-state automaton for all words: one full self-loop."""
    global _SIGMA_STAR
    if _SIGMA_STAR is None:
        _SIGMA_STAR = SNfa((((0, MAX_CODEPOINT, 0),),), frozenset({0}), frozenset({0}),
                           trim=True)
    return _SIGMA_STAR


def is_sigma_star(a: SNfa) -> bool:
    """Whether `a` is `sigma_star()` in structure (rows, initial and
    accepting states): it accepts every word, as its one label
    [0, MAX_CODEPOINT] holds every character a `str` can hold."""
    return a.rows == sigma_star().rows and a.initial == a.accepting == {0}


def word_automaton(w: str) -> SNfa:
    """The singleton-language automaton for w: a chain of |w|+1 states."""
    rows = tuple(((ord(ch), ord(ch), i + 1),) for i, ch in enumerate(w)) + ((),)
    return SNfa(rows, frozenset({0}), frozenset({len(w)}), trim=True)


def length_automaton(op: str, n: int) -> SNfa:
    """Automaton for { w : |w| op n } with op in <, <=, =, >=, >.

    A chain of any-character steps counts the length; >= and > end in a
    full self-loop. State count is n+O(1), hence the bound LENGTH_CAP.
    """
    if op not in ("<", "<=", "=", ">=", ">"):
        raise ValueError(f"unknown length operator {op!r}")
    if n < 0:
        raise ValueError("length bound must be non-negative")
    if n > LENGTH_CAP:
        raise ResourceLimitError(f"length bound too large: {n} (cap {LENGTH_CAP})")
    chain = {"<": max(n - 1, 0), "<=": n, "=": n, ">=": n, ">": n + 1}[op]
    last = ((0, MAX_CODEPOINT, chain),) if op in (">=", ">") else ()
    rows = tuple(((0, MAX_CODEPOINT, i + 1),) for i in range(chain)) + (last,)
    if op in (">=", ">", "="):
        accepting = {chain}
    elif op == "<=":
        accepting = set(range(chain + 1))
    else:  # "<": the chain has n states when n > 0
        accepting = set(range(n))
    return SNfa(rows, frozenset({0}), frozenset(accepting), trim=True)
