"""Regex parsing and compilation to epsilon-free symbolic NFAs.

The supported pattern language (full EBNF in docs/regex-grammar.md):
literals, escapes, character classes with ranges and leading ^ negation,
`.`, alternation `|`, `*` `+` `?`, grouping `()` and `(?:)`. Matching is
full-match: membership means the entire word is in the language. Anchors,
backreferences, lookaround, lazy/possessive quantifiers and bounded
repetition raise UnsupportedError rather than being approximated.

The AST has two leaves: a `CharClass`, one character from a set of
`(lo, hi)` pairs (a literal or escape is a class of one character, `.` the
full range, and the empty class denotes no word), and a `Literal`, one word
(the SMT reader's `str.to_re`; "" is the empty word). Concat, Union, Star,
Plus and Opt combine them.

Compilation is a position construction (one state per character of a
`Literal` and per `CharClass` occurrence, plus a single initial state),
which yields an epsilon-free and trim automaton directly.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import ResourceLimitError, SyntaxParseError, UnsupportedError
from .intervals import FULL, MAX_CODEPOINT, Value, complement, normalize
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

_UNSUPPORTED_GROUPS = {"=": "lookahead", "!": "negative lookahead", "<": "lookbehind",
                       "P": "named group", "'": "named group"}


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.i = 0

    def _byte_offset(self, i: int) -> int:
        return len(self.src[:i].encode("utf-8"))

    def error(self, message: str, at: int | None = None) -> SyntaxParseError:
        return SyntaxParseError(message, self._byte_offset(self.i if at is None else at))

    def unsupported(self, feature: str, at: int | None = None) -> UnsupportedError:
        return UnsupportedError(feature, self._byte_offset(self.i if at is None else at))

    def peek(self) -> str | None:
        return self.src[self.i] if self.i < len(self.src) else None

    def take(self) -> str:
        ch = self.src[self.i]
        self.i += 1
        return ch

    def parse(self) -> Regex:
        node = self.union()
        if self.i != len(self.src):
            raise self.error(f"unexpected {self.src[self.i]!r}")
        return node

    def union(self) -> Regex:
        branches = [self.concat()]
        while self.peek() == "|":
            self.take()
            branches.append(self.concat())
        return branches[0] if len(branches) == 1 else Union(tuple(branches))

    def concat(self) -> Regex:
        items = []
        while self.peek() not in (None, "|", ")"):
            items.append(self.repeat())
        if not items:
            return Literal("")
        return items[0] if len(items) == 1 else Concat(tuple(items))

    def repeat(self) -> Regex:
        node = self.atom()
        ch = self.peek()
        if ch not in ("*", "+", "?"):
            return node
        self.take()
        node = {"*": Star, "+": Plus, "?": Opt}[ch](node)
        follow = self.peek()
        if follow == "?":
            raise self.unsupported("lazy quantifier")
        if follow == "+":
            raise self.unsupported("possessive quantifier")
        if follow == "*":
            raise self.error("nothing to repeat")
        return node

    def atom(self) -> Regex:
        start = self.i
        ch = self.take()
        if ch == "(":
            if self.peek() == "?":
                self.take()
                mod = self.peek()
                if mod == ":":
                    self.take()
                else:
                    raise self.unsupported(_UNSUPPORTED_GROUPS.get(mod or "", "group modifier"), start)
            node = self.union()
            if self.peek() != ")":
                raise self.error("unbalanced (", start)
            self.take()
            return node
        if ch == "[":
            return self.char_class(start)
        if ch == ".":
            return CharClass((FULL,))
        if ch in "*+?":
            raise self.error("nothing to repeat", start)
        if ch == "{":
            raise self.unsupported("bounded repetition {m,n}", start)
        if ch in "^$":
            raise self.unsupported("anchor", start)
        if ch == "\\":
            return char(self.escape(start))
        return char(ord(ch))

    def escape(self, start: int) -> int:
        if self.peek() is None:
            raise self.error("dangling escape", start)
        ch = self.take()
        if ch == "n":
            return 10
        if ch == "t":
            return 9
        if ch == "r":
            return 13
        if ch == "x":
            return self.hex_digits(start)
        if ch == "u":
            if self.peek() != "{":
                raise self.error("expected { after \\u", start)
            self.take()
            j = self.i
            while self.peek() not in (None, "}"):
                self.take()
            if self.peek() is None:
                raise self.error("unterminated \\u{...}", start)
            digits = self.src[j:self.i]
            self.take()
            if not digits:
                raise self.error("empty \\u{...}", start)
            cp = hex_value(digits)
            if cp is None:
                raise self.error("bad hex in \\u{...}", start)
            if cp > MAX_CODEPOINT:
                raise self.error("code point above 0x10FFFF", start)
            return cp
        if ch.isdigit():
            raise self.unsupported("backreference", start)
        if ch.isalpha():
            raise self.unsupported(f"escape \\{ch}", start)
        return ord(ch)  # escaped punctuation stands for itself

    def hex_digits(self, start: int) -> int:
        digits = self.src[self.i:self.i + 2]
        cp = hex_value(digits) if len(digits) == 2 else None
        if cp is None:
            raise self.error("expected 2 hex digits", start)
        self.i += 2
        return cp

    def char_class(self, start: int) -> Regex:
        negate = False
        if self.peek() == "^":
            self.take()
            negate = True
        pairs: list[tuple[int, int]] = []
        while True:
            ch = self.peek()
            if ch is None:
                raise self.error("unterminated character class", start)
            if ch == "]":
                self.take()
                break
            lo = self.class_char(start)
            if self.peek() == "-" and self.i + 1 < len(self.src) and self.src[self.i + 1] != "]":
                self.take()
                hi = self.class_char(start)
                if lo > hi:
                    raise self.error("reversed class range", start)
                pairs.append((lo, hi))
            else:
                pairs.append((lo, lo))
        if not pairs:
            raise self.error("empty character class", start)
        chars = normalize(pairs)
        if negate:
            chars = complement(chars)
        if not chars:
            raise self.error("character class denotes no characters", start)
        return CharClass(chars)

    def class_char(self, start: int) -> int:
        ch = self.take()
        if ch == "\\":
            return self.escape(start)
        return ord(ch)


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def hex_value(digits: str) -> int | None:
    """The value of a non-empty run of ASCII hex digits, else None. (`int`
    with base 16 would also take a sign, spaces, underscores, a 0x prefix
    and non-ASCII digits.)"""
    if digits and _HEX_DIGITS.issuperset(digits):
        return int(digits, 16)
    return None


def parse_regex(src: str) -> Regex:
    """Parse a pattern into an AST; SyntaxParseError/UnsupportedError on bad input."""
    return _Parser(src).parse()


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
