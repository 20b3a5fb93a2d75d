"""Shared test utilities: `pattern`, the reader of the tests' regex
notation, seeded random generators, reference matchers, interval
enumeration, the reference word split, membership and shortest word, the
reference SMT-LIB readers, the SMT-LIB printer, the reference `concat`,
`product`, regex compile, `layering` and `expand_or`, the trim audit and
automaton isomorphism.

The reference matchers here are deliberately naive and independent of the
production code paths they check.
"""

from __future__ import annotations

import itertools
import random
import re
from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import islice
from operator import eq
from typing import Iterator

from strsolve import regex as rx
from strsolve.constraints import (MAX_DISJUNCTS, CyclicDependencyError, Equation, Length,
                                  Lit, Membership, Or, Problem, SurfaceConstraint, Var, VarId,
                                  make_problem)
from strsolve.errors import ResourceLimitError, SyntaxParseError, UnsupportedError
from strsolve.intervals import FULL, MAX_CODEPOINT, normalize
from strsolve.regex import CharClass, Concat, Literal, Opt, Plus, Regex, Star, Union
from strsolve.smtlib import (_FLIP, _IGNORED_COMMANDS, MAX_NUMERAL_DIGITS, SmtScript,
                             encode_string, hex_value)
from strsolve.snfa import BUDGET_STRIDE, PAIR_STRIDE, Budget, Row, SNfa, snfa

TEST_ALPHABET = (97, 99)      # a..c, used by the problem suites
LEMMA_ALPHABET = (97, 100)    # a..d, used by the automata suites
DEFAULT_ISO_CAP = 12


def pattern(src: str) -> Regex:
    """The AST of a test pattern written in a small notation: characters,
    `.`, classes `[...]` with ranges, `|`, `*` `+` `?` and `( )`. There are
    no escapes and no negation, and a malformed pattern is a bug in the
    test, so nothing is reported."""
    pos = 0

    def union() -> Regex:
        nonlocal pos
        branches = [concat()]
        while src[pos:pos + 1] == "|":
            pos += 1
            branches.append(concat())
        return branches[0] if len(branches) == 1 else Union(tuple(branches))

    def concat() -> Regex:
        nonlocal pos
        items = []
        while src[pos:pos + 1] not in ("", "|", ")"):
            items.append(atom())
            if src[pos:pos + 1] in ("*", "+", "?"):
                items[-1] = {"*": Star, "+": Plus, "?": Opt}[src[pos]](items[-1])
                pos += 1
        if not items:
            return Literal("")
        return items[0] if len(items) == 1 else Concat(tuple(items))

    def atom() -> Regex:
        nonlocal pos
        ch = src[pos]
        pos += 1
        if ch == "(":
            node = union()
            pos += 1  # the ")"
            return node
        if ch == ".":
            return CharClass((FULL,))
        if ch != "[":
            return rx.char(ord(ch))
        end = src.index("]", pos)
        body, pos = src[pos:end], end + 1
        pairs, i = [], 0
        while i < len(body):
            if body[i + 1:i + 2] == "-" and i + 2 < len(body):  # a range
                pairs.append((ord(body[i]), ord(body[i + 2])))
                i += 3
            else:
                pairs.append((ord(body[i]), ord(body[i])))
                i += 1
        return CharClass(normalize(pairs))

    node = union()
    del union, concat, atom  # they refer to each other through closure cells
    return node


def compile_pattern(src: str) -> SNfa:
    return rx.compile(pattern(src))


def remove_unreachable(a: SNfa) -> SNfa:
    """Language-preserving trim: drop states unreachable from the initial set.
    The kept states keep their order. The tests audit production trimming
    with it, so it searches on its own."""
    seen = set(a.initial)
    queue = deque(a.initial)
    while queue:
        for _, _, d in a.rows[queue.popleft()]:
            if d not in seen:
                seen.add(d)
                queue.append(d)
    kept = sorted(seen)
    new = {q: k for k, q in enumerate(kept)}
    rows = tuple(tuple((lo, hi, new[d]) for lo, hi, d in a.rows[q]) for q in kept)
    return SNfa(rows, frozenset(new[q] for q in a.initial),
                frozenset(new[q] for q in a.accepting if q in new), trim=True)


def words_upto(alphabet: tuple[int, int], max_len: int) -> list[str]:
    chars = [chr(c) for c in range(alphabet[0], alphabet[1] + 1)]
    out = [""]
    frontier = [""]
    for _ in range(max_len):
        frontier = [w + ch for w in frontier for ch in chars]
        out.extend(frontier)
    return out


def random_snfa(rng: random.Random, max_states: int = 5,
                alphabet: tuple[int, int] = LEMMA_ALPHABET,
                max_transitions: int = 6) -> SNfa:
    """A random trim automaton over a small alphabet (language may be empty)."""
    n = rng.randint(1, max_states)
    states = range(n)
    rows: list[list[tuple[int, int, int]]] = [[] for _ in states]
    for _ in range(rng.randint(0, max_transitions)):
        lo = rng.randint(alphabet[0], alphabet[1])
        hi = rng.randint(lo, alphabet[1])
        src, dst = rng.choice(states), rng.choice(states)
        rows[src].append((lo, hi, dst))
    initial = rng.sample(states, rng.randint(1, n))
    accepting = [s for s in states if rng.random() < 0.5]
    return remove_unreachable(snfa(rows, initial, accepting))


def random_problem(rng: random.Random, max_vars: int = 4, tree_only: bool = False,
                   alphabet: tuple[int, int] = TEST_ALPHABET) -> Problem:
    """A random acyclic problem; with tree_only no variable repeats on any
    right-hand side. Regular constraints skew small to keep oracles fast."""
    n = rng.randint(1, max_vars)
    names = [f"v{i}" for i in range(n)]
    pairs: dict[str, set[tuple[str, str]]] = {}
    used_rhs: set[str] = set()
    for i, lhs in enumerate(names):
        later = names[i + 1:]
        if len(later) < 1 or rng.random() > 0.7:
            continue
        for _ in range(1 if rng.random() < 0.8 else 2):
            if tree_only:
                avail = [v for v in later if v not in used_rhs]
                if len(avail) < 2:
                    break
                v1, v2 = rng.sample(avail, 2)
                used_rhs.update((v1, v2))
            else:
                v1 = rng.choice(later)
                v2 = rng.choice(later)
            pairs.setdefault(lhs, set()).add((v1, v2))
    chars = [chr(c) for c in range(alphabet[0], alphabet[1] + 1)]
    reg = {}
    for v in names:
        roll = rng.random()
        if roll < 0.15:
            reg[v] = rx.sigma_star()
        elif roll < 0.45:
            word = "".join(rng.choice(chars) for _ in range(rng.randint(0, 2)))
            reg[v] = rx.word_automaton(word)
        elif roll < 0.65:
            reg[v] = rx.length_automaton(rng.choice(["<=", "="]), rng.randint(0, 2))
        else:
            reg[v] = random_snfa(rng, max_states=4, alphabet=alphabet, max_transitions=5)
    return make_problem(names, pairs, reg)


def ref_regex_match(node: rx.Regex, w: str) -> bool:
    """Reference matcher: structural recursion with explicit split search."""
    if isinstance(node, rx.Literal):
        return w == node.word
    if isinstance(node, rx.CharClass):
        return len(w) == 1 and any(lo <= ord(w) <= hi for lo, hi in node.chars)
    if isinstance(node, rx.Concat):
        return _match_seq(node.items, w)
    if isinstance(node, rx.Union):
        return any(ref_regex_match(item, w) for item in node.items)
    if isinstance(node, rx.Star):
        if w == "":
            return True
        return any(ref_regex_match(node.item, w[:i]) and ref_regex_match(node, w[i:])
                   for i in range(1, len(w) + 1))
    if isinstance(node, rx.Plus):
        return any(ref_regex_match(node.item, w[:i])
                   and (i == len(w) or ref_regex_match(node, w[i:]))
                   for i in range(1, len(w) + 1)) or (w == "" and ref_regex_match(node.item, ""))
    if isinstance(node, rx.Opt):
        return w == "" or ref_regex_match(node.item, w)
    raise TypeError(node)


def _match_seq(items: tuple[rx.Regex, ...], w: str) -> bool:
    if not items:
        return w == ""
    return any(ref_regex_match(items[0], w[:i]) and _match_seq(items[1:], w[i:])
               for i in range(len(w) + 1))


def random_regex(rng: random.Random, depth: int,
                 alphabet: tuple[int, int] = TEST_ALPHABET) -> rx.Regex:
    lo, hi = alphabet
    if depth == 0:
        roll = rng.random()
        if roll < 0.4:
            return rx.Literal("".join(chr(rng.randint(lo, hi)) for _ in range(rng.randint(1, 3))))
        if roll < 0.7:
            a = rng.randint(lo, hi)
            b = rng.randint(a, hi)
            return rx.CharClass(((a, b),))
        if roll < 0.85:
            return rx.CharClass((FULL,))
        return rx.Literal("")
    roll = rng.random()
    if roll < 0.3:
        return rx.Concat(tuple(random_regex(rng, depth - 1, alphabet)
                               for _ in range(rng.randint(2, 3))))
    if roll < 0.55:
        return rx.Union(tuple(random_regex(rng, depth - 1, alphabet) for _ in range(2)))
    if roll < 0.7:
        return rx.Star(random_regex(rng, depth - 1, alphabet))
    if roll < 0.8:
        return rx.Plus(random_regex(rng, depth - 1, alphabet))
    if roll < 0.9:
        return rx.Opt(random_regex(rng, depth - 1, alphabet))
    return random_regex(rng, 0, alphabet)


NO_WORD = CharClass(())


def _without_never(node: Regex) -> Regex:
    """Rewrite away embedded subterms that denote no word so the position
    construction below never creates unreachable states; only a top-level
    empty class survives."""
    if isinstance(node, Concat):
        items = tuple(_without_never(x) for x in node.items)
        return NO_WORD if NO_WORD in items else Concat(items)
    if isinstance(node, Union):
        items = tuple(x for x in (_without_never(x) for x in node.items) if x != NO_WORD)
        if not items:
            return NO_WORD
        return items[0] if len(items) == 1 else Union(items)
    if isinstance(node, Star):
        inner = _without_never(node.item)
        return Literal("") if inner == NO_WORD else Star(inner)
    if isinstance(node, Plus):
        inner = _without_never(node.item)
        return NO_WORD if inner == NO_WORD else Plus(inner)
    if isinstance(node, Opt):
        inner = _without_never(node.item)
        return Literal("") if inner == NO_WORD else Opt(inner)
    return node


def compile_reference(ast: Regex) -> SNfa:
    """Two-pass reference for `regex.compile`: rewrite away the subterms that
    denote no word, then run the position construction on what is left. The
    result is epsilon-free and trim."""
    ast = _without_never(ast)
    labels: list[tuple] = []             # label pairs of position p at labels[p-1]
    follow: list[set[int]] = []          # follow set of position p at follow[p-1]

    def new_pos(chars: tuple) -> int:
        labels.append(chars)
        follow.append(set())
        return len(labels)

    def link(lasts: tuple[int, ...], firsts: tuple[int, ...]) -> None:
        for p in lasts:
            follow[p - 1].update(firsts)

    def lin(node: Regex) -> tuple[bool, tuple[int, ...], tuple[int, ...]]:
        if isinstance(node, Literal):  # expanded: the Concat of its characters
            if not node.word:
                return True, (), ()
            return lin(Concat(tuple(CharClass(((cp, cp),)) for cp in map(ord, node.word))))
        if isinstance(node, CharClass):
            if not node.chars:
                return False, (), ()
            p = new_pos(node.chars)
            return False, (p,), (p,)
        if isinstance(node, Concat):
            nullable, first, last = lin(node.items[0])
            for item in node.items[1:]:
                n2, f2, l2 = lin(item)
                link(last, f2)
                first = first + f2 if nullable else first
                last = last + l2 if n2 else l2
                nullable = nullable and n2
            return nullable, first, last
        if isinstance(node, Union):
            nullable, first, last = False, (), ()
            for item in node.items:
                n2, f2, l2 = lin(item)
                nullable = nullable or n2
                first += f2
                last += l2
            return nullable, first, last
        if isinstance(node, Star):
            _, first, last = lin(node.item)
            link(last, first)
            return True, first, last
        if isinstance(node, Plus):
            nullable, first, last = lin(node.item)
            link(last, first)
            return nullable, first, last
        if isinstance(node, Opt):
            _, first, last = lin(node.item)
            return True, first, last
        raise TypeError(f"not a regex node: {node!r}")

    nullable, first, last = lin(ast)
    # state 0 is the initial state and state p is position p
    rows = [[(lo, hi, p) for p in first for lo, hi in labels[p - 1]]]
    rows += [[(lo, hi, q) for q in follow[p - 1] for lo, hi in labels[q - 1]]
             for p in range(1, len(labels) + 1)]
    accepting = set(last)
    if nullable:
        accepting.add(0)
    return snfa(rows, {0}, accepting, trim=True)


# `constraints.layering` as it was before Kahn's algorithm: it rescans the
# remaining variables once per layer. The new one must give the same layers,
# or raise with the same variables.

def dependencies(p: Problem, v: VarId) -> set[VarId]:
    deps: set[VarId] = set()
    for v1, v2 in p.concat.get(v, ()):
        deps.add(v1)
        deps.add(v2)
    return deps


def layering_reference(p: Problem) -> list[set[VarId]]:
    """Arrange variables into dependence layers, most dependent first.

    Each variable's dependencies lie strictly in later layers; such a list
    exists exactly when the dependence graph is acyclic. On a cycle, raises
    CyclicDependencyError carrying the stuck variables.
    """
    deps = {v: dependencies(p, v) for v in p.variables}
    level: dict[VarId, int] = {}
    remaining = set(p.variables)
    while remaining:
        ready = [v for v in remaining if deps[v] <= level.keys()]
        if not ready:
            raise CyclicDependencyError(frozenset(remaining))
        for v in ready:
            level[v] = 1 + max((level[d] for d in deps[v]), default=-1)
        remaining.difference_update(ready)
    layers: dict[int, set[VarId]] = {}
    for v, lv in level.items():
        layers.setdefault(lv, set()).add(v)
    return [layers[lv] for lv in sorted(layers, reverse=True)]


# `constraints.expand_or` as it was before its explicit stack: it recurses
# into the branches of each `or`. The new one must give the same conjunctions
# in the same order, or raise at the same cap.

def expand_or_reference(cs: list[SurfaceConstraint]) -> list[list[SurfaceConstraint]]:
    """Cartesian expansion of nested disjunctions into flat conjunctions, of
    at most MAX_DISJUNCTS of them."""
    alternatives: list[list[list[SurfaceConstraint]]] = []
    total = 1
    for c in cs:
        branches: list[list[SurfaceConstraint]] = [[c]]
        if isinstance(c, Or):
            branches = []
            for branch in c.branches:
                branches.extend(expand_or_reference(list(branch)))
        alternatives.append(branches)
        total *= len(branches)
        if total > MAX_DISJUNCTS:
            raise ResourceLimitError(f"disjunction expands to more than {MAX_DISJUNCTS} cases")
    out = []
    for combo in itertools.product(*alternatives):
        out.append([c for chunk in combo for c in chunk])
    return out


def split_word_scan(a1: SNfa, a2: SNfa, w: str) -> tuple[str, str] | None:
    """Reference split: try every prefix, shortest first, with two membership
    tests each. Quadratic in |w|; `snfa.split_word` must return the same."""
    for i in range(len(w) + 1):
        if accepts_reference(a1, w[:i]) and accepts_reference(a2, w[i:]):
            return w[:i], w[i:]
    return None


# Membership and the shortest word as `snfa` computed them before it walked
# one-transition chains: a fresh state set per character, and a plain
# breadth-first search. `accepts`, `split_word` and `some_word` must agree.

def _step_reference(rows: tuple[tuple[Row, ...], ...], current: set[int] | frozenset[int],
                    cp: int) -> set[int]:
    nxt = set()
    for q in current:
        for lo, hi, d in rows[q]:
            if lo <= cp <= hi:
                nxt.add(d)
    return nxt


def accepts_reference(a: SNfa, word: str) -> bool:
    """Membership by forward state-set simulation."""
    current: set[int] | frozenset[int] = a.initial
    if not current:
        return False
    rows = a.rows
    for ch in word:
        current = _step_reference(rows, current, ord(ch))
        if not current:
            return False
    return not a.accepting.isdisjoint(current)


def some_word_reference(a: SNfa) -> str | None:
    """A shortest accepted word, the first one breadth-first search from the
    sorted initial states meets, taking each label's lo; None if empty."""
    if not a.accepting:
        return None
    seeds = sorted(a.initial)
    for q in seeds:
        if q in a.accepting:
            return ""
    parent: dict[int, tuple[int, int]] = {}
    seen = set(seeds)
    queue = deque(seeds)
    while queue:
        q = queue.popleft()
        for lo, _, d in a.rows[q]:
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


# The SMT-LIB reader as it was before `parse_smt` reduced each list at its
# `)`: `_read_all` builds a tree of SNodes, and recursive interpreters walk
# it top-down. `parse_smt` must give the same script, or raise the same
# error at the same offset.

@dataclass(frozen=True)
class SStr:
    """A decoded string literal (kept distinct from symbols)."""
    text: str


class SNode:
    """An s-expression node and the offset where it starts in the source."""

    __slots__ = ("val", "pos")

    def __init__(self, val: object, pos: int):
        self.val = val  # str symbol | int | SStr | tuple[SNode, ...]
        self.pos = pos


# The reader's token pattern, its group numbers and its string decoder as
# they were when `parse_smt` first read in one pass, copied so that the
# reference reader does not change along with the code it checks.
_ESCAPE = re.compile(r'""|\\u(?:\{([^}]*)(\}?)|([0-9A-Fa-f]{4}))')


def _decode_string(raw: str, pos: int) -> str:
    """Decode the inside of an SMT string literal: "" is a quote, \\u{H+} and
    \\uHHHH are code points, any other backslash stands for itself."""
    if '"' not in raw and "\\u" not in raw:
        return raw

    def escape(m: re.Match) -> str:
        kind = m.lastindex
        if kind is None:
            return '"'
        if kind == 3:
            return chr(int(m[3], 16))
        if not m[2]:
            raise SyntaxParseError("unterminated \\u{...} escape in string", pos)
        cp = hex_value(m[1])
        if cp is None:
            raise SyntaxParseError("bad hex in \\u{...} escape", pos)
        if cp > MAX_CODEPOINT:
            raise SyntaxParseError("bad code point in \\u{...} escape", pos)
        return chr(cp)

    return _ESCAPE.sub(escape, raw)


_TOKEN = re.compile(r"""
    (?:[ \t\r\n]+ | ;[^\n]*)*+
    (?: (\()
      | (\))
      | "((?:[^"]*+"")*+[^"]*+)"
      | \|([^|]*)\|
      | (-?[0-9]++)(?![^ \t\r\n();"|])
      | ([^ \t\r\n();"|]+)
      | (.)
      | \Z)
""", re.VERBOSE | re.DOTALL)
_OPEN, _CLOSE, _STRING, _QUOTED, _NUMERAL, _WORD, _STRAY = range(1, 8)


def _read_all(src: str) -> list[SNode]:
    stack: list[tuple[list[SNode], int]] = []
    top: list[SNode] = []
    for m in _TOKEN.finditer(src):
        kind = m.lastindex
        if kind == _OPEN:
            stack.append((top, m.end() - 1))
            top = []
        elif kind == _CLOSE:
            if not stack:
                raise SyntaxParseError("unbalanced )", m.end() - 1)
            parent, open_pos = stack.pop()
            parent.append(SNode(tuple(top), open_pos))
            top = parent
        elif kind == _WORD:
            top.append(SNode(m[kind], m.start(kind)))
        elif kind == _STRING:
            pos = m.start(kind) - 1  # the opening quote
            top.append(SNode(SStr(_decode_string(m[kind], pos)), pos))
        elif kind == _QUOTED:
            top.append(SNode(m[kind], m.start(kind) - 1))
        elif kind == _NUMERAL:
            text = m[kind]
            if len(text) - (text[0] == "-") > MAX_NUMERAL_DIGITS:
                raise SyntaxParseError(f"numeral longer than {MAX_NUMERAL_DIGITS} digits",
                                       m.start(kind))
            top.append(SNode(int(text), m.start(kind)))
        elif kind == _STRAY:
            if m[kind] == '"':
                raise SyntaxParseError("unterminated string literal", m.start(kind))
            raise SyntaxParseError("unterminated quoted symbol", m.start(kind))
    if stack:
        raise SyntaxParseError("unbalanced (", stack[-1][1])
    return top


def parse_smt_reference(src: str) -> SmtScript:
    """Parse an SMT-LIB script in the supported string fragment."""
    declarations: list[tuple[str, str]] = []
    declared: set[str] = set()
    assertions: list[SurfaceConstraint] = []
    has_check_sat = False
    for node in _read_all(src):
        if not isinstance(node.val, tuple) or not node.val:
            raise SyntaxParseError("expected a command", node.pos)
        head = node.val[0].val
        args = node.val[1:]
        if head in _IGNORED_COMMANDS:
            continue
        if head == "check-sat":
            has_check_sat = True
            continue
        if head in ("declare-fun", "declare-const"):
            name, sort = _declaration(head, args, node.pos)
            if name in declared:
                raise SyntaxParseError(f"duplicate declaration of {name!r}", node.pos)
            declared.add(name)
            declarations.append((name, sort))
            continue
        if head == "assert":
            if len(args) != 1:
                raise SyntaxParseError("assert takes exactly one term", node.pos)
            assertions.extend(_constraints(args[0], declared))
            continue
        raise UnsupportedError(f"command {head}", node.pos)
    return SmtScript(tuple(declarations), tuple(assertions), has_check_sat)


def _declaration(head: str, args: tuple[SNode, ...], pos: int) -> tuple[str, str]:
    if head == "declare-fun":
        if len(args) != 3 or not isinstance(args[0].val, str):
            raise SyntaxParseError("malformed declare-fun", pos)
        if args[1].val != ():
            raise UnsupportedError("function declarations with arguments", pos)
        name, sort = args[0].val, args[2].val
    else:
        if len(args) != 2 or not isinstance(args[0].val, str):
            raise SyntaxParseError("malformed declare-const", pos)
        name, sort = args[0].val, args[1].val
    if sort != "String":
        raise UnsupportedError(f"sort {sort}", pos)
    return name, "String"


def _constraints(node: SNode, declared: set[str]) -> list[SurfaceConstraint]:
    """A term in assert position, flattened over `and`."""
    if not isinstance(node.val, tuple) or not node.val:
        raise UnsupportedError("assertion that is not an application", node.pos)
    head = node.val[0].val
    args = node.val[1:]
    if head == "and":
        out: list[SurfaceConstraint] = []
        for a in args:
            out.extend(_constraints(a, declared))
        return out
    if head == "or":
        if not args:
            raise SyntaxParseError("empty disjunction", node.pos)
        return [Or(tuple(tuple(_constraints(a, declared)) for a in args))]
    if head in ("str.in_re", "str.in.re"):
        if len(args) != 2:
            raise SyntaxParseError("str.in_re takes a variable and a regex", node.pos)
        var = _variable(args[0], declared)
        return [Membership(var, _regex(args[1]))]
    if head in ("<", "<=", "=", ">=", ">"):
        if len(args) != 2:
            raise UnsupportedError(f"non-binary {head}", node.pos)
        return [_comparison(head, args[0], args[1], declared, node.pos)]
    raise UnsupportedError(f"operator {head}", node.pos)


def _is_strlen(node: SNode) -> bool:
    return (isinstance(node.val, tuple) and len(node.val) == 2
            and node.val[0].val == "str.len")


def _comparison(op: str, a: SNode, b: SNode, declared: set[str], pos: int) -> SurfaceConstraint:
    if _is_strlen(a) or _is_strlen(b):
        if _is_strlen(b):
            a, b = b, a
            op = _FLIP[op]
        var = _variable(a.val[1], declared)  # type: ignore[index]
        if not isinstance(b.val, int):
            raise UnsupportedError("length compared to a non-constant", b.pos)
        if b.val < 0:
            raise SyntaxParseError("negative length bound", b.pos)
        return Length(var, op, b.val)
    if op != "=":
        raise UnsupportedError(f"arithmetic comparison {op}", pos)
    return _equation(a, b, declared, pos)


def _equation(lhs: SNode, rhs: SNode, declared: set[str], pos: int) -> Equation:
    items = _word_items(rhs, declared)
    if isinstance(lhs.val, str):
        return Equation(Var(_variable(lhs, declared)), tuple(items))
    if isinstance(lhs.val, SStr):
        if any(isinstance(t, Var) for t in items):
            raise UnsupportedError("equation with a literal left-hand side", pos)
        return Equation(Lit(lhs.val.text), tuple(items))
    raise UnsupportedError("equation left-hand side is not a variable", lhs.pos)


def _word_items(node: SNode, declared: set[str]) -> list[Var | Lit]:
    if isinstance(node.val, str):
        return [Var(_variable(node, declared))]
    if isinstance(node.val, SStr):
        return [Lit(node.val.text)]
    if isinstance(node.val, tuple) and node.val and node.val[0].val == "str.++":
        out: list[Var | Lit] = []
        for part in node.val[1:]:
            out.extend(_word_items(part, declared))
        if not out:
            raise SyntaxParseError("empty str.++", node.pos)
        return out
    raise UnsupportedError("word term (expected variable, literal, or str.++)", node.pos)


def _variable(node: SNode, declared: set[str]) -> str:
    if not isinstance(node.val, str):
        raise UnsupportedError("expected a variable", node.pos)
    if node.val not in declared:
        raise SyntaxParseError(f"undeclared variable {node.val!r}", node.pos)
    return node.val


def _regex(node: SNode) -> rx.Regex:
    if isinstance(node.val, str):
        if node.val == "re.allchar":
            return rx.CharClass((FULL,))
        if node.val == "re.all":
            return rx.Star(rx.CharClass((FULL,)))
        if node.val == "re.none":
            return rx.CharClass(())
        raise UnsupportedError(f"regex symbol {node.val}", node.pos)
    if not isinstance(node.val, tuple) or not node.val:
        raise UnsupportedError("regex term", node.pos)
    head = node.val[0].val
    args = node.val[1:]
    if head in ("str.to_re", "str.to.re"):
        if len(args) != 1 or not isinstance(args[0].val, SStr):
            raise SyntaxParseError("str.to_re takes one string literal", node.pos)
        w = args[0].val.text
        return rx.CharClass(((ord(w), ord(w)),)) if len(w) == 1 else rx.Literal(w)
    if head == "re.++":
        items: list[rx.Regex] = []
        for a in args:
            sub = _regex(a)
            if isinstance(sub, rx.Concat):
                items.extend(sub.items)
            elif sub != rx.Literal(""):
                items.append(sub)
        if not items:
            return rx.Literal("")
        return items[0] if len(items) == 1 else rx.Concat(tuple(items))
    if head == "re.union":
        items = []
        for a in args:
            sub = _regex(a)
            if isinstance(sub, rx.Union):
                items.extend(sub.items)
            else:
                items.append(sub)
        if not items:
            raise SyntaxParseError("empty re.union", node.pos)
        if len(items) > 1 and all(isinstance(x, rx.CharClass) and x.chars for x in items):
            return rx.CharClass(normalize(p for x in items for p in x.chars))
        return items[0] if len(items) == 1 else rx.Union(tuple(items))
    if head in ("re.*", "re.+", "re.opt"):
        if len(args) != 1:
            raise SyntaxParseError(f"{head} takes one regex", node.pos)
        inner = _regex(args[0])
        return {"re.*": rx.Star, "re.+": rx.Plus, "re.opt": rx.Opt}[head](inner)
    if head == "re.range":
        if len(args) != 2 or not (isinstance(args[0].val, SStr) and isinstance(args[1].val, SStr)):
            raise SyntaxParseError("re.range takes two string literals", node.pos)
        lo, hi = args[0].val.text, args[1].val.text  # type: ignore[union-attr]
        if len(lo) != 1 or len(hi) != 1 or ord(lo) > ord(hi):
            return rx.CharClass(())  # standard semantics: such a range denotes no characters
        return rx.CharClass(((ord(lo), ord(hi)),))  # one range is normal
    raise UnsupportedError(f"regex operator {head}", node.pos)


def _decode_string_scan(raw: str, pos: int) -> str:
    """Decode the inside of an SMT string literal: "" is a quote, \\u{H+} and
    \\uHHHH are code points, any other backslash stands for itself."""
    out: list[str] = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch == '"':  # always doubled by the tokenizer
            out.append('"')
            i += 2
            continue
        if ch == "\\" and i + 1 < len(raw) and raw[i + 1] == "u":
            if i + 2 < len(raw) and raw[i + 2] == "{":
                end = raw.find("}", i + 3)
                if end < 0:
                    raise SyntaxParseError("unterminated \\u{...} escape in string", pos)
                cp = hex_value(raw[i + 3:end])
                if cp is None:
                    raise SyntaxParseError("bad hex in \\u{...} escape", pos)
                if cp > MAX_CODEPOINT:
                    raise SyntaxParseError("bad code point in \\u{...} escape", pos)
                out.append(chr(cp))
                i = end + 1
                continue
            digits = raw[i + 2:i + 6]
            cp = hex_value(digits) if len(digits) == 4 else None
            if cp is not None:
                out.append(chr(cp))
                i += 6
                continue
        out.append(ch)
        i += 1
    return "".join(out)


def _tokenize_scan(src: str) -> Iterator[tuple[str, object, int]]:
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == ";":
            while i < n and src[i] != "\n":
                i += 1
            continue
        if ch in "()":
            yield ch, ch, i
            i += 1
            continue
        if ch == '"':
            start = i
            i += 1
            buf: list[str] = []
            while True:
                if i >= n:
                    raise SyntaxParseError("unterminated string literal", start)
                if src[i] == '"':
                    if i + 1 < n and src[i + 1] == '"':
                        buf.append('""')
                        i += 2
                        continue
                    i += 1
                    break
                buf.append(src[i])
                i += 1
            yield "str", SStr(_decode_string_scan("".join(buf), start)), start
            continue
        if ch == "|":
            start = i
            end = src.find("|", i + 1)
            if end < 0:
                raise SyntaxParseError("unterminated quoted symbol", start)
            yield "sym", src[i + 1:end], start
            i = end + 1
            continue
        start = i
        while i < n and src[i] not in ' \t\r\n();"|':
            i += 1
        word = src[start:i]
        if word.isascii() and (word.isdigit() or (word.startswith("-") and word[1:].isdigit())):
            yield "num", int(word), start
        else:
            yield "sym", word, start


def read_all_scan(src: str) -> list[SNode]:
    """Reference reader: a character-at-a-time tokenizer and decoder feeding a
    stack of open lists. `_read_all` above must give the same nodes, or
    raise the same error at the same position."""
    stack: list[tuple[list[SNode], int]] = []
    top: list[SNode] = []
    for kind, val, pos in _tokenize_scan(src):
        if kind == "(":
            stack.append((top, pos))
            top = []
        elif kind == ")":
            if not stack:
                raise SyntaxParseError("unbalanced )", pos)
            parent, open_pos = stack.pop()
            parent.append(SNode(tuple(top), open_pos))
            top = parent
        else:
            top.append(SNode(val, pos))
    if stack:
        raise SyntaxParseError("unbalanced (", stack[-1][1])
    return top


# The SMT-LIB printer: `parse_smt(print_smt(s))` must equal `s` for a
# parsed script `s`, which the round-trip tests check.

def print_smt(script: SmtScript) -> str:
    lines = [f"(declare-fun {name} () {sort})" for name, sort in script.declarations]
    for c in script.assertions:
        lines.append(f"(assert {_print_constraint(c)})")
    if script.has_check_sat:
        lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


def _print_constraint(c: SurfaceConstraint) -> str:
    if isinstance(c, Membership):
        return f"(str.in_re {c.var} {_print_regex(c.regex)})"
    if isinstance(c, Length):
        return f"({c.op} (str.len {c.var}) {c.bound})"
    if isinstance(c, Equation):
        lhs = c.lhs.name if isinstance(c.lhs, Var) else f'"{encode_string(c.lhs.word)}"'
        parts = [t.name if isinstance(t, Var) else f'"{encode_string(t.word)}"' for t in c.rhs]
        rhs = parts[0] if len(parts) == 1 else "(str.++ " + " ".join(parts) + ")"
        return f"(= {lhs} {rhs})"
    if isinstance(c, Or):
        branches = []
        for branch in c.branches:
            printed = [_print_constraint(x) for x in branch]
            branches.append(printed[0] if len(printed) == 1 else "(and " + " ".join(printed) + ")")
        return "(or " + " ".join(branches) + ")"
    raise TypeError(f"not a constraint: {c!r}")


def _print_regex(r: rx.Regex) -> str:
    if isinstance(r, rx.Literal):
        return f'(str.to_re "{encode_string(r.word)}")'
    if r == rx.CharClass(()):
        return "re.none"
    if r == rx.CharClass((FULL,)):
        return "re.allchar"
    if isinstance(r, rx.CharClass):
        ranges = [f'(re.range "{encode_string(chr(lo))}" "{encode_string(chr(hi))}")'
                  for lo, hi in r.chars]
        return ranges[0] if len(ranges) == 1 else "(re.union " + " ".join(ranges) + ")"
    if isinstance(r, rx.Concat):
        return "(re.++ " + " ".join(_print_regex(x) for x in r.items) + ")"
    if isinstance(r, rx.Union):
        return "(re.union " + " ".join(_print_regex(x) for x in r.items) + ")"
    if isinstance(r, rx.Star):
        return f"(re.* {_print_regex(r.item)})"
    if isinstance(r, rx.Plus):
        return f"(re.+ {_print_regex(r.item)})"
    if isinstance(r, rx.Opt):
        return f"(re.opt {_print_regex(r.item)})"
    raise TypeError(f"not a regex node: {r!r}")


# The `concat` and `product` kernels as they were before pair states of two
# one-entry rows were built directly and `concat` read reachability off the
# trim flags: a worklist pass over both operands, states ordered by a key
# function, and every row through `_sorted_row`. `snfa.product` must build
# the same automata as `product_reference`. `snfa.concat` numbers its states
# in discovery order, so it must build `product_reference(sigma_star(),
# concat_reference(a1, a2))`, the reference's states renumbered.

class CountingBudget(Budget):
    """A budget that records the transition count of every check."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.checked: list[int] = []

    def check(self, transitions: int) -> None:
        self.checked.append(transitions)
        super().check(transitions)


def _sorted_row_reference(row: list[Row]) -> tuple[Row, ...]:
    """`row` sorted and without duplicates (sorting first makes any
    duplicates adjacent, and they are rare)."""
    row.sort()
    if any(map(eq, row, islice(row, 1, None))):
        return tuple(sorted(set(row)))
    return tuple(row)


def concat_reference(a1: SNfa, a2: SNfa, budget: Budget | None = None) -> SNfa:
    """Concatenation: L(result) = { w1+w2 | w1 in L(a1), w2 in L(a2) }.

    State i of a1 gets the key 2i and state j of a2 the key 2j+1, which keeps
    the operands disjoint. Every a1-transition into an a1-accepting state is
    bridged to each a2-initial state; the initial set additionally includes
    a2's when a1 accepts the empty word. A worklist pass keeps only states
    reachable from the initial set, so the result is trim by construction;
    the kept states are numbered in the order of their keys. The budget is
    consulted as in `product`.
    """
    rows1, rows2, acc1 = a1.rows, a2.rows, a1.accepting
    n1 = len(rows1)
    entry2 = [n1 + j for j in sorted(a2.initial)]   # a2's state j is n1 + j here
    start = sorted(a1.initial)
    if not acc1.isdisjoint(a1.initial):
        start += entry2

    reached = set(start)
    queue = deque(start)
    while queue:
        q = queue.popleft()
        if q < n1:
            succ = [d for _, _, d in rows1[q]]
            if not acc1.isdisjoint(succ):
                succ += entry2
        else:
            succ = [n1 + d for _, _, d in rows2[q - n1]]
        for d in succ:
            if d not in reached:
                reached.add(d)
                queue.append(d)

    order = sorted(reached, key=lambda q: 2 * q if q < n1 else 2 * (q - n1) + 1)
    new = {q: k for k, q in enumerate(order)}
    entry = [new[q] for q in entry2 if q in new]
    cap = budget.max_transitions if budget is not None else float("inf")
    rows: list[tuple[Row, ...]] = []
    emitted = 0
    for k, q in enumerate(order):
        if budget is not None and not k % BUDGET_STRIDE:
            budget.check(emitted)
        if q < n1:
            row = []
            bridged = False
            for lo, hi, d in rows1[q]:
                row.append((lo, hi, new[d]))
                if d in acc1:
                    bridged = True
                    row.extend((lo, hi, e) for e in entry)
            rows.append(_sorted_row_reference(row) if bridged else tuple(row))
        else:
            rows.append(tuple((lo, hi, new[n1 + d]) for lo, hi, d in rows2[q - n1]))
        emitted += len(rows[-1])
        if emitted > cap:
            budget.check(emitted)
    return SNfa(tuple(rows), frozenset(new[q] for q in start),
                frozenset(new[q] for q in order if q >= n1 and q - n1 in a2.accepting),
                trim=True)


def product_reference(a1: SNfa, a2: SNfa, budget: Budget | None = None) -> SNfa:
    """Product: L(result) = L(a1) & L(a2).

    Pair states are numbered in breadth-first discovery order from I1 x I2,
    so only reachable pairs are built, and they are explored in that same
    order. A pair transition is kept exactly when the label intersection is
    non-empty; each state's rows are sorted and deduplicated once, when the
    state is explored.

    With a budget, `budget.check` runs before every BUDGET_STRIDE-th pair
    state is explored, before any run of rows of a1 that would take the row
    pairs scanned since the last check past PAIR_STRIDE (a row of a1 counts
    as |rows2[q]| pairs), and as soon as the number of distinct transitions
    built passes `budget.max_transitions`, so a run past either limit stops
    inside the operation.
    """
    rows1, rows2 = a1.rows, a2.rows
    n2 = len(rows2)
    pairs = [(p, q) for p in sorted(a1.initial) for q in sorted(a2.initial)]
    ids = {p * n2 + q: i for i, (p, q) in enumerate(pairs)}
    get = ids.get
    # many pair states reach the same pair on the same label: one tuple each
    shared = {}.setdefault
    cap = budget.max_transitions if budget is not None else float("inf")
    rows: list[tuple[Row, ...]] = []
    emitted = 0
    scanned = 0  # row pairs scanned since the last check, |r2| per row of a1
    for src, (p, q) in enumerate(pairs):  # `pairs` grows while it is walked
        if budget is not None and not src % BUDGET_STRIDE:
            budget.check(emitted)
            scanned = 0
        row: list[Row] = []
        add = row.append
        r2 = rows2[q]
        if r2:
            r1 = rows1[p]
            scanned += len(r1) * len(r2)
            if scanned > PAIR_STRIDE and budget is not None:
                # check before each run of `step` rows of a1 in this state
                width = len(r2)
                step = PAIR_STRIDE // width or 1
                scanned = ((len(r1) - 1) % step + 1) * width  # the last run's pairs
                r1 = _in_strides_reference(r1, step, budget, emitted)
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
        rows.append(_sorted_row_reference(row))
        emitted += len(rows[-1])
        if emitted > cap:
            budget.check(emitted)
    acc1, acc2 = a1.accepting, a2.accepting
    return SNfa(tuple(rows), frozenset(range(len(a1.initial) * len(a2.initial))),
                frozenset(i for i, (p, q) in enumerate(pairs) if p in acc1 and q in acc2),
                trim=True)


def _in_strides_reference(rows: tuple[Row, ...], step: int, budget: Budget, emitted: int) -> Iterator[Row]:
    """The rows, with `budget.check(emitted)` before each run of `step` of them."""
    for i in range(0, len(rows), step):
        budget.check(emitted)
        yield from rows[i:i + step]


def isomorphic(a1: SNfa, a2: SNfa, cap: int = DEFAULT_ISO_CAP) -> bool:
    """Structural isomorphism (exact labels), by backtracking search.

    Exponential in the worst case, hence the small default state cap.
    """
    if len(a1.states) > cap or len(a2.states) > cap:
        raise ResourceLimitError(
            f"isomorphism check limited to {cap} states "
            f"(got {len(a1.states)} and {len(a2.states)})")
    if (len(a1.states) != len(a2.states) or len(a1.transitions) != len(a2.transitions)
            or len(a1.initial) != len(a2.initial) or len(a1.accepting) != len(a2.accepting)):
        return False

    # each transition as (src, (lo, hi), dst), read from the rows
    trans1 = [(src, (lo, hi), dst) for src, row in enumerate(a1.rows) for lo, hi, dst in row]
    trans2 = {(src, (lo, hi), dst) for src, row in enumerate(a2.rows) for lo, hi, dst in row}

    def signature(trans, a: SNfa, q: int) -> tuple:
        out_labels = sorted(label for src, label, _ in trans if src == q)
        in_labels = sorted(label for _, label, dst in trans if dst == q)
        return (q in a.initial, q in a.accepting, tuple(out_labels), tuple(in_labels))

    sig2: dict[tuple, list[int]] = defaultdict(list)
    for q in sorted(a2.states):
        sig2[signature(trans2, a2, q)].append(q)

    order = sorted(a1.states)
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def consistent(q1: int, q2: int) -> bool:
        for src, label, dst in trans1:
            if src == q1 and dst in mapping:
                if (q2, label, mapping[dst]) not in trans2:
                    return False
            if dst == q1 and src in mapping:
                if (mapping[src], label, q2) not in trans2:
                    return False
            if src == q1 and dst == q1:
                if (q2, label, q2) not in trans2:
                    return False
        return True

    def assign(i: int) -> bool:
        if i == len(order):
            mapped = {(mapping[src], label, mapping[dst]) for src, label, dst in trans1}
            return mapped == trans2
        q1 = order[i]
        for q2 in sig2.get(signature(trans1, a1, q1), ()):
            if q2 in used or not consistent(q1, q2):
                continue
            mapping[q1] = q2
            used.add(q2)
            if assign(i + 1):
                return True
            del mapping[q1]
            used.remove(q2)
        return False

    return assign(0)
