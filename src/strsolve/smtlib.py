"""SMT-LIB 2.6 string-fragment parsing and printing.

Supported commands and operators are listed in docs/smtlib-subset.md.
Legacy spellings from older string benchmarks (str.in.re, str.to.re) are
accepted and normalized. Parsing produces a SmtScript of surface
constraints; print_smt renders one back so that parse(print(parse(s)))
equals parse(s), which the round-trip tests rely on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import regex as rx
from .constraints import Equation, Length, Lit, Membership, Or, SurfaceConstraint, Var
from .errors import SyntaxParseError, UnsupportedError
from .intervals import FULL, MAX_CODEPOINT, Interval, IntervalSet

_IGNORED_COMMANDS = {"set-logic", "set-option", "set-info", "exit"}
_FLIP = {"<": ">", "<=": ">=", "=": "=", ">=": "<=", ">": "<"}


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


@dataclass(frozen=True)
class SmtScript:
    declarations: tuple[tuple[str, str], ...]  # (name, sort); sort is always "String"
    assertions: tuple[SurfaceConstraint, ...]
    has_check_sat: bool


# ---------------------------------------------------------------------------
# Reader

# One escape of a string literal body, told apart by `lastindex`: None for
# a doubled quote, 2 for \u{...} (group 1 the digits, group 2 the closing
# brace, empty when it is missing), 3 for \uHHHH.
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
        cp = rx.hex_value(m[1])
        if cp is None:
            raise SyntaxParseError("bad hex in \\u{...} escape", pos)
        if cp > MAX_CODEPOINT:
            raise SyntaxParseError("bad code point in \\u{...} escape", pos)
        return chr(cp)

    return _ESCAPE.sub(escape, raw)


def encode_string(w: str) -> str:
    """Render a word as an SMT string literal body."""
    out: list[str] = []
    for ch in w:
        if ch == '"':
            out.append('""')
        elif ch == "\\" or not (0x20 <= ord(ch) <= 0x7E):
            out.append(f"\\u{{{ord(ch):x}}}")
        else:
            out.append(ch)
    return "".join(out)


# One token per match, with the whitespace and comments before it, told
# apart by `lastindex`: the groups below, or None for what trails the last
# token. Whitespace is exactly space, tab, CR and LF (docs/smtlib-subset.md).
# The string body is unrolled and possessive: it takes "" pairs from the
# left, as a character scanner does, and does not backtrack to end an
# unterminated literal at a doubled quote. A lone " or | that starts no
# complete token falls through to the catch-all.
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
# A numeral of more digits is a syntax error, before `int()` meets Python's
# limit on converting long digit strings (4300 by default). Any length
# bound of this many digits is far past every length cap anyway.
MAX_NUMERAL_DIGITS = 1000


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


# ---------------------------------------------------------------------------
# Command interpretation

def parse_smt(src: str) -> SmtScript:
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


# ---------------------------------------------------------------------------
# Regex terms

_CHARLIKE = (rx.Literal, rx.CharClass, rx.AnyChar)


def _regex(node: SNode) -> rx.Regex:
    if isinstance(node.val, str):
        if node.val == "re.allchar":
            return rx.AnyChar()
        if node.val == "re.all":
            return rx.Star(rx.AnyChar())
        if node.val == "re.none":
            return rx.Never()
        raise UnsupportedError(f"regex symbol {node.val}", node.pos)
    if not isinstance(node.val, tuple) or not node.val:
        raise UnsupportedError("regex term", node.pos)
    head = node.val[0].val
    args = node.val[1:]
    if head in ("str.to_re", "str.to.re"):
        if len(args) != 1 or not isinstance(args[0].val, SStr):
            raise SyntaxParseError("str.to_re takes one string literal", node.pos)
        return _word_regex(args[0].val.text)
    if head == "re.++":
        items: list[rx.Regex] = []
        for a in args:
            sub = _regex(a)
            if isinstance(sub, rx.Concat):
                items.extend(sub.items)
            elif not isinstance(sub, rx.Epsilon):
                items.append(sub)
        if not items:
            return rx.Epsilon()
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
        if len(items) > 1 and all(isinstance(x, _CHARLIKE) for x in items):
            return rx.CharClass(IntervalSet.normalize(p for x in items for p in _char_parts(x)))
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
            return rx.Never()  # standard semantics: such a range denotes no characters
        return rx.CharClass(IntervalSet((Interval(ord(lo), ord(hi)),)))  # one range is normal
    raise UnsupportedError(f"regex operator {head}", node.pos)


def _char_parts(node: rx.Regex) -> tuple[Interval, ...]:
    if isinstance(node, rx.Literal):
        return (Interval(node.cp, node.cp),)
    if isinstance(node, rx.CharClass):
        return node.chars.parts
    return (FULL,)  # AnyChar


def _word_regex(w: str) -> rx.Regex:
    if not w:
        return rx.Epsilon()
    if len(w) == 1:
        return rx.Literal(ord(w))
    return rx.Concat(tuple(rx.Literal(ord(ch)) for ch in w))


# ---------------------------------------------------------------------------
# Printing

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
    if isinstance(r, rx.Epsilon):
        return '(str.to_re "")'
    if isinstance(r, rx.Never):
        return "re.none"
    if isinstance(r, rx.AnyChar):
        return "re.allchar"
    if isinstance(r, rx.Literal):
        return f'(str.to_re "{encode_string(chr(r.cp))}")'
    if isinstance(r, rx.CharClass):
        ranges = [f'(re.range "{encode_string(chr(p.lo))}" "{encode_string(chr(p.hi))}")'
                  for p in r.chars.parts]
        return ranges[0] if len(ranges) == 1 else "(re.union " + " ".join(ranges) + ")"
    if isinstance(r, rx.Concat):
        parts: list[str] = []
        run: list[int] = []

        def flush():
            if run:
                text = "".join(chr(cp) for cp in run)
                parts.append(f'(str.to_re "{encode_string(text)}")')
                run.clear()

        for item in r.items:
            if isinstance(item, rx.Literal):
                run.append(item.cp)
            else:
                flush()
                parts.append(_print_regex(item))
        flush()
        return parts[0] if len(parts) == 1 else "(re.++ " + " ".join(parts) + ")"
    if isinstance(r, rx.Union):
        return "(re.union " + " ".join(_print_regex(x) for x in r.items) + ")"
    if isinstance(r, rx.Star):
        return f"(re.* {_print_regex(r.item)})"
    if isinstance(r, rx.Plus):
        return f"(re.+ {_print_regex(r.item)})"
    if isinstance(r, rx.Opt):
        return f"(re.opt {_print_regex(r.item)})"
    raise TypeError(f"not a regex node: {r!r}")
