"""SMT-LIB 2.6 string-fragment parsing and printing.

Supported commands and operators are listed in docs/smtlib-subset.md.
Legacy spellings from older string benchmarks (str.in.re, str.to.re) are
accepted and normalized. Parsing produces a SmtScript of surface
constraints; print_smt renders one back so that parse(print(parse(s)))
equals parse(s), which the round-trip tests rely on.

`parse_smt` makes one pass over the tokens on one explicit stack, so any
nesting depth parses. Each list is reduced when its `)` arrives, from
reduced arguments. A failed reduction is the list's value, raised only
where the enclosing operator uses it: where a top-down reading meets it.
A text error anywhere in the file wins over the first bad command's error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import regex as rx
from .constraints import Equation, Length, Lit, Membership, Or, SurfaceConstraint, Var
from .errors import StrSolveError, SyntaxParseError, UnsupportedError
from .intervals import FULL, MAX_CODEPOINT, Interval, IntervalSet
from .snfa import BUDGET_STRIDE, DEFAULT_BUDGET, Budget

_IGNORED_COMMANDS = {"set-logic", "set-option", "set-info", "exit"}
_FLIP = {"<": ">", "<=": ">=", "=": "=", ">=": "<=", ">": "<"}
_CONSTRAINT_HEADS = {"and", "or", "str.in_re", "str.in.re", *_FLIP}
_REPEAT = {"re.*": rx.Star, "re.+": rx.Plus, "re.opt": rx.Opt}
_REGEX_HEADS = {"str.to_re", "str.to.re", "re.++", "re.union", "re.range", *_REPEAT}
_RE_SYMBOLS = {"re.allchar": rx.AnyChar(), "re.all": rx.Star(rx.AnyChar()), "re.none": rx.Never()}


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


# A term is a tuple (kind, value, start, end) over src[start:end]. The value
# of a symbol is its name, of a literal its decoded text, of a numeral its
# int, and of a list (head, result): the name of its first term (None if it
# is empty) and what `_reduce` made of the list, or the error that it raised.
_SYM, _STR, _NUM, _LIST = range(4)


def parse_smt(src: str, budget: Budget = DEFAULT_BUDGET) -> SmtScript:
    """Parse an SMT-LIB script in the supported string fragment. A list at
    depth 0 is a command, run when it closes. The budget is checked before
    every BUDGET_STRIDE-th token, starting with the first."""
    declared: dict[str, str] = {}  # name -> sort, in declaration order
    assertions: list[SurfaceConstraint] = []
    has_check_sat = False
    held: StrSolveError | None = None  # the first command error
    stack: list[tuple[int, list]] = []  # (offset, terms) of each enclosing list
    terms: list = []  # of the innermost open list; at depth 0, stray atoms
    for i, m in enumerate(_TOKEN.finditer(src)):
        if not i % BUDGET_STRIDE:
            budget.check(0)
        kind = m.lastindex
        if kind == _OPEN:
            stack.append((m.end() - 1, terms))
            terms = []
        elif kind == _CLOSE:
            if not stack:
                raise SyntaxParseError("unbalanced )", m.end() - 1)
            pos, parent = stack.pop()
            head = _name(terms[0], src) if terms else None
            if stack:
                try:
                    result = _reduce(head, terms[1:], pos, declared)
                except StrSolveError as err:
                    result = err
                parent.append((_LIST, (head, result), pos, m.end()))
            elif held is None:
                try:
                    if parent or head is None:  # an atom before this command, or ()
                        raise SyntaxParseError("expected a command", parent[0][2] if parent else pos)
                    if head == "check-sat":
                        has_check_sat = True
                    else:
                        _command(head, terms[1:], pos, declared, assertions, src)
                except StrSolveError as err:
                    held = err
            terms = parent
        elif kind == _WORD:
            terms.append((_SYM, m[kind], m.start(kind), m.end()))
        elif kind == _STRING:
            pos = m.start(kind) - 1  # the opening quote
            terms.append((_STR, _decode_string(m[kind], pos), pos, m.end()))
        elif kind == _QUOTED:
            terms.append((_SYM, m[kind], m.start(kind) - 1, m.end()))
        elif kind == _NUMERAL:
            text = m[kind]
            if len(text) - (text[0] == "-") > MAX_NUMERAL_DIGITS:
                raise SyntaxParseError(f"numeral longer than {MAX_NUMERAL_DIGITS} digits",
                                       m.start(kind))
            terms.append((_NUM, int(text), m.start(kind), m.end()))
        elif kind == _STRAY:
            what = "string literal" if m[kind] == '"' else "quoted symbol"
            raise SyntaxParseError(f"unterminated {what}", m.start(kind))
    if stack:
        raise SyntaxParseError("unbalanced (", stack[-1][0])
    if held is not None:
        raise held
    if terms:  # an atom after the last command
        raise SyntaxParseError("expected a command", terms[0][2])
    return SmtScript(tuple(declared.items()), tuple(assertions), has_check_sat)


def _name(term: tuple, src: str) -> str:
    """A symbol's name, a numeral's value, or else the term's source text."""
    kind, val, start, end = term
    return val if kind == _SYM else str(val) if kind == _NUM else src[start:end]


def _value(result: object):
    """A reduced list's value, or the error that its reduction raised."""
    if isinstance(result, StrSolveError):
        raise result
    return result


def _command(head: str, args: list, pos: int, declared: dict[str, str],
             assertions: list[SurfaceConstraint], src: str) -> None:
    """Run the command `(head args...)` at `pos`, other than check-sat."""
    if head == "assert":
        if len(args) != 1:
            raise SyntaxParseError("assert takes exactly one term", pos)
        assertions.extend(_constraints(args[0]))
    elif head == "declare-fun" and (len(args) != 3 or args[0][0] != _SYM):
        raise SyntaxParseError("malformed declare-fun", pos)
    elif head == "declare-fun" and (args[1][0] != _LIST or args[1][1][0] is not None):
        raise UnsupportedError("function declarations with arguments", pos)
    elif head == "declare-const" and (len(args) != 2 or args[0][0] != _SYM):
        raise SyntaxParseError("malformed declare-const", pos)
    elif head in ("declare-fun", "declare-const"):
        name, sort = args[0][1], _name(args[-1], src)
        if sort != "String":
            raise UnsupportedError(f"sort {sort}", pos)
        if name in declared:
            raise SyntaxParseError(f"duplicate declaration of {name!r}", pos)
        declared[name] = sort
    elif head not in _IGNORED_COMMANDS:
        raise UnsupportedError(f"command {head}", pos)


def _reduce(head: str | None, args: list, pos: int, declared: dict[str, str]):
    """The value of the list `(head args...)` at `pos`: a regex, word items
    or constraints. Any other head, `str.len` among them, keeps its args."""
    if head in ("str.to_re", "str.to.re", "re.++"):  # a concatenation
        if head == "re.++":  # of its operands' items; no Concat holds an Epsilon
            items = [x for t in args for x in _items(_regex(t), rx.Concat)
                     if not isinstance(x, rx.Epsilon)]
        elif len(args) != 1 or args[0][0] != _STR:
            raise SyntaxParseError("str.to_re takes one string literal", pos)
        else:  # of a literal's characters
            items = [rx.Literal(ord(ch)) for ch in args[0][1]]
        if not items:
            return rx.Epsilon()
        return items[0] if len(items) == 1 else rx.Concat(tuple(items))
    if head == "re.union":
        items = [x for t in args for x in _items(_regex(t), rx.Union)]
        if not items:
            raise SyntaxParseError("empty re.union", pos)
        if len(items) > 1 and all(isinstance(x, (rx.Literal, rx.CharClass, rx.AnyChar))
                                  for x in items):
            return rx.CharClass(IntervalSet.normalize(p for x in items for p in _char_parts(x)))
        return items[0] if len(items) == 1 else rx.Union(tuple(items))
    if head in _REPEAT:
        if len(args) != 1:
            raise SyntaxParseError(f"{head} takes one regex", pos)
        return _REPEAT[head](_regex(args[0]))
    if head == "re.range":
        if len(args) != 2 or args[0][0] != _STR or args[1][0] != _STR:
            raise SyntaxParseError("re.range takes two string literals", pos)
        lo, hi = args[0][1], args[1][1]
        if len(lo) != 1 or len(hi) != 1 or ord(lo) > ord(hi):
            return rx.Never()  # standard semantics: such a range denotes no characters
        return rx.CharClass(IntervalSet((Interval(ord(lo), ord(hi)),)))  # one range is normal
    if head == "str.++":
        words = [w for t in args for w in _words(t, declared)]
        if not words:
            raise SyntaxParseError("empty str.++", pos)
        return words
    if head == "and":
        return [c for t in args for c in _constraints(t)]
    if head == "or":
        if not args:
            raise SyntaxParseError("empty disjunction", pos)
        return [Or(tuple(tuple(_constraints(t)) for t in args))]
    if head in ("str.in_re", "str.in.re"):
        if len(args) != 2:
            raise SyntaxParseError("str.in_re takes a variable and a regex", pos)
        return [Membership(_variable(args[0], declared), _regex(args[1]))]
    if head in _FLIP:
        if len(args) != 2:
            raise UnsupportedError(f"non-binary {head}", pos)
        return [_comparison(head, args[0], args[1], declared, pos)]
    return args


def _constraints(t: tuple) -> list[SurfaceConstraint]:
    """A term in assert position, flattened over `and`."""
    kind, val, pos, _ = t
    if kind != _LIST or val[0] is None:
        raise UnsupportedError("assertion that is not an application", pos)
    if val[0] not in _CONSTRAINT_HEADS:
        raise UnsupportedError(f"operator {val[0]}", pos)
    return _value(val[1])


def _is_length(t: tuple) -> bool:
    return t[0] == _LIST and t[1][0] == "str.len" and len(t[1][1]) == 1


def _comparison(op: str, a: tuple, b: tuple, declared: dict[str, str],
                pos: int) -> SurfaceConstraint:
    if _is_length(b):
        a, b, op = b, a, _FLIP[op]
    elif not _is_length(a):
        if op != "=":
            raise UnsupportedError(f"arithmetic comparison {op}", pos)
        return _equation(a, b, declared, pos)
    var = _variable(a[1][1][0], declared)
    kind, bound, bound_pos, _ = b
    if kind != _NUM:
        raise UnsupportedError("length compared to a non-constant", bound_pos)
    if bound < 0:
        raise SyntaxParseError("negative length bound", bound_pos)
    return Length(var, op, bound)


def _equation(lhs: tuple, rhs: tuple, declared: dict[str, str], pos: int) -> Equation:
    items = tuple(_words(rhs, declared))
    kind, val, lhs_pos, _ = lhs
    if kind == _SYM:
        return Equation(Var(_variable(lhs, declared)), items)
    if kind == _STR:
        if any(isinstance(t, Var) for t in items):
            raise UnsupportedError("equation with a literal left-hand side", pos)
        return Equation(Lit(val), items)
    raise UnsupportedError("equation left-hand side is not a variable", lhs_pos)


def _words(t: tuple, declared: dict[str, str]) -> list[Var | Lit]:
    kind, val, pos, _ = t
    if kind == _SYM:
        return [Var(_variable(t, declared))]
    if kind == _STR:
        return [Lit(val)]
    if kind == _LIST and val[0] == "str.++":
        return _value(val[1])
    raise UnsupportedError("word term (expected variable, literal, or str.++)", pos)


def _variable(t: tuple, declared: dict[str, str]) -> str:
    kind, name, pos, _ = t
    if kind != _SYM:
        raise UnsupportedError("expected a variable", pos)
    if name not in declared:
        raise SyntaxParseError(f"undeclared variable {name!r}", pos)
    return name


def _regex(t: tuple) -> rx.Regex:
    kind, val, pos, _ = t
    if kind == _SYM:
        if val not in _RE_SYMBOLS:
            raise UnsupportedError(f"regex symbol {val}", pos)
        return _RE_SYMBOLS[val]
    if kind != _LIST or val[0] is None:
        raise UnsupportedError("regex term", pos)
    if val[0] not in _REGEX_HEADS:
        raise UnsupportedError(f"regex operator {val[0]}", pos)
    return _value(val[1])


def _items(r: rx.Regex, cls: type) -> tuple[rx.Regex, ...]:
    """The items of `r` if it is a `cls` (Concat or Union), else just `r`."""
    return r.items if isinstance(r, cls) else (r,)


def _char_parts(node: rx.Regex) -> tuple[Interval, ...]:
    if isinstance(node, rx.Literal):
        return (Interval(node.cp, node.cp),)
    if isinstance(node, rx.CharClass):
        return node.chars.parts
    return (FULL,)  # AnyChar


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
