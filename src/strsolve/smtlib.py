"""SMT-LIB 2.6 string-fragment parsing, and the string-literal encoding
that models print with.

Supported commands and operators are listed in docs/smtlib-subset.md.
Legacy spellings from older string benchmarks (str.in.re, str.to.re) are
accepted and normalized. Parsing produces a SmtScript of surface
constraints.

`parse_smt` makes one pass over the tokens on one explicit stack, so any
nesting depth parses. Each list is reduced when its `)` arrives, from
reduced arguments, by the reducer of its head. A failed reduction is the
list's value, raised only where the enclosing operator uses it: where a
top-down reading meets it. A text error anywhere in the file wins over the
first bad command's error. `and`, `str.++` and `re.++` nest their
operands' values, and the operator or command that uses a chain of them
flattens it once, so a chain of any depth costs linear time.

A `str.to_re` word is one regex node, a `Literal`, however long it is,
except that a word of one character is a one-character `CharClass`.
`re.allchar`, `re.none` and `re.range` are classes too, so a `re.union`
of non-empty classes is one class.

Reading is the largest front-end cost of a benchmark of many small
scripts, so the loop makes few calls per token. A `re.union` whose
operands are all `(re.range L L)` lists, each bound a literal of one
character or of one \\u{...} escape, is one token: the smt_mix
benchmark's 2 636 of them hold all its 21 637 ranges. Its value gathers
the ranges' `(lo, hi)` pairs into one class without making a class per
range, and it counts toward the budget stride as the 5n + 3 tokens it
stands for.
"""

from __future__ import annotations

import re
from collections import namedtuple

from . import regex as rx
from .constraints import Equation, Length, Lit, Membership, Or, SurfaceConstraint, Var
from .errors import StrSolveError, SyntaxParseError, UnsupportedError
from .intervals import FULL, MAX_CODEPOINT, Value, normalize
from .snfa import BUDGET_STRIDE, DEFAULT_BUDGET, Budget

_IGNORED_COMMANDS = {"set-logic", "set-option", "set-info", "exit"}
_FLIP = {"<": ">", "<=": ">=", "=": "=", ">=": "<=", ">": "<"}
_CONSTRAINT_HEADS = {"and", "or", "str.in_re", "str.in.re", *_FLIP}
_REPEAT = {"re.*": rx.Star, "re.+": rx.Plus, "re.opt": rx.Opt}
_REGEX_HEADS = {"str.to_re", "str.to.re", "re.++", "re.union", "re.range", *_REPEAT}
_RE_SYMBOLS = {"re.allchar": rx.CharClass((FULL,)), "re.all": rx.Star(rx.CharClass((FULL,))),
               "re.none": rx.CharClass(())}
_EMPTY_WORD = rx.Literal("")


class SmtScript(Value, namedtuple("SmtScript", "declarations assertions has_check_sat")):
    __slots__ = ()  # declarations: (name, sort) pairs, sort always "String"


# ---------------------------------------------------------------------------
# Reader

# One escape of a string literal body, told apart by `lastindex`: None for
# a doubled quote, 2 for \u{...} (group 1 the digits, group 2 the closing
# brace, empty when it is missing), 3 for \uHHHH.
_ESCAPE = re.compile(r'""|\\u(?:\{([^}]*)(\}?)|([0-9A-Fa-f]{4}))')
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def hex_value(digits: str) -> int | None:
    """The value of a non-empty run of ASCII hex digits, else None. (`int`
    with base 16 would also take a sign, spaces, underscores, a 0x prefix
    and non-ASCII digits.)"""
    if digits and _HEX_DIGITS.issuperset(digits):
        return int(digits, 16)
    return None


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
# The first alternative, group `_UNION`, reads `(re.union R ...)` as one
# token when its operands are 1 to BUDGET_STRIDE lists `(re.range L L)`
# (see the module docstring). Each L is a literal of one character other
# than " or of one \u{...} escape of 1-5 hex digits (at most 0xFFFFF, a
# valid code point), and only whitespace, not a comment, separates the
# parts. No " can follow an L, since whitespace or ) must. A plain ( fails
# the alternative at its second character. The repetition is possessive,
# so a longer union fails at once; it, every `re.range` list and any other
# `re.union` list are read by the general tokens. Every other literal is
# the general one, decoded by `_decode_string`. Its body is unrolled and
# possessive: it takes "" pairs from the left, as a character scanner
# does, and does not backtrack to end an unterminated literal at a doubled
# quote. A lone " or | that starts no complete token falls through to the
# catch-all.
_BOUND = r'"(?:\\u\{%s[0-9A-Fa-f]{1,5})\}|%s[^"]))"'  # %s: "(" to capture, or "(?:"
_RANGE_TAIL = r"range[ \t\r\n]+%s[ \t\r\n]+%s[ \t\r\n]*\)"  # after "(re."
_BOUND_GROUPS, _BOUND_PLAIN = _BOUND % ("(", "("), _BOUND % ("(?:", "(?:")
_RANGE_GROUPS = _RANGE_TAIL % (_BOUND_GROUPS, _BOUND_GROUPS)
# each range of a fused union: its bounds' hex digits or characters, as `findall` tuples
_RANGES = re.compile(r"\(re\." + _RANGE_GROUPS)
_TOKEN = re.compile(r"""
    (?:[ \t\r\n]+ | ;[^\n]*)*+
    (?: \(re\.(union(?:[ \t\r\n]*\(re\.%(plain)s){1,%(most)d}+[ \t\r\n]*\))
      | (\()
      | (\))
      | "((?:[^"]*+"")*+[^"]*+)"
      | \|([^|]*)\|
      | (-?[0-9]++)(?![^ \t\r\n();"|])
      | ([^ \t\r\n();"|]+)
      | (.)
      | \Z)
""" % {"plain": _RANGE_TAIL % (_BOUND_PLAIN, _BOUND_PLAIN), "most": BUDGET_STRIDE},
                    re.VERBOSE | re.DOTALL)
_UNION = 1
_OPEN, _CLOSE, _STRING, _QUOTED, _NUMERAL, _WORD, _STRAY = range(2, 9)
# A numeral of more digits is a syntax error, before `int()` meets Python's
# limit on converting long digit strings (4300 by default). Any length
# bound of this many digits is far past every length cap anyway.
MAX_NUMERAL_DIGITS = 1000


# A term is a tuple (kind, value, start, end) over src[start:end]. The value
# of a symbol is its name, of a literal its decoded text, of a numeral its
# int, and of a list (head, result): the name of its first term (None if it
# is empty) and what its reducer made of the list, or the error that it
# raised. A head without a reducer, `str.len` among them, keeps its args.
_SYM, _STR, _NUM, _LIST = range(4)


def parse_smt(src: str, budget: Budget = DEFAULT_BUDGET) -> SmtScript:
    """Parse an SMT-LIB script in the supported string fragment. A list at
    depth 0 is a command, run when it closes. The budget is checked before
    every BUDGET_STRIDE-th token, starting with the first. A string literal
    counts as its decoded length and at least one token, a fused `re.union`
    as the tokens it stands for, and each is checked as it is read."""
    declared: dict[str, str] = {}  # name -> sort, in declaration order
    assertions: list[SurfaceConstraint] = []
    has_check_sat = False
    held: StrSolveError | None = None  # the first command error
    stack: list[tuple[int, list]] = []  # (offset, terms) of each enclosing list
    terms: list = []  # of the innermost open list; at depth 0, stray atoms
    countdown = 0  # tokens left before the next budget check
    for m in _TOKEN.finditer(src):
        if not countdown:
            budget.check(0)
            countdown = BUDGET_STRIDE
        countdown -= 1
        kind = m.lastindex
        if kind == _OPEN:
            stack.append((m.end() - 1, terms))
            terms = []
        elif kind == _CLOSE:
            if not stack:
                raise SyntaxParseError("unbalanced )", m.end() - 1)
            pos, parent = stack.pop()
            if not terms:
                head = None
            elif terms[0][0] == _SYM:
                head = terms[0][1]
            else:
                head = _name(terms[0], src)
            if stack:
                reducer = _REDUCERS.get(head)
                if reducer is None:
                    result = terms[1:]
                else:
                    try:
                        result = reducer(head, terms[1:], pos, declared)
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
        elif kind == _UNION:
            # a fused list: the value the general path reduces, or its command
            # error. It counts as its general tokens: (, re.union, the five of
            # each range and )
            pos = m.start(kind) - 4  # the "(re." before the group
            bounds = _RANGES.findall(src, pos, m.end())
            countdown -= 5 * len(bounds) + 2
            while countdown < 0:
                budget.check(0)
                countdown += BUDGET_STRIDE
            regex = _fused_union(bounds)
            if stack:
                terms.append((_LIST, ("re.union", regex), pos, m.end()))
            elif held is None:
                held = (SyntaxParseError("expected a command", terms[0][2]) if terms
                        else UnsupportedError("command re.union", pos))
        elif kind == _WORD:
            text = m[kind]
            end = m.end()
            terms.append((_SYM, text, end - len(text), end))
        elif kind == _STRING:
            raw = m[kind]
            end = m.end()
            pos = end - len(raw) - 2  # the opening quote
            text = _decode_string(raw, pos)
            countdown -= len(text) - 1 if text else 0  # one token per character
            while countdown < 0:
                budget.check(0)
                countdown += BUDGET_STRIDE
            terms.append((_STR, text, pos, end))
        elif kind == _QUOTED:
            text = m[kind]
            end = m.end()
            terms.append((_SYM, text, end - len(text) - 2, end))
        elif kind == _NUMERAL:
            text = m[kind]
            end = m.end()
            if len(text) - (text[0] == "-") > MAX_NUMERAL_DIGITS:
                raise SyntaxParseError(f"numeral longer than {MAX_NUMERAL_DIGITS} digits",
                                       end - len(text))
            terms.append((_NUM, int(text), end - len(text), end))
        elif kind == _STRAY:
            what = "string literal" if m[kind] == '"' else "quoted symbol"
            raise SyntaxParseError(f"unterminated {what}", m.end() - 1)
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


def _flatten(value) -> list:
    """The leaves of `value`, in order: a list whose items may be lists, to
    any depth, or else a leaf. `and`, `str.++` and `re.++` nest their
    operands' values instead of copying them, which would be quadratic in a
    chain's depth, and the command or operator that uses the whole chain
    flattens it once."""
    if type(value) is not list:
        return [value]
    out: list = []
    todo = [iter(value)]
    while todo:
        for x in todo[-1]:
            if type(x) is list:
                todo.append(iter(x))
                break
            out.append(x)
        else:
            todo.pop()
    return out


def _command(head: str, args: list, pos: int, declared: dict[str, str],
             assertions: list[SurfaceConstraint], src: str) -> None:
    """Run the command `(head args...)` at `pos`, other than check-sat."""
    if head == "assert":
        if len(args) != 1:
            raise SyntaxParseError("assert takes exactly one term", pos)
        assertions.extend(_flatten(_constraints(args[0])))
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


# The reducers, by head in `_REDUCERS`: each makes the value of the list
# `(head args...)` at `pos` from its reduced args, a regex, a word (nested
# under `str.++`) or a constraint (nested under `and`), or raises.

def _to_re(head: str, args: list, pos: int, declared: dict[str, str]) -> rx.Regex:
    if len(args) != 1 or args[0][0] != _STR:
        raise SyntaxParseError("str.to_re takes one string literal", pos)
    word = args[0][1]
    return rx.char(ord(word)) if len(word) == 1 else rx.Literal(word)


def _re_concat(head: str, args: list, pos: int, declared: dict[str, str]) -> list:
    """The operands of a `re.++`, those of a nested `re.++` as a list; `_regex`
    makes the Concat."""
    return [_regex_term(t) for t in args]


def _re_union(head: str, args: list, pos: int, declared: dict[str, str]) -> rx.Regex:
    items = [x for t in args for x in _items(_regex(t), rx.Union)]
    if not items:
        raise SyntaxParseError("empty re.union", pos)
    if len(items) == 1:
        return items[0]
    # a union of only characters is one class; re.none keeps it a Union
    if all(isinstance(x, rx.CharClass) and x.chars for x in items):
        return rx.CharClass(normalize([pair for x in items for pair in x.chars]))
    return rx.Union(tuple(items))


def _fused_union(bounds: list[tuple[str, str, str, str]]) -> rx.Regex:
    """What `_re_union` makes of the fused ranges whose bound groups are
    `bounds` (see `_RANGES`)."""
    pairs = [(int(lo_hex, 16) if lo_hex else ord(lo),
              int(hi_hex, 16) if hi_hex else ord(hi))
             for lo_hex, lo, hi_hex, hi in bounds]
    if all(lo <= hi for lo, hi in pairs):
        return rx.CharClass(normalize(pairs))
    # a reversed range is re.none, which keeps the union a Union
    items = [_range(lo, hi) for lo, hi in pairs]
    return items[0] if len(items) == 1 else rx.Union(tuple(items))


def _repeat(head: str, args: list, pos: int, declared: dict[str, str]) -> rx.Regex:
    if len(args) != 1:
        raise SyntaxParseError(f"{head} takes one regex", pos)
    return _REPEAT[head](_regex(args[0]))


def _re_range(head: str, args: list, pos: int, declared: dict[str, str]) -> rx.Regex:
    if len(args) != 2 or args[0][0] != _STR or args[1][0] != _STR:
        raise SyntaxParseError("re.range takes two string literals", pos)
    lo, hi = args[0][1], args[1][1]
    if len(lo) != 1 or len(hi) != 1:
        return rx.CharClass(())  # standard semantics: such a range denotes no characters,
    return _range(ord(lo), ord(hi))  # and so does a reversed one


def _range(lo: int, hi: int) -> rx.Regex:
    """The regex of `re.range` with one-character bounds `lo` and `hi`."""
    return rx.CharClass(((lo, hi),) if lo <= hi else ())  # one range is normal


def _str_concat(head: str, args: list, pos: int, declared: dict[str, str]) -> list:
    if not args:  # an operand is never empty: a nested empty str.++ raises
        raise SyntaxParseError("empty str.++", pos)
    return [_word(t, declared) for t in args]


def _and(head: str, args: list, pos: int, declared: dict[str, str]) -> list:
    return [_constraints(t) for t in args]


def _or(head: str, args: list, pos: int, declared: dict[str, str]) -> Or:
    if not args:
        raise SyntaxParseError("empty disjunction", pos)
    return Or(tuple(tuple(_flatten(_constraints(t))) for t in args))


def _in_re(head: str, args: list, pos: int, declared: dict[str, str]) -> Membership:
    if len(args) != 2:
        raise SyntaxParseError("str.in_re takes a variable and a regex", pos)
    return Membership(_variable(args[0], declared), _regex(args[1]))


def _constraints(t: tuple) -> SurfaceConstraint | list:
    """A term in assert position: a constraint, or the nested list of an `and`."""
    kind, val, pos, _ = t
    if kind != _LIST or val[0] is None:
        raise UnsupportedError("assertion that is not an application", pos)
    if val[0] not in _CONSTRAINT_HEADS:
        raise UnsupportedError(f"operator {val[0]}", pos)
    return _value(val[1])


def _is_length(t: tuple) -> bool:
    return t[0] == _LIST and t[1][0] == "str.len" and len(t[1][1]) == 1


def _comparison(op: str, args: list, pos: int, declared: dict[str, str]) -> SurfaceConstraint:
    if len(args) != 2:
        raise UnsupportedError(f"non-binary {op}", pos)
    a, b = args
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
    items = tuple(_flatten(_word(rhs, declared)))
    kind, val, lhs_pos, _ = lhs
    if kind == _SYM:
        return Equation(Var(_variable(lhs, declared)), items)
    if kind == _STR:
        if any(isinstance(t, Var) for t in items):
            raise UnsupportedError("equation with a literal left-hand side", pos)
        return Equation(Lit(val), items)
    raise UnsupportedError("equation left-hand side is not a variable", lhs_pos)


def _word(t: tuple, declared: dict[str, str]) -> Var | Lit | list:
    """A word term: a variable, a literal, or the nested list of a `str.++`."""
    kind, val, pos, _ = t
    if kind == _SYM:
        return Var(_variable(t, declared))
    if kind == _STR:
        return Lit(val)
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


def _regex_term(t: tuple) -> rx.Regex | list:
    """A regex term: a regex, or the operand list of a `re.++`."""
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


def _regex(t: tuple) -> rx.Regex:
    """A regex term's regex. A `re.++` is the Concat of its operands' items,
    those of a nested `re.++` or Concat spliced in; no Concat holds the
    empty word. A `str.to_re` word is one `Literal`, not spliced."""
    r = _regex_term(t)
    if type(r) is not list:
        return r
    items = [x for operand in _flatten(r) for x in _items(operand, rx.Concat)
             if x != _EMPTY_WORD]
    if not items:
        return _EMPTY_WORD
    return items[0] if len(items) == 1 else rx.Concat(tuple(items))


def _items(r: rx.Regex, cls: type) -> tuple[rx.Regex, ...]:
    """The items of `r` if it is a `cls` (Concat or Union), else just `r`."""
    return r.items if isinstance(r, cls) else (r,)


_REDUCERS = {"str.to_re": _to_re, "str.to.re": _to_re, "re.++": _re_concat,
             "re.union": _re_union, **dict.fromkeys(_REPEAT, _repeat), "re.range": _re_range,
             "str.++": _str_concat, "and": _and, "or": _or, "str.in_re": _in_re,
             "str.in.re": _in_re, **dict.fromkeys(_FLIP, _comparison)}

