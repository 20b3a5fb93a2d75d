import random
import time

import pytest
from helpers import CountingBudget, parse_smt_reference, print_smt, read_all_scan
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strsolve import regex as rx
from strsolve.cli import solve_path
from strsolve.constraints import Equation, Length, Lit, Membership, Or, Var
from strsolve.errors import ResourceLimitError, StrSolveError, SyntaxParseError, UnsupportedError
from strsolve.intervals import FULL, normalize
from strsolve.smtlib import (_CLOSE, _OPEN, _STRING, _TOKEN, _UNION, _WORD,
                             MAX_NUMERAL_DIGITS, encode_string, hex_value, parse_smt)
from strsolve.snfa import BUDGET_STRIDE, Budget


def test_parse_simple_membership():
    script = parse_smt('(declare-const x String)'
                       '(assert (str.in_re x (re.+ (re.range "a" "c"))))'
                       '(check-sat)')
    assert script.declarations == (("x", "String"),)
    assert script.assertions == (Membership("x", rx.Plus(rx.CharClass(((97, 99),)))),)
    assert script.has_check_sat


def test_parse_nary_equation():
    script = parse_smt('(declare-const url String)(declare-const domain String)'
                       '(declare-const path String)'
                       '(assert (= url (str.++ "http://" domain "/" path)))')
    assert script.assertions == (Equation(Var("url"),
                                          (Lit("http://"), Var("domain"),
                                           Lit("/"), Var("path"))),)
    assert not script.has_check_sat


def test_parse_length_constraints():
    script = parse_smt('(declare-const x String)'
                       '(assert (<= (str.len x) 6))'
                       '(assert (> 2 (str.len x)))'
                       '(assert (= (str.len x) 1))')
    assert script.assertions == (Length("x", "<=", 6), Length("x", "<", 2),
                                 Length("x", "=", 1))


def test_parse_and_or():
    script = parse_smt('(declare-const x String)(declare-const y String)'
                       '(assert (and (= x y) (str.in_re x re.allchar)))'
                       '(assert (or (= x "a") (and (= x "b") (= y "c"))))')
    assert script.assertions[0] == Equation(Var("x"), (Var("y"),))
    assert script.assertions[1] == Membership("x", rx.CharClass((FULL,)))
    assert script.assertions[2] == Or(((Equation(Var("x"), (Lit("a"),)),),
                                       (Equation(Var("x"), (Lit("b"),)),
                                        Equation(Var("y"), (Lit("c"),)))))


def test_parse_legacy_spellings():
    script = parse_smt('(declare-const x String)'
                       '(assert (str.in.re x (str.to.re "ab")))')
    assert script.assertions == (Membership("x", rx.Literal("ab")),)


def test_parse_regex_operators():
    script = parse_smt(
        '(declare-const x String)'
        '(assert (str.in_re x (re.++ (re.* re.allchar) (str.to_re "<script>") (re.* re.allchar))))'
        '(assert (str.in_re x (re.union (str.to_re "a") (re.range "c" "d"))))'
        '(assert (str.in_re x (re.opt (re.+ re.none))))'
        '(assert (str.in_re x re.all))')
    star_any = rx.Star(rx.CharClass((FULL,)))
    first = script.assertions[0].regex
    assert first == rx.Concat((star_any, rx.Literal("<script>"), star_any))
    # unions of single-character pieces normalize into one class
    assert script.assertions[1].regex == rx.CharClass(((97, 97), (99, 100)))
    assert script.assertions[2].regex == rx.Opt(rx.Plus(rx.CharClass(())))
    assert script.assertions[3].regex == star_any


def test_parse_re_range_degenerate():
    script = parse_smt('(declare-const x String)'
                       '(assert (str.in_re x (re.range "b" "a")))'
                       '(assert (str.in_re x (re.range "ab" "c")))')
    assert script.assertions[0].regex == rx.CharClass(())
    assert script.assertions[1].regex == rx.CharClass(())


def test_parse_concat_of_empty_words_is_epsilon():
    # every operand of these re.++ is the empty word, so no item is left
    script = parse_smt('(declare-const x String)'
                       '(assert (str.in_re x (re.++ (str.to_re ""))))'
                       '(assert (str.in_re x (re.++ (str.to_re "") (re.++ (str.to_re "")))))')
    assert [a.regex for a in script.assertions] == [rx.Literal(""), rx.Literal("")]


def test_a_word_is_one_node():
    w = "ab" * 20_000 + "c"  # 40 001 characters
    script = parse_smt(f'(declare-const x String)(assert (str.in_re x (str.to_re "{w}")))')
    assert script.assertions == (Membership("x", rx.Literal(w)),)
    # words stay whole inside a re.++, which drops the empty word
    script = parse_smt('(declare-const x String)(assert (str.in_re x (re.++ (str.to_re "ab")'
                       ' (str.to_re "") (re.++ (str.to_re "c") (str.to_re "de")))))')
    assert script.assertions[0].regex == rx.Concat((rx.Literal("ab"), rx.char(ord("c")),
                                                    rx.Literal("de")))


def test_the_64_disjunct_file_reads_one_node_per_word_and_solves_sat(tmp_path):
    # each branch is x in (str.to_re w), |w| = 40 001 or 40 002, the first sat
    words = ["a" * 40_000 + str(i) for i in range(64)]
    src = DECL + "(assert (or " + " ".join(f'(str.in_re x (str.to_re "{w}"))' for w in words) + "))"
    (disjunction,) = parse_smt(src).assertions
    assert disjunction.branches == tuple((Membership("x", rx.Literal(w)),) for w in words)
    f = tmp_path / "or64.smt2"
    f.write_text(src + "(check-sat)")
    verdict, _, _ = solve_path(f)
    assert (verdict.kind, verdict.model) == ("sat", {"x": words[0]})


def test_a_union_of_characters_is_one_class():
    def regex(union):
        return parse_smt(DECL + f"(assert (str.in_re x {union}))").assertions[0].regex

    assert regex('(re.union (str.to_re "a") (re.range "c" "e") (str.to_re "\\u{1f600}")'
                 ' (re.union (str.to_re "b") (re.range "x" "z")))') == rx.CharClass(
        ((97, 101), (120, 122), (0x1F600, 0x1F600)))
    assert regex('(re.union (str.to_re "a") re.allchar)') == rx.CharClass((FULL,))
    # a word of another length, or a class of no characters, keeps a Union
    for other in ('(str.to_re "")', '(str.to_re "bc")', "re.none", '(re.range "b" "a")'):
        union = regex(f'(re.union (str.to_re "a") {other})')
        assert isinstance(union, rx.Union) and len(union.items) == 2


def test_a_union_that_holds_re_none_keeps_a_position_per_operand():
    union = parse_smt(DECL + '(assert (str.in_re x (re.union re.none (re.range "a" "c")'
                             ' (re.range "x" "z"))))').assertions[0].regex
    assert union == rx.Union((rx.CharClass(()), rx.CharClass(((97, 99),)),
                              rx.CharClass(((120, 122),))))
    assert len(rx.compile(union).states) == 3


def test_string_escapes():
    script = parse_smt('(declare-const x String)'
                       '(assert (= x "say ""hi"" \\u{61}\\u0062\\n"))')
    (eq,) = script.assertions
    assert eq.rhs == (Lit('say "hi" ab\\n'),)  # plain backslash stays a backslash


def test_escapes_and_numerals_take_only_ascii_digits():
    decl = '(declare-const x String)'
    script = parse_smt(decl + '(assert (= x "\\u+041\\u 041"))')
    assert script.assertions[0].rhs == (Lit("\\u+041\\u 041"),)  # not escapes: literal text
    for bad in ('"\\u{0x41}"', '"\\u{\u0664\u0661}"', '"\\u{}"'):
        with pytest.raises(SyntaxParseError):
            parse_smt(decl + f'(assert (= x {bad}))')
    # a superscript digit is not a numeral (int() used to raise ValueError on it)
    with pytest.raises(UnsupportedError):
        parse_smt(decl + '(assert (<= (str.len x) \u00b9))')


def test_numeral_digit_count_is_bounded_before_conversion():
    prefix = '(declare-const x String)(assert (<= (str.len x) '
    at = len(prefix)
    # 1000 digits convert; more is an error at the numeral, well below the
    # 4300 digits where int() would raise a bare ValueError
    assert parse_smt(prefix + "9" * 1000 + "))").assertions[0].bound == int("9" * 1000)
    for numeral in ("1" * 1001, "1" * 5000, "0" * 4999 + "1", "-" + "1" * 5000):
        with pytest.raises(SyntaxParseError) as err:
            parse_smt(prefix + numeral + "))")
        assert (str(err.value), err.value.pos) == (
            f"numeral longer than {MAX_NUMERAL_DIGITS} digits (at offset {at})", at)


def test_encode_decode_round_trip():
    words = ['plain', 'quote " here', 'back\\slash', 'unié\U0001d11e', 'nl\ntab\t']
    for w in words:
        script = parse_smt(f'(declare-const x String)(assert (= x "{encode_string(w)}"))')
        assert script.assertions[0].rhs == (Lit(w),)


def test_literal_equality_allowed():
    script = parse_smt('(assert (= "ab" (str.++ "a" "b")))')
    assert script.assertions == (Equation(Lit("ab"), (Lit("a"), Lit("b"))),)


@pytest.mark.parametrize("src,needle", [
    ('(declare-const x Int)', "sort Int"),
    ('(push 1)', "command push"),
    ('(declare-const x String)(assert (= x y z))', "non-binary"),
    ('(declare-const x String)(assert (str.contains x "a"))', "operator str.contains"),
    ('(declare-const x String)(assert (= "a" x))', "literal left-hand side"),
    ('(declare-const x String)(assert (= (str.++ x "a") x))', "left-hand side"),
    ('(declare-const x String)(assert (str.in_re x (re.comp (str.to_re "a"))))', "re.comp"),
    ('(declare-const x String)(assert (< (str.len x) y))', "non-constant"),
    ('(declare-const x String)(assert (< x 3))', "arithmetic comparison"),
    ('(declare-const x String)(assert x)', "not an application"),
    # a head or sort that is not a symbol is named by its source text; a
    # needle that names the offset is the whole message
    ('(declare-fun w () (Array Int Int))', "unsupported: sort (Array Int Int) (at offset 0)"),
    ('(declare-const x "S")', 'unsupported: sort "S" (at offset 0)'),
    ('(declare-const x String)(assert ((f) x))', "unsupported: operator (f) (at offset 32)"),
    ('((set-logic))', "unsupported: command (set-logic) (at offset 0)"),
])
def test_unsupported_inputs(src, needle):
    with pytest.raises(UnsupportedError) as err:
        parse_smt(src)
    assert needle in str(err.value)
    if "(at offset" in needle:
        assert str(err.value) == needle


@pytest.mark.parametrize("src", [
    '(declare-const x String',            # unbalanced
    '(declare-const x String))',          # extra paren
    '(declare-const x String)(assert (= x "unterminated))',
    '(declare-const x String)(declare-const x String)',
    '(assert (= y "a"))',                 # undeclared variable
    '(declare-const x String)(assert (<= (str.len x) -2))',
])
def test_syntax_errors(src):
    with pytest.raises(SyntaxParseError):
        parse_smt(src)


DECL = '(declare-const x String)'


@pytest.mark.parametrize("src,message,pos", [
    ('(check-sat)\n(assert (= x "a")', "unbalanced (", 12),  # the innermost open paren
    ('(check-sat))', "unbalanced )", 11),
    (DECL + '(assert (= x "ab""c))', "unterminated string literal", 37),  # the opening quote
    ('(declare-const |x String)', "unterminated quoted symbol", 15),
    (DECL + '(assert (= x "a\\u{41"))', "unterminated \\u{...} escape in string", 37),
    (DECL + '(assert (= x "a\\u{zz}"))', "bad hex in \\u{...} escape", 37),
    (DECL + '(assert (= x "\\u{110000}"))', "bad code point in \\u{...} escape", 37),
])
def test_syntax_error_messages_and_positions(src, message, pos):
    with pytest.raises(SyntaxParseError) as err:
        parse_smt(src)
    assert err.value.pos == pos
    assert str(err.value) == f"{message} (at offset {pos})"


# \f and \v are not SMT whitespace here; the last three are non-ASCII digits.
READER_ALPHABET = '()";|\\u{}' + " \t\r\n\f\v" + "-0123456789axé" + "٣¹５"
READER_PIECES = list(READER_ALPHABET) + ['""', '"""', "\\u{", "\\u{41}", "\\u0061", "\\u00",
                                         "\\u{110000}", "\\u{zz}", "; c\n", "|a b|", "-12"]
reader_src = st.one_of(st.text(alphabet=READER_ALPHABET, max_size=40),
                       st.lists(st.sampled_from(READER_PIECES), max_size=20).map("".join))


def _outcome(parse, src):
    try:
        return parse(src)
    except StrSolveError as err:
        return type(err), str(err), err.pos


def _same_outcome(src):
    """`parse_smt` gives the reference reader's script, or its error type,
    message and offset. Where the reference names a head or sort that is not
    a symbol by a Python repr, only the type and offset are compared."""
    got, want = _outcome(parse_smt, src), _outcome(parse_smt_reference, src)
    if isinstance(want, tuple) and ("object at 0x" in want[1] or "SStr(" in want[1]):
        return isinstance(got, tuple) and (got[0], got[2]) == (want[0], want[2])
    return got == want


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(reader_src)
def test_reader_matches_the_character_scanner(src):
    # a text error is the character scanner's; any other outcome is the
    # reference reader's
    try:
        read_all_scan(src)
    except StrSolveError as err:
        assert _outcome(parse_smt, src) == (type(err), str(err), err.pos)
    else:
        assert _same_outcome(src)


# Scripts of 1-5 commands whose terms, up to depth 5, mostly follow the
# grammar, so that they reach deep operators, but not always: about one
# argument in seven is of another sort or anything, one head in ten is any
# head (every supported operator and command, unsupported ones, and heads
# that are not symbols), and one list in five takes 0-3 arguments whatever
# its arity. One script in ten has a (, ), " or | inserted. Most scripts
# are rejected somewhere, which is the point: several errors compete.
HEADS = ["and", "or", "str.in_re", "str.in.re", "<", "<=", "=", ">=", ">", "str.len", "str.++",
         "str.to_re", "str.to.re", "re.++", "re.union", "re.*", "re.+", "re.opt", "re.range",
         "assert", "declare-fun", "declare-const", "check-sat", "set-logic", "set-info", "exit",
         "push", "str.contains", "re.comp", "|re.*|", '"and"', "-1", "(f)", "()"]
# leaves of each sort: constraint, regex, word, length, variable, string
# literal, numeral, and anything
LEAVES = {"c": ["(str.in_re y re.all)", "(= x y)", '(= "a" "a")'],
          "r": ["re.allchar", "re.all", "re.none", '(str.to_re "ab")', '(re.range "a" "c")'],
          "w": ["x", "y", "|x|", '"a"', '""', '"q""q"'],
          "l": ["(str.len x)"],
          "v": ["x", "y", "|x|", "x", "y", "z"],
          "s": ['""', '"a"', '"ab"', '"\\u{62}"', '"\\u0063d"', '"\\"', '"\\u{fffff}"',
                '"\\u{10ffff}"', '"\\u0041"'],
          "n": ["0", "3", "-2", "007"]}
LEAVES["any"] = [leaf for leaves in LEAVES.values() for leaf in leaves] + ["()", "String", "y ()"]
# the heads of each sort, with their argument sorts; the last one repeats
OPERATORS = {"c": [("and", "c"), ("or", "c"), ("str.in_re", "vr"), ("str.in_re", "vr"),
                   ("str.in.re", "vr"), ("=", "ww"), ("=", "ln"), ("=", "nl"), ("<", "ln"),
                   ("<=", "nl"), (">=", "ln"), (">", "nl")],
             "r": [("str.to_re", "s"), ("str.to.re", "s"), ("re.++", "r"), ("re.union", "r"),
                   ("re.*", "r"), ("re.+", "r"), ("re.opt", "r"), ("re.range", "ss")],
             "w": [("str.++", "w")],
             "l": [("str.len", "v")]}
VARIADIC = {"and", "or", "re.++", "re.union", "str.++"}
_LEAF = {sort: st.sampled_from(leaves) for sort, leaves in LEAVES.items()}
_OPERATOR = {sort: st.sampled_from(ops) for sort, ops in OPERATORS.items()}
_HEAD = st.sampled_from(HEADS)
_ARG_SORT = {sort: st.sampled_from([sort] * 25 + [*OPERATORS, "any"]) for sort in LEAVES}
# What a `re.range` list puts before each argument and before its `)`: a
# run of whitespace, which a fused union's ranges take, or else a comment
# or no whitespace, which leave a union of the list to the general tokens.
RANGE_GAPS = st.sampled_from([" "] * 4 + ["\t", "\n", "   ", " ; comment\n", ""])
RANGE_ENDS = st.sampled_from([""] * 4 + [" ", "\t\n", " ; comment\n"])


@st.composite
def smt_term(draw, sort="c", depth=5):
    roll = draw(st.integers(0, 799))  # four independent choices, in mixed radix
    if sort not in OPERATORS or depth == 0 or roll % 4 == 0:
        return draw(_LEAF[sort])
    head, sorts = draw(_OPERATOR[sort])
    if roll // 4 % 10 == 0:
        head = draw(_HEAD)
    if roll // 40 % 5 == 0:
        sorts = sorts[-1] * (roll // 200)
    elif head in VARIADIC:
        sorts = sorts * (1 + roll // 200 % 3)
    args = [draw(smt_term(draw(_ARG_SORT[arg]), depth - 1)) for arg in sorts]
    if head == "re.range":
        return "(" + head + "".join(draw(RANGE_GAPS) + arg for arg in args) + draw(RANGE_ENDS) + ")"
    return "(" + " ".join([head, *args]) + ")"


# commands: mostly assertions, which the declarations usually precede
assertion = smt_term().map("(assert {})".format)
smt_command = st.one_of(assertion, assertion, assertion, assertion, assertion,
                        st.sampled_from(["c", "r", "any"]).flatmap(smt_term),
                        st.sampled_from(["(declare-fun y () String)", "(check-sat)",
                                         "(set-info :status sat)"]))


@st.composite
def smt_script(draw):
    src = draw(st.sampled_from(["(declare-const x String)(declare-fun y () String)"] * 3
                               + ["(declare-const x String)", ""]))
    src += "".join(draw(st.lists(smt_command, min_size=1, max_size=5)))
    at = draw(st.integers(0, len(src)))
    return src[:at] + draw(st.sampled_from([""] * 36 + ["(", ")", '"', "|"])) + src[at:]


# a script of the wide-Unicode family of the smt_mix benchmark, whose
# literals are each one \u{...} escape
WIDE_UNICODE = ('(declare-fun u () String)(assert (str.in_re u (re.+ (re.union '
                '(re.range "\\u{a0}" "\\u{b5f}") (re.range "\\u{1f600}" "\\u{1f64f}") '
                '(re.range "\\u{2fffe}" "\\u{2ffff}")))))(assert (<= (str.len u) 3))(check-sat)')


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(smt_script())
@example(WIDE_UNICODE)
def test_parse_matches_the_reference_reader(src):
    assert _same_outcome(src)


def test_deeply_nested_terms_parse():
    # nothing recurses: walk the results iteratively, as == on them would not
    depth = 100_000
    src = DECL + "(assert (str.in_re x " + "(re.* " * depth + '(str.to_re "a")' + ")" * depth + "))"
    (membership,) = parse_smt(src).assertions
    node, stars = membership.regex, 0
    while isinstance(node, rx.Star):
        node, stars = node.item, stars + 1
    assert stars == depth and node == rx.char(ord("a"))
    src = DECL + "(assert " + "(and " * depth + "(str.in_re x re.all)" + ")" * depth + ")"
    assert parse_smt(src).assertions == (Membership("x", rx.Star(rx.CharClass((FULL,)))),)


CHAIN_DEPTH = 40_000
# a chain of each flattening operator nested in its last argument, and its
# flat value
CHAINS = {
    "and": ("(assert " + "(and (str.in_re x re.all) " * CHAIN_DEPTH + "(str.in_re x re.all)"
            + ")" * CHAIN_DEPTH + ")",
            (Membership("x", rx.Star(rx.CharClass((FULL,)))),) * (CHAIN_DEPTH + 1)),
    "str.++": ("(assert (= x " + '(str.++ "a" ' * CHAIN_DEPTH + "x" + ")" * CHAIN_DEPTH + "))",
               (Equation(Var("x"), (Lit("a"),) * CHAIN_DEPTH + (Var("x"),)),)),
    "re.++": ("(assert (str.in_re x " + "(re.++ re.allchar " * CHAIN_DEPTH + "re.all"
              + ")" * CHAIN_DEPTH + "))",
              (Membership("x", rx.Concat((rx.CharClass((FULL,)),) * CHAIN_DEPTH
                                         + (rx.Star(rx.CharClass((FULL,))),))),)),
}


@pytest.mark.parametrize("op", CHAINS)
def test_chains_nested_in_the_last_argument_flatten_in_linear_time(op):
    # copying each operand's items at every level took 15 s for 20 000
    # levels of re.++; CPU time, as a shared machine slows the wall clock
    src, flat = CHAINS[op]
    start = time.process_time()
    script = parse_smt(DECL + src)
    assert time.process_time() - start < 1.0
    assert script.assertions == flat


# Literals that are one \u{...} escape, outside a `re.range`, and their
# neighbours: a "" after the escape, 6 or more digits, and malformed
# escapes. The general literal reads them all, and must read them as the
# reference reader and the character scanner do.
ONE_ESCAPE_LITERALS = ['"\\u{41}"""', '"\\u{0}"', '"\\u{FFFFF}"', '"\\u{10FFFF}"',
                       '"\\u{0000041}"', '"\\u{110000}"', '"\\u{}"', '"\\u{41"', '"\\u{4g}"',
                       '"\\u0041"']


def _same_as_scanner_and_reference(src):
    """The outcome of `parse_smt`: the reference reader's, and the character
    scanner's error where it finds one."""
    got = _outcome(parse_smt, src)
    assert got == _outcome(parse_smt_reference, src)
    try:
        read_all_scan(src)
    except StrSolveError as err:
        assert got == (type(err), str(err), err.pos)
    return got


@pytest.mark.parametrize("literal", ONE_ESCAPE_LITERALS)
def test_one_escape_literals_read_as_the_scanner_reads_them(literal):
    got = _same_as_scanner_and_reference(DECL + f"(assert (= x {literal}))")
    try:
        (node,) = read_all_scan(literal)
    except StrSolveError:
        assert type(got) is tuple  # an error outcome; a SmtScript is a tuple subclass
    else:
        assert got.assertions == (Equation(Var("x"), (Lit(node.val.text),)),)


def test_one_escape_literal_as_a_stray_atom_and_as_a_sort():
    for src, at in ((DECL + '"\\u{41}"', len(DECL)),
                    (DECL + ' "\\u{41}"(check-sat)', len(DECL) + 1)):
        assert _same_as_scanner_and_reference(src) == (
            SyntaxParseError, f"expected a command (at offset {at})", at)
    # the reference names a sort that is not a symbol by a Python repr
    src = '(declare-fun x () "\\u{53}")'
    assert _outcome(parse_smt_reference, src)[::2] == (UnsupportedError, 0)
    assert _outcome(parse_smt, src) == (UnsupportedError,
                                        'unsupported: sort "\\u{53}" (at offset 0)', 0)


def test_union_of_ranges_with_one_escape_bounds():
    # 60 ranges: bounds of one character in order, reversed and equal, and
    # bounds of two or no characters
    def literal(*cps):
        return '"' + "".join(f"\\u{{{cp:x}}}" for cp in cps) + '"'

    rng = random.Random(12)
    ranges = []
    for i in range(60):
        lo, hi = sorted(rng.randrange(0xA0, 0x30000) for _ in range(2))
        bounds = [(literal(lo), literal(hi)), (literal(hi), literal(lo)),
                  (literal(lo), literal(lo)), (literal(lo, 0x41), literal(hi)),
                  (literal(lo), literal())][i % 5]
        ranges.append("(re.range {} {})".format(*bounds))
    in_order = [r for i, r in enumerate(ranges) if i % 5 in (0, 2)]  # one character, lo <= hi
    src = DECL + "".join(f"(assert (str.in_re x (re.union {' '.join(rs)})))"
                         for rs in (ranges, in_order))
    mixed, chars = _same_as_scanner_and_reference(src).assertions
    # a range of no characters is re.none, and keeps the union a Union
    assert len(mixed.regex.items) == 60 and rx.CharClass(()) in mixed.regex.items
    assert isinstance(chars.regex, rx.CharClass)


RANGE_AB = rx.CharClass(((97, 98),))


@pytest.mark.parametrize("src,want", [
    # at depth 0 a range is a command, alone, after a stray atom, or after
    # a command error, which is held first
    ('(re.range "a" "b")', (UnsupportedError, "unsupported: command re.range (at offset 0)", 0)),
    ('x (re.range "a" "b")(check-sat)', (SyntaxParseError, "expected a command (at offset 0)", 0)),
    ('(push 1)(re.range "a" "b")', (UnsupportedError, "unsupported: command push (at offset 0)", 0)),
    ('(re.range "a" "b")"', (SyntaxParseError, "unterminated string literal (at offset 18)", 18)),
    # no whitespace between the bounds: one literal a"b, so one argument
    (DECL + '(assert (str.in_re x (re.range "a""b")))',
     (SyntaxParseError, "re.range takes two string literals (at offset 45)", 45)),
    (DECL + '(assert (str.in_re x (re.range "a" "b" )))', (Membership("x", RANGE_AB),)),
    (DECL + '(assert (str.in_re x (re.range\t"a"\n  "b"\r\n)))', (Membership("x", RANGE_AB),)),
    (DECL + '(assert (str.in_re x (re.range "b" "a")))', (Membership("x", rx.CharClass(())),)),
    (DECL + '(assert (str.in_re x (re.range "\\u{fffff}" "\\u{41}")))', (Membership("x", rx.CharClass(())),)),
    (DECL + '(assert (str.in_re x (re.union (re.range "\\" "\\") (re.range "b" "a"))))',
     (Membership("x", rx.Union((rx.CharClass(((92, 92),)), rx.CharClass(())))),)),
    # a class of several intervals is not a range
    (DECL + '(assert (str.in_re x (re.union (re.range "x" "z") (re.union (re.range "a" "b")'
            ' (re.range "d" "e")))))',
     (Membership("x", rx.CharClass(((97, 98), (100, 101), (120, 122)))),)),
])
def test_ranges_read_as_the_reference_reads_them(src, want):
    got = _same_as_scanner_and_reference(src)
    assert got == want if type(got) is tuple else got.assertions == want


@pytest.mark.parametrize("src,message", [
    ('((re.range "a" "b") x)', 'unsupported: command (re.range "a" "b") (at offset 0)'),
    (DECL + '(assert ((re.range "\\u{41}"\t"b") x))',
     'unsupported: operator (re.range "\\u{41}"\t"b") (at offset 32)'),
])
def test_range_as_the_head_of_a_list(src, message):
    # named by its source text; the reference names it by a Python repr
    at = int(message.split()[-1][:-1])
    assert _outcome(parse_smt_reference, src)[::2] == (UnsupportedError, at)
    assert _outcome(parse_smt, src) == (UnsupportedError, message, at)


@pytest.mark.parametrize("digits,value", [
    ("41", 0x41), ("fF", 255), ("10FFFF", 0x10FFFF), ("0", 0),
    # int(digits, 16) would take each of these
    ("", None), (" 41", None), ("0x41", None), ("1_0", None), ("+41", None), ("-1", None),
    ("\u0661", None),
])
def test_hex_value_takes_only_ascii_hex_digits(digits, value):
    assert hex_value(digits) == value


def _in_re(regex: str) -> str:
    return DECL + f"(assert (str.in_re x {regex}))"


# Each regex term error of the reader, with its type, message and offset.
# 45 is the offset of the regex term in `_in_re`.
@pytest.mark.parametrize("src,want", [
    (_in_re("(re.*)"), (SyntaxParseError, "re.* takes one regex", 45)),
    (_in_re('(re.+ (str.to_re "a") (str.to_re "b"))'), (SyntaxParseError, "re.+ takes one regex", 45)),
    (_in_re("(re.opt)"), (SyntaxParseError, "re.opt takes one regex", 45)),
    (_in_re('(re.range "a")'), (SyntaxParseError, "re.range takes two string literals", 45)),
    (_in_re('(re.range x "c")'), (SyntaxParseError, "re.range takes two string literals", 45)),
    (_in_re('(re.range "a" (str.++ "b"))'),
     (SyntaxParseError, "re.range takes two string literals", 45)),
    (_in_re("(str.to_re x)"), (SyntaxParseError, "str.to_re takes one string literal", 45)),
    (_in_re('(str.to_re "a" "b")'), (SyntaxParseError, "str.to_re takes one string literal", 45)),
    (_in_re("(re.union)"), (SyntaxParseError, "empty re.union", 45)),
    (DECL + "(assert (str.in_re x))",
     (SyntaxParseError, "str.in_re takes a variable and a regex", 32)),
    (_in_re('"a"'), (UnsupportedError, "unsupported: regex term", 45)),
    (_in_re('(re.* "a")'), (UnsupportedError, "unsupported: regex term", 51)),
    (_in_re("re.foo"), (UnsupportedError, "unsupported: regex symbol re.foo", 45)),
    (_in_re('(re.inter (str.to_re "a") (str.to_re "b"))'),
     (UnsupportedError, "unsupported: regex operator re.inter", 45)),
    (_in_re('(re.diff (str.to_re "a") (str.to_re "b"))'),
     (UnsupportedError, "unsupported: regex operator re.diff", 45)),
    (_in_re('((_ re.loop 1 2) (str.to_re "a"))'),
     (UnsupportedError, "unsupported: regex operator (_ re.loop 1 2)", 45)),
    (_in_re('((_ re.^ 2) (str.to_re "a"))'),
     (UnsupportedError, "unsupported: regex operator (_ re.^ 2)", 45)),
    (_in_re('(re.allchar "a")'), (UnsupportedError, "unsupported: regex operator re.allchar", 45)),
    (_in_re('(str.replace_re x re.all "a")'),
     (UnsupportedError, "unsupported: regex operator str.replace_re", 45)),
    # escapes whose digits `int(digits, 16)` would take, in each literal a regex holds
    (_in_re('(str.to_re "\\u{ 41}")'), (SyntaxParseError, "bad hex in \\u{...} escape", 56)),
    (_in_re('(str.to_re "\\u{0x41}")'), (SyntaxParseError, "bad hex in \\u{...} escape", 56)),
    (_in_re('(str.to_re "\\u{1_0}")'), (SyntaxParseError, "bad hex in \\u{...} escape", 56)),
    (_in_re('(str.to_re "\\u{\u0661}")'), (SyntaxParseError, "bad hex in \\u{...} escape", 56)),
    (_in_re('(str.to_re "\\u{-1}")'), (SyntaxParseError, "bad hex in \\u{...} escape", 56)),
    (_in_re('(re.range "\\u{0x41}" "b")'), (SyntaxParseError, "bad hex in \\u{...} escape", 55)),
    (_in_re('(re.union (re.range "a" "\\u{+41}"))'),
     (SyntaxParseError, "bad hex in \\u{...} escape", 69)),
    # an unclosed regex leaves the assert open; one ) too many is the stray one
    (DECL + '(assert (str.in_re x (re.* (str.to_re "a")))', (SyntaxParseError, "unbalanced (", 24)),
    (_in_re('(re.* (str.to_re "a"))') + ")", (SyntaxParseError, "unbalanced )", 69)),
])
def test_regex_term_errors(src, want):
    error, message, pos = want
    assert _outcome(parse_smt, src) == (error, f"{message} (at offset {pos})", pos)
    assert _same_outcome(src)


def test_parse_checks_the_budget_every_stride_of_tokens():
    budget = CountingBudget()
    parse_smt("(check-sat)" * 1000, budget)  # 3000 tokens
    assert budget.checked == [0, 0, 0]
    budget = CountingBudget()
    parse_smt("(set-info :k" + ' "\\u{41}"' * 2996 + ")", budget)  # 3000 tokens
    assert budget.checked == [0, 0, 0]
    # a range is five tokens, and a union of more than a stride of ranges
    # is read by the general tokens: 5 + 7 + 5 * 3000 + 3 tokens
    budget = CountingBudget()
    ranges = "".join(f' (re.range "{chr(c)}" "\\u{{{c:x}}}")' for c in range(0x100, 0x100 + 3000))
    script = parse_smt(DECL + "(assert (str.in_re x (re.union" + ranges + ")))", budget)
    assert budget.checked == [0] * 15
    chars = rx.CharClass(((0x100, 0x100 + 2999),))
    assert script.assertions == (Membership("x", chars),)
    # the match of what trails the last token is one more: a stride of
    # tokens ends the text, or it starts a second stride
    for literals, checks in ((BUDGET_STRIDE - 5, [0]), (BUDGET_STRIDE - 4, [0, 0])):
        budget = CountingBudget()
        parse_smt("(set-info :k" + ' "\\u{41}"' * literals + ")", budget)
        assert budget.checked == checks
    # a literal counts as its decoded length: 3000 characters, written as
    # 18 000 characters of escapes, are 3000 of its 3004 tokens
    budget = CountingBudget()
    parse_smt('(set-info :k "' + "\\u{41}" * 3000 + '")', budget)
    assert budget.checked == [0, 0, 0]
    for length, checks in ((BUDGET_STRIDE - 5, [0]), (BUDGET_STRIDE - 4, [0, 0])):
        budget = CountingBudget()
        parse_smt('(set-info :k "' + "a" * length + '")', budget)
        assert budget.checked == checks
    budget = CountingBudget()
    parse_smt('(set-info :k "")' * 1000, budget)  # an empty literal is one token
    assert budget.checked == [0, 0, 0, 0, 0]
    with pytest.raises(ResourceLimitError, match="time budget exhausted"):
        parse_smt("(check-sat)", Budget(deadline=time.monotonic() - 1))


# A `re.union` whose operands are all `(re.range L L)` lists is one token.
# Each case is read twice: as written, and with a comment before the
# union's `)`, which leaves the union and its ranges to the general
# tokens. Both readings must give the same value or error,
# at the same offset, after the same budget checks. A prefix of 0-1100
# tokens moves the union across the budget stride.
FUSED_CHARS = ["a", "z", "(", ")", ";", "\\", " ", "|", "é", "\U0001f600", "0"]
_FUSED_BOUND = st.one_of(st.sampled_from(FUSED_CHARS).map('"{}"'.format),
                         st.integers(0, 0xFFFFF).flatmap(lambda cp: st.sampled_from(
                             [f'"\\u{{{cp:x}}}"', f'"\\u{{{cp:05X}}}"'])))
_FUSED_GAP = st.sampled_from([" "] * 4 + ["\t", "\n", "\r\n", "  "])
_FUSED_END = st.sampled_from([""] * 4 + [" ", "\n"])
# where the union stands: in an assertion, or at depth 0 as a command,
# after a stray atom, or after a command error, which is held first
FUSED_PLACES = {"assert": DECL + "(assert (str.in_re x {}))", "command": DECL + "{}",
                "after an atom": DECL + "x {}(check-sat)", "after an error": "(push 1){}"}


@st.composite
def fused_range(draw):
    return ("(re.range" + draw(_FUSED_GAP) + draw(_FUSED_BOUND) + draw(_FUSED_GAP)
            + draw(_FUSED_BOUND) + draw(_FUSED_END) + ")")


def _fused_and_general(ranges, place="assert", prefix=0, gaps=None, end=""):
    """The script with the union of `ranges` in `place`, as written and with
    a comment before the union's `)`."""
    gaps = gaps or [" "] * len(ranges)
    body = "(re.union" + "".join(g + r for g, r in zip(gaps, ranges)) + end
    head = "(set-info :k" + ' "a"' * prefix + ")"
    return tuple(head + FUSED_PLACES[place].format(body + tail) for tail in (")", " ; c\n)"))


def _read_both(fused, general):
    """Both readings' outcomes, checked equal, budget checks included; and
    how many unions `_TOKEN` took as one token in each."""
    budgets = CountingBudget(), CountingBudget()
    got = [_outcome(lambda src: parse_smt(src, budget), text)
           for text, budget in zip((fused, general), budgets)]
    assert got[0] == got[1]
    assert budgets[0].checked == budgets[1].checked
    unions = [[m.lastindex for m in _TOKEN.finditer(text)].count(_UNION)
              for text in (fused, general)]
    return got[0], unions


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.lists(fused_range(), min_size=1, max_size=12), st.sampled_from(sorted(FUSED_PLACES)),
       st.one_of(st.integers(0, 1100), st.integers(BUDGET_STRIDE - 30, BUDGET_STRIDE)),
       st.data())
@example(['(re.range "b" "a")'], "assert", 0, None)  # a reversed one-range union is re.none
@example(['(re.range "\\u{41}" "\\u{41}")'], "assert", 0, None)
def test_fused_union_reads_as_the_general_tokens(ranges, place, prefix, data):
    gaps = end = None
    if data is not None:  # no whitespace before a range, or before the union's )
        gaps = [data.draw(st.sampled_from(["", " ", "\n "])) for _ in ranges]
        end = data.draw(_FUSED_END)
    fused, general = _fused_and_general(ranges, place, prefix, gaps, end or "")
    got, unions = _read_both(fused, general)
    assert unions == [1, 0]
    if place == "assert" and not prefix:
        assert got == _same_as_scanner_and_reference(fused)
    if place == "command":
        at = fused.index("(re.union")
        assert got == (UnsupportedError, f"unsupported: command re.union (at offset {at})", at)


def test_fused_union_counts_as_its_general_tokens():
    # 5n + 3 tokens: with the union's last token, or the one after it, at
    # each offset around a multiple of the stride, the check count is one
    # per started stride of the general reading's tokens
    ranges = ['(re.range "a" "c")', '(re.range "\\u{41}" "\\u{5a}")', '(re.range "b" "a")']
    for prefix in range(BUDGET_STRIDE - 40, BUDGET_STRIDE):
        fused, general = _fused_and_general(ranges, prefix=prefix)
        assert _read_both(fused, general)[1] == [1, 0]
        tokens = sum(1 for _ in _TOKEN.finditer(general))
        budget = CountingBudget()
        parse_smt(fused, budget)
        assert len(budget.checked) == -(-tokens // BUDGET_STRIDE)


def test_fused_union_takes_at_most_a_stride_of_ranges():
    for count, unions in ((BUDGET_STRIDE, [1, 0]), (BUDGET_STRIDE + 1, [0, 0])):
        starts = range(0x100, 0x100 + 3 * count, 3)
        ranges = [f'(re.range "\\u{{{c:x}}}" "{chr(c + 2)}")' for c in starts]
        for reversed_one in (False, True):
            if reversed_one:
                ranges[-1] = '(re.range "b" "a")'
            got, seen = _read_both(*_fused_and_general(ranges, prefix=BUDGET_STRIDE - 9))
            assert seen == unions
            (membership,) = got.assertions
            if reversed_one:
                assert len(membership.regex.items) == count
                assert membership.regex.items[-1] == rx.CharClass(())
            else:
                assert membership.regex == rx.CharClass(
                    normalize((c, c + 2) for c in starts))


def test_fused_forms_share_the_re_prefix():
    # the fused union follows a `(re.` in the token pattern: a list that
    # starts so but is no fused union, a lone range among them, reads as the
    # general tokens, and a fused union's offset is that of its (, after
    # any whitespace and comments
    def kinds(text):
        return [m.lastindex for m in _TOKEN.finditer(text)]

    general_range = [_OPEN, _WORD, _STRING, _STRING, _CLOSE]
    assert kinds('(re.range "a" "b")') == general_range + [None]
    assert kinds('(re.union (re.range "a" "b"))') == [_UNION, None]
    assert kinds("(re.all)") == [_OPEN, _WORD, _CLOSE, None]
    assert kinds('(re.ranges "a" "b")') == [_OPEN, _WORD, _STRING, _STRING, _CLOSE, None]
    assert kinds('(re.union (re.range "a" "b") re.all)') == [_OPEN, _WORD, *general_range,
                                                              _WORD, _CLOSE, None]
    for head, text in (("re.range", '; c\n  (re.range "a" "b")'),
                       ("re.union", ' \t(re.union (re.range "a" "b"))')):
        at = text.index("(re.")
        assert _outcome(parse_smt, text) == (
            UnsupportedError, f"unsupported: command {head} (at offset {at})", at)


def test_comments_and_ignored_commands():
    script = parse_smt('; a comment\n(set-logic QF_S)\n(set-info :status sat)\n'
                       '(declare-const x String) ; trailing\n(check-sat)\n(exit)\n')
    assert script.declarations == (("x", "String"),)
    assert script.has_check_sat


SAMPLES = [
    '(declare-const x String)(assert (str.in_re x (re.+ (re.range "a" "c"))))(check-sat)',
    '(declare-const url String)(declare-const domain String)(declare-const path String)'
    '(assert (= url (str.++ "http://" domain "/" path)))(check-sat)',
    '(declare-const x String)(assert (<= (str.len x) 6))(check-sat)',
    '(declare-const x String)(declare-const y String)'
    '(assert (or (= x "a") (and (= x y) (str.in_re y (re.* (re.union (str.to_re "ab") re.allchar))))))',
    '(declare-const x String)(assert (str.in_re x (re.union (re.range "0" "9") (re.range "a" "f"))))',
    '(declare-const x String)(assert (str.in_re x re.none))(assert (str.in_re x re.allchar))',
    '(declare-const x String)(assert (str.in_re x (re.opt (str.to_re "weird ""quote"" é"))))',
]


@pytest.mark.parametrize("src", SAMPLES)
def test_print_parse_round_trip(src):
    script = parse_smt(src)
    printed = print_smt(script)
    assert parse_smt(printed) == script
    # printing is a fixed point from the first round on
    assert print_smt(parse_smt(printed)) == printed
