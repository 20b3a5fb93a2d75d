"""Fuzzing of the parsers and of the `strsolve solve` exit contract.

Each input must end in a documented outcome: a parse result or a
`StrSolveError` from the parsers, and exit code 0, 1 or 2 from the
command line, never a traceback. The examples are derandomized so that
the suite stays deterministic.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from strsolve import regex as rx
from strsolve.cli import EXIT_PARSE, EXIT_RESOURCE, EXIT_VERDICT, main
from strsolve.errors import StrSolveError
from strsolve.smtlib import parse_smt

REGEX_PIECES = ["a", "b", "c", "-", "(", ")", "[", "]", "[^", "{", "}", "{2,3}", "|",
                "*", "+", "?", "*?", "++", ".", "^", "$", "\\", "\\u{", "\\u0061",
                "\\x4", "\\x-1", "\\u{0x41}", "\\u{1_0}", "\\d", "\\1", "(?:", "(?=", "é",
                "\U0001f600"]
regex_src = st.one_of(st.lists(st.sampled_from(REGEX_PIECES), max_size=12).map("".join),
                      st.text(max_size=12))

# Scripts come from the documented term grammar (docs/smtlib-subset.md)
# over three declared variables, with random s-expressions mixed in, so that
# both the parser's error paths and the solver behind it are reached.
SMT_ATOMS = ["x", "y", "z", "_t1", "w", "String", "Int", "assert", "declare-const",
             "check-sat", "and", "or", "not", "=", "<=", "str.len", "str.++",
             "str.in_re", "str.to_re", "re.range", "re.inter", "0", "3", "-1", '""',
             '"a"', '"""a"', '"\\u{62}"', '"\\u{110000}"', '"\\u{zz}"', '"\\u00e9"',
             "¹", "|x|", '"ab']
STRINGS = ['""', '"a"', '"ab"', '"b"', '"ba"', '"""a"', '"\\u{62}"', '"\\u{110000}"',
           '"\\u{zz}"', '"\\u00e9"', '"\\u+041"', '"\\x"']
VARS = ["x", "y", "z"]
string = st.sampled_from(STRINGS)
var = st.sampled_from(VARS)
sexpr = st.recursive(st.sampled_from(SMT_ATOMS),
                     lambda inner: st.lists(inner, max_size=4).map(
                         lambda items: "(" + " ".join(items) + ")"),
                     max_leaves=8)


def _app(head: str, *args: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    return st.tuples(*args).map(lambda xs: "(" + " ".join((head,) + xs) + ")")


def _nary(head: str, inner: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    return st.lists(inner, min_size=1, max_size=3).map(
        lambda xs: "(" + " ".join([head] + xs) + ")")


word = st.recursive(st.one_of(var, string), lambda inner: _nary("str.++", inner),
                    max_leaves=4)
regex = st.recursive(
    st.one_of(_app("str.to_re", string), _app("re.range", string, string),
              st.sampled_from(["re.allchar", "re.all", "re.none"])),
    lambda inner: st.one_of(_nary("re.++", inner), _nary("re.union", inner),
                            _app("re.*", inner), _app("re.+", inner), _app("re.opt", inner),
                            _app("re.inter", inner, inner)),
    max_leaves=5)
length = _app("str.len", var)
# numerals around the digit bound of the reader and Python's 4300-digit
# limit on int(), with leading zeros and signs
huge_numeral = st.tuples(st.sampled_from(["", "-", "0" * 990]),
                         st.sampled_from([1, 9, 999, 1000, 1001, 4300, 4301, 5000]),
                         st.sampled_from("19")).map(lambda t: t[0] + t[2] * t[1])
bound = st.one_of(st.sampled_from(["0", "1", "2", "3", "-1", "10001"]), huge_numeral)
compare = st.sampled_from(["<", "<=", "=", ">=", ">"])
atom = st.one_of(
    _app("=", st.one_of(var, string), word),
    _app("str.in_re", var, regex),
    st.tuples(compare, length, bound).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
    st.tuples(compare, bound, length).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
    sexpr)
term = st.recursive(atom, lambda inner: st.one_of(_nary("and", inner), _nary("or", inner),
                                                  _app("not", inner)),
                    max_leaves=4)
DECLARED = "(declare-const x String)(declare-const y String)(declare-fun z () String)"
smt_src = st.one_of(
    st.lists(term, max_size=4).map(
        lambda terms: DECLARED + "".join(f"(assert {t})" for t in terms) + "(check-sat)"),
    st.lists(st.one_of(sexpr, st.sampled_from(["(", ")", ";", "\n"])), max_size=6).map(" ".join),
    st.text(max_size=20))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(regex_src)
def test_regex_parser_raises_only_package_errors(src):
    try:
        rx.compile(rx.parse_regex(src))
    except StrSolveError:
        pass


@settings(derandomize=True, max_examples=200, deadline=None)
@given(smt_src)
def test_smt_parser_raises_only_package_errors(src):
    try:
        parse_smt(src)
    except StrSolveError:
        pass


def _solve_exits_with_a_documented_code(src, tmp_path, capsys, timeout_ms=2000) -> None:
    path = tmp_path / "fuzz.smt2"
    path.write_text(src, encoding="utf-8")
    code = main(["solve", str(path), "--model", "--timeout", str(timeout_ms),
                 "--max-transitions", "20000"])
    assert code in (EXIT_VERDICT, EXIT_PARSE, EXIT_RESOURCE)
    out, _ = capsys.readouterr()
    if code == EXIT_VERDICT:
        assert out.splitlines()[0] in ("sat", "unsat", "unknown")
    else:
        assert out == ""


@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(src=smt_src)
def test_solve_exits_with_a_documented_code(src, tmp_path, capsys):
    _solve_exits_with_a_documented_code(src, tmp_path, capsys)


length_script = st.tuples(compare, huge_numeral, st.booleans()).map(
    lambda t: DECLARED + (f"(assert ({t[0]} (str.len x) {t[1]}))" if t[2]
                          else f"(assert ({t[0]} {t[1]} (str.len x)))") + "(check-sat)")


@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(src=length_script)
def test_huge_numerals_end_in_a_documented_outcome(src, tmp_path, capsys):
    try:
        parse_smt(src)
    except StrSolveError:
        pass
    _solve_exits_with_a_documented_code(src, tmp_path, capsys)


# Deep nesting, up to about 1500 levels, in each of the three places the
# grammar nests: regex operators, `and`/`or`, and `str.++`. A term is its base
# wrapped `depth` times, cycling through a drawn pattern of wrappers.
NESTINGS = {
    "(assert (str.in_re x {}))": ('(str.to_re "a")', [
        "(re.* {})", '(re.++ {} (str.to_re "b"))', '(re.union (str.to_re "a") {})',
        "(re.opt {})"]),
    "(assert {})": ('(str.in_re x (str.to_re "a"))', [
        '(and {} (str.in_re y (re.* (str.to_re "a"))))', '(or (= x "b") {})']),
    "(assert (= x {}))": ('"a"', ['(str.++ {} "a")', "(str.++ y {})"]),
}


@st.composite
def deep_script(draw) -> str:
    place = draw(st.sampled_from(sorted(NESTINGS)))
    base, wrappers = NESTINGS[place]
    pattern = draw(st.lists(st.sampled_from(wrappers), min_size=1, max_size=4))
    depth = draw(st.one_of(st.sampled_from([500, 1000, 1500]), st.integers(1, 1500)))
    levels = [pattern[i % len(pattern)].split("{}") for i in range(depth)]
    term = ("".join(pre for pre, _ in levels) + base
            + "".join(post for _, post in reversed(levels)))
    return DECLARED + place.format(term) + "(check-sat)"


@settings(derandomize=True, max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(src=deep_script())
def test_deep_nesting_ends_in_a_documented_outcome(src, tmp_path, capsys):
    # a long str.++ chain of literals solves in seconds, so the deadline is short
    _solve_exits_with_a_documented_code(src, tmp_path, capsys, timeout_ms=500)
