"""Seeded SMT-LIB instance generator with planted ground truth.

Every instance is built together with the outcome it must have: the
expected verdict (sat, unsat, or unknown with its reason), the constraints
a sat model must meet, written as Python regular expressions, length
comparisons and word equations, and for the doubling family the exact size
of the refined automaton. The truth comes from how the instance was built,
never from running the solver, and check.py tests models with Python's
`re` module, never with strsolve.

The same (workload, seed) always gives byte-identical scripts. The seed
changes names, characters, classes, literals and the order of assertions;
the size parameters that decide an instance's cost (k, the numbers and
shapes of terms, the length bounds of long_models) come from fixed grids,
so one pass costs about the same whatever the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional

WORKLOADS = ("doubling", "smt_mix", "long_models")

DOUBLING_KS = (8, 9, 10, 11)
SMT_MIX_SIZE = 1000
LONG_MODELS_SIZE = 100
LONG_MODELS_LEN = (150, 250)  # length bounds n and m are drawn evenly from this range

DOUBLING_DEADLINE_MS = 60_000
DEFAULT_DEADLINE_MS = 10_000

SURROGATES = (0xD800, 0xDFFF)

LOWER = (ord("a"), ord("z"))
UPPER = (ord("A"), ord("Z"))
DIGIT = (ord("0"), ord("9"))


def _single(ch: str) -> tuple[int, int]:
    return (ord(ch), ord(ch))


# ---------------------------------------------------------------------------
# A small regex form printed both as SMT-LIB and as a Python pattern

def cls(*ranges: tuple[int, int]) -> tuple:
    return ("cls", tuple(sorted(ranges)))


def lit(word: str) -> tuple:
    return ("lit", word)


def cat(*items: tuple) -> tuple:
    return ("cat", items)


def alt(*items: tuple) -> tuple:
    return ("alt", items)


def star(item: tuple) -> tuple:
    return ("star", item)


def plus(item: tuple) -> tuple:
    return ("plus", item)


ANY = ("any",)


def smt_string(word: str) -> str:
    out = []
    for ch in word:
        if ch == '"':
            out.append('""')
        elif ch == "\\" or not 0x20 <= ord(ch) <= 0x7E:
            out.append(f"\\u{{{ord(ch):x}}}")
        else:
            out.append(ch)
    return '"' + "".join(out) + '"'


def to_smt(r: tuple) -> str:
    tag = r[0]
    if tag == "cls":
        parts = [f"(re.range {smt_string(chr(lo))} {smt_string(chr(hi))})" for lo, hi in r[1]]
        return parts[0] if len(parts) == 1 else f"(re.union {' '.join(parts)})"
    if tag == "lit":
        return f"(str.to_re {smt_string(r[1])})"
    if tag == "cat":
        return f"(re.++ {' '.join(to_smt(x) for x in r[1])})"
    if tag == "alt":
        return f"(re.union {' '.join(to_smt(x) for x in r[1])})"
    if tag == "star":
        return f"(re.* {to_smt(r[1])})"
    if tag == "plus":
        return f"(re.+ {to_smt(r[1])})"
    if tag == "any":
        return "re.allchar"
    raise ValueError(f"unknown regex tag {tag!r}")


def _py_char(cp: int) -> str:
    return f"\\U{cp:08x}"


def to_py(r: tuple) -> str:
    tag = r[0]
    if tag == "cls":
        return "[" + "".join(f"{_py_char(lo)}-{_py_char(hi)}" for lo, hi in r[1]) + "]"
    if tag == "lit":
        return "".join(_py_char(ord(ch)) for ch in r[1])
    if tag == "cat":
        return "".join(f"(?:{to_py(x)})" for x in r[1])
    if tag == "alt":
        return "|".join(f"(?:{to_py(x)})" for x in r[1])
    if tag == "star":
        return f"(?:{to_py(r[1])})*"
    if tag == "plus":
        return f"(?:{to_py(r[1])})+"
    if tag == "any":
        return "[\\s\\S]"
    raise ValueError(f"unknown regex tag {tag!r}")


# ---------------------------------------------------------------------------
# Instances

@dataclass(frozen=True)
class Instance:
    """One generated script and the outcome it must have.

    `spec` lists what a sat model must satisfy: ("re", var, pattern),
    ("len", var, op, n), ("eq", lhs, terms) with terms ("v", name) or
    ("l", word), and ("or", branches) where each branch is a tuple of atoms.
    `sizes` is (var, states, transitions) of the refined automaton, for the
    doubling family only.
    """

    name: str
    text: str
    expect: str                  # "sat" | "unsat" | "unknown"
    reason: Optional[str] = None  # unknown only: "not-tree" | "cyclic"
    spec: tuple = ()
    sizes: Optional[tuple] = None
    deadline_ms: int = DEFAULT_DEADLINE_MS


class _Script:
    """Collects declarations, assertions and model-check atoms of one instance."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.decls: list[str] = []
        self.asserts: list[str] = []
        self.spec: list[tuple] = []
        self.used: set[str] = set()

    def var(self, stem: str) -> str:
        while True:
            name = f"{stem}{self.rng.randrange(1000)}"
            if name not in self.used:
                self.used.add(name)
                kind = self.rng.choice(("declare-const {} String", "declare-fun {} () String"))
                self.decls.append(f"({kind.format(name)})")
                return name

    def member(self, v: str, r: tuple) -> None:
        self.asserts.append(f"(str.in_re {v} {to_smt(r)})")
        self.spec.append(("re", v, to_py(r)))

    def length(self, v: str, op: str, n: int) -> None:
        self.asserts.append(f"({op} (str.len {v}) {n})")
        self.spec.append(("len", v, op, n))

    def equation(self, lhs: str, terms: list[tuple[str, str]]) -> None:
        words = [t if kind == "v" else smt_string(t) for kind, t in terms]
        rhs = words[0] if len(words) == 1 else f"(str.++ {' '.join(words)})"
        self.asserts.append(f"(= {lhs} {rhs})")
        self.spec.append(("eq", lhs, tuple(terms)))

    def render(self, comment: str) -> str:
        asserts = list(self.asserts)
        self.rng.shuffle(asserts)
        lines = [f"; {comment}", "(set-logic QF_S)", *self.decls,
                 *(f"(assert {a})" for a in asserts), "(check-sat)"]
        return "\n".join(lines) + "\n"


def _random_word(rng: random.Random, alphabet: str, lo: int, hi: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))


# ---------------------------------------------------------------------------
# doubling: x = xi ++ xi for i = 1..k

def _doubling(rng: random.Random, k: int) -> Instance:
    s = _Script(rng)
    x = s.var("x")
    parts = [s.var(f"y{i}_") for i in range(1, k + 1)]
    for xi in parts:
        s.equation(x, [("v", xi), ("v", xi)])
    return Instance(name=f"doubling-k{k:02d}.smt2",
                    text=s.render(f"doubling family, k={k}"),
                    expect="unknown", reason="not-tree",
                    sizes=(x, 2 ** k, 3 ** k), deadline_ms=DOUBLING_DEADLINE_MS)


def doubling(seed: int) -> list[Instance]:
    rng = random.Random(f"doubling/{seed}")
    return [_doubling(rng, k) for k in DOUBLING_KS]


# ---------------------------------------------------------------------------
# long_models: z = a ++ sep ++ b with |a| >= n and |b| >= m

def _long_model(rng: random.Random, n: int, m: int) -> Instance:
    s = _Script(rng)
    a, b, z = s.var("a"), s.var("b"), s.var("z")
    sep = rng.choice("-:/.")
    s.length(a, ">=", n)
    s.length(b, ">=", m)
    s.equation(z, [("v", a), ("l", sep), ("v", b)])
    return Instance(name="", text=s.render(f"long model, |a| >= {n}, |b| >= {m}"),
                    expect="sat", spec=tuple(s.spec))


def long_models(seed: int) -> list[Instance]:
    rng = random.Random(f"long_models/{seed}")
    lo, hi = LONG_MODELS_LEN
    grid = [lo + (hi - lo) * i // (LONG_MODELS_SIZE - 1) for i in range(LONG_MODELS_SIZE)]
    ns, ms = list(grid), list(grid)
    rng.shuffle(ns)
    rng.shuffle(ms)
    out = []
    for i, (n, m) in enumerate(zip(ns, ms)):
        inst = _long_model(rng, n + rng.randint(-2, 2), m + rng.randint(-2, 2))
        out.append(replace(inst, name=f"long-{i:03d}.smt2"))
    return out


# ---------------------------------------------------------------------------
# smt_mix families

def _url(rng: random.Random, sat: bool, ordinal: int) -> Instance:
    s = _Script(rng)
    domain, d, f, path, url = (s.var("domain"), s.var("dir"), s.var("file"),
                               s.var("path"), s.var("url"))
    extra = [UPPER, DIGIT, _single("-"), _single("_")]
    s.member(domain, plus(cls(LOWER, _single("."), *rng.sample(extra[:2], rng.randint(0, 1)))))
    s.member(d, plus(cls(LOWER, *rng.sample(extra, rng.randint(1, 3)))))
    s.member(f, plus(cls(LOWER, _single("."), *rng.sample(extra, rng.randint(0, 2)))))
    s.equation(path, [("v", d), ("l", "/"), ("v", f)])
    scheme = rng.choice(("http://", "https://", "ftp://"))
    s.equation(url, [("l", scheme), ("v", domain), ("l", "/"), ("v", path)])
    if sat:
        ext = rng.choice(("html", "js", "css", "txt", "json"))
        s.member(f, cat(star(ANY), lit("." + ext)))
    else:
        # No class and no literal holds '<', so no url can contain the tag.
        tag = rng.choice(("<script>", "<img>", "<iframe>"))
        s.member(url, cat(star(ANY), lit(tag), star(ANY)))
    return Instance(name="", text=s.render("url construction"),
                    expect="sat" if sat else "unsat", spec=tuple(s.spec))


def _random_ranges(rng: random.Random, count: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """`count` disjoint, non-adjacent ranges inside [lo, hi], avoiding surrogates."""
    cuts = sorted(rng.sample(range(lo, hi), 2 * count))
    out = []
    for i in range(0, len(cuts), 2):
        a, b = cuts[i], cuts[i + 1] - 1
        if not (a <= SURROGATES[1] and b >= SURROGATES[0]):
            out.append((a, b))
    return out


def _gaps(ranges: list[tuple[int, int]], lo: int, hi: int) -> list[tuple[int, int]]:
    out, nxt = [], lo
    for a, b in ranges:
        if a > nxt:
            out.append((nxt, a - 1))
        nxt = b + 1
    if nxt <= hi:
        out.append((nxt, hi))
    return [(a, b) for a, b in out if not (a <= SURROGATES[1] and b >= SURROGATES[0])]


def _unicode(rng: random.Random, sat: bool, ordinal: int) -> Instance:
    """Two wide classes intersected on one variable; sat iff they overlap."""
    s = _Script(rng)
    x = s.var("u")
    lo, hi = 0xA0, 0x2FFFF
    count = 10 + ordinal * 7 % 51  # cycles evenly through 10..60
    first = _random_ranges(rng, count, lo, hi)
    if sat:
        second = _random_ranges(rng, count, lo, hi)
        a, b = rng.choice(first)
        cp = rng.randint(a, b)
        second = [r for r in second if not (r[0] - 1 <= cp <= r[1] + 1)] + [(cp, cp)]
    else:
        gaps = _gaps(first, lo, hi)
        second = rng.sample(gaps, min(len(gaps), count))
    s.member(x, plus(cls(*first)))
    s.member(x, plus(cls(*second)))
    if rng.random() < 0.5:
        s.length(x, "=", rng.randint(1, 8))
    else:
        s.length(x, "<=", rng.randint(1, 8))
    return Instance(name="", text=s.render("wide unicode classes"),
                    expect="sat" if sat else "unsat", spec=tuple(s.spec))


def _reachable_lengths(sizes: set[int], limit: int) -> set[int]:
    reach = {0}
    for total in range(1, limit + 1):
        if any(total - n in reach for n in sizes):
            reach.add(total)
    return reach


def _keywords(rng: random.Random, sat: bool, ordinal: int) -> Instance:
    """(kw1|...|kwn)* under an exact length; sat iff the length is a sum of
    keyword lengths."""
    s = _Script(rng)
    x = s.var("k")
    step = rng.choice((2, 3))
    words = sorted({_random_word(rng, "abcdefghijklmnopqrstuvwxyz", 1, 4) * step
                    for _ in range(3 + ordinal % 10)})
    s.member(x, star(alt(*(lit(w) for w in words))))
    reach = _reachable_lengths({len(w) for w in words}, 24)
    pool = [n for n in range(1, 25) if (n in reach) == sat]
    s.length(x, "=", rng.choice(pool))
    return Instance(name="", text=s.render("keyword dictionary"),
                    expect="sat" if sat else "unsat", spec=tuple(s.spec))


TEMPLATE_TERMS = (5, 5, 5, 6, 6, 6, 7, 7, 8, 8, 9, 10, 12, 15, 20, 30)


def _template(rng: random.Random, sat: bool, ordinal: int) -> Instance:
    """z = t1 ++ ... ++ tn over fresh variables and literals."""
    s = _Script(rng)
    z = s.var("z")
    n = TEMPLATE_TERMS[ordinal % len(TEMPLATE_TERMS)]
    terms: list[tuple[str, str]] = []
    chars: set[tuple[int, int]] = set()
    literal_chars: set[str] = set()
    for i in range(n):
        if i % 2 == 0:
            v = s.var("v")
            classes = rng.sample([LOWER, UPPER, DIGIT], 2)
            s.member(v, plus(cls(*classes)))
            chars.update(classes)
            terms.append(("v", v))
        else:
            w = _random_word(rng, "-:/=&", 1, 3)
            literal_chars.update(w)
            terms.append(("l", w))
    s.equation(z, terms)
    if sat:
        allowed = sorted(chars | {_single(c) for c in literal_chars})
        s.member(z, star(cls(*allowed)))
        s.length(z, ">=", n + n // 2)
    else:
        # Every variable needs at least one character of its class: a
        # z-class without the classes' characters empties the language.
        s.member(z, star(cls(*sorted(_single(c) for c in literal_chars | {"."}))))
    return Instance(name="", text=s.render("str.++ template"),
                    expect="sat" if sat else "unsat", spec=tuple(s.spec))


def _disjunction(rng: random.Random, sat: bool, ordinal: int) -> Instance:
    """(or (and x = w_b, x in R_b) ...); a branch is sat iff w_b is in R_b."""
    s = _Script(rng)
    x = s.var("o")
    nbranch = 2 + ordinal % 3
    good = rng.randrange(nbranch) if sat else -1
    branches, terms = [], []
    for i in range(nbranch):
        klass = rng.sample([LOWER, UPPER, DIGIT], 2)
        word = _random_word(rng, "abcxyzABCXYZ0189", 2, 8)
        if i == good:
            word = "".join(c for c in word if any(a <= ord(c) <= b for a, b in klass)) or chr(klass[0][0])
        elif all(any(a <= ord(c) <= b for a, b in klass) for c in word):
            word += "#"
        r = plus(cls(*klass))
        terms.append(f"(and (str.in_re {x} {to_smt(lit(word))}) (str.in_re {x} {to_smt(r)}))")
        branches.append((("re", x, to_py(lit(word))), ("re", x, to_py(r))))
    s.asserts.append(f"(or {' '.join(terms)})")
    s.spec.append(("or", tuple(branches)))
    s.length(x, "<=", 20)
    return Instance(name="", text=s.render("disjunction"),
                    expect="sat" if sat else "unsat", spec=tuple(s.spec))


def _shape(rng: random.Random, kind: str) -> Instance:
    """Instances the solver must leave unknown: a variable repeats on the
    right-hand sides, or the equations form a cycle. Every language is broad,
    so refinement never empties one and the verdict cannot be unsat."""
    s = _Script(rng)
    klass = plus(cls(LOWER, DIGIT))
    if kind == "not-tree":
        x, y = s.var("x"), s.var("y")
        s.member(x, klass)
        s.member(y, star(cls(LOWER, DIGIT, _single("-"), _single(":"))))
        s.equation(y, [("v", x), ("l", rng.choice("-:")), ("v", x)] if rng.random() < 0.5
                   else [("v", x), ("v", x)])
        reason = "not-tree"
    elif kind == "shared":
        x, y, z, w, q = (s.var(c) for c in "xyzwq")
        for v in (x, y, q):
            s.member(v, klass)
        s.equation(z, [("v", x), ("v", y)])
        s.equation(w, [("v", x), ("v", q)])
        reason = "not-tree"
    else:
        x, y1, y2, z1 = s.var("x"), s.var("y"), s.var("y"), s.var("z")
        s.member(y2, klass)
        s.equation(x, [("v", y1), ("v", y2)])
        s.equation(y1, [("v", z1), ("v", x)])
        reason = "cyclic"
    return Instance(name="", text=s.render(f"{kind} shape"), expect="unknown", reason=reason)


# Family mix of one block of 20 smt_mix instances: (family, sat?) pairs.
_MIX_BLOCK = (
    [("url", True)] * 2 + [("url", False)] * 2
    + [("unicode", True)] * 3 + [("unicode", False)] * 2
    + [("keywords", True), ("keywords", False)]
    + [("template", True), ("template", False)]
    + [("or", True)] * 3 + [("or", False)] * 2
    + [("not-tree", None), ("shared", None), ("cyclic", None)]
)

_FAMILIES = {"url": _url, "unicode": _unicode, "keywords": _keywords,
             "template": _template, "or": _disjunction}


def smt_mix(seed: int) -> list[Instance]:
    rng = random.Random(f"smt_mix/{seed}")
    ordinals: dict[tuple, int] = {}
    out = []
    for i in range(SMT_MIX_SIZE):
        family, sat = key = _MIX_BLOCK[i % len(_MIX_BLOCK)]
        ordinal = ordinals[key] = ordinals.get(key, -1) + 1
        inst = _shape(rng, family) if sat is None else _FAMILIES[family](rng, sat, ordinal)
        out.append(replace(inst, name=f"mix-{i:04d}-{family}.smt2"))
    return out


def generate(workload: str, seed: int) -> list[Instance]:
    """The workload's fixed instance set for `seed`."""
    if workload == "doubling":
        return doubling(seed)
    if workload == "smt_mix":
        return smt_mix(seed)
    if workload == "long_models":
        return long_models(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
