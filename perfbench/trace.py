"""Spans around the calls into each strsolve module, recorded from outside.

A Tracer replaces the module bindings that callers look up at call time
with wrappers. Each wrapper appends a span (name, start, end, parent span,
instance id, output size) to an in-memory list; `snfa.accepts` is only
counted, so that its time stays inside `snfa.split_word`, whose cost it
is. Leaving the `with` block restores every binding.

Self time is a span's duration minus the durations of its direct
children. Nothing inside the package changes.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module, binding, span name). Callers reach each of these through a
# module global or attribute at call time, which is what makes the
# replacement visible to them.
SPANNED = (
    ("strsolve.cli", "solve_path", "cli.solve_path"),
    ("strsolve.cli", "parse_smt", "smtlib.parse_smt"),
    ("strsolve.cli", "desugar", "constraints.desugar"),
    ("strsolve.cli", "solve", "solver.solve"),
    ("strsolve.constraints", "product", "snfa.product"),
    ("strsolve.regex", "compile", "regex.compile"),
    ("strsolve.regex", "length_automaton", "regex.length_automaton"),
    ("strsolve.regex", "word_automaton", "regex.word_automaton"),
    ("strsolve.solver", "forward_prop", "solver.forward_prop"),
    ("strsolve.solver", "classify", "solver.classify"),
    ("strsolve.solver", "concat", "snfa.concat"),
    ("strsolve.solver", "product", "snfa.product"),
    ("strsolve.solver", "is_empty", "snfa.is_empty"),
    ("strsolve.solver", "some_word", "snfa.some_word"),
    ("strsolve.solver", "split_word", "snfa.split_word"),
    ("strsolve.solver", "extract_model", "solver.extract_model"),
    ("strsolve.solver", "sat_str", "constraints.sat_str"),
    ("strsolve.solver", "check_tree", "constraints.check_tree"),
)
COUNTED = (("strsolve.snfa", "accepts", "snfa.accepts"),)


def _automaton_size(args, result) -> tuple[int, int]:
    return len(result.states), len(result.transitions)


# Output size recorded per span name, measured after the span has ended.
_SIZES = {
    "smtlib.parse_smt": lambda args, result: (len(args[0].encode("utf-8")),),
    "constraints.desugar": lambda args, result: (len(result), sum(len(p.variables) for p in result)),
    "regex.compile": _automaton_size,
    "snfa.product": _automaton_size,
    "snfa.concat": _automaton_size,
}

NAME, START, END, PARENT, INSTANCE, SIZE = range(6)


class Tracer:
    """In-memory spans and call counts; install with `with Tracer() as t:`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.instance: object = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _spanned(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        size = _SIZES.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.instance, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if size is not None:
                span[SIZE] = size(args, result)
            return result

        return traced

    def _counted(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def __enter__(self) -> "Tracer":
        for table, wrap in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for module_name, attr, name in table:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def layer_metrics(spans: list[list], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer totals of one pass: self times in ms, calls, output sizes."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    self_ms: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    sizes: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        name = span[NAME]
        self_ms[name] += (span[END] - span[START] - child[i]) * 1000.0
        calls[name] += 1
        if span[SIZE] is not None:
            acc = sizes.setdefault(name, [0] * len(span[SIZE]))
            for j, v in enumerate(span[SIZE]):
                acc[j] += v

    def size(name: str, j: int) -> float:
        return float(sizes.get(name, (0, 0))[j])

    parse_ms = self_ms["smtlib.parse_smt"]
    bytes_in = size("smtlib.parse_smt", 0)
    splits = calls["snfa.split_word"]
    out = {
        "cli.solve_path.self_ms": self_ms["cli.solve_path"],
        "smtlib.parse_smt.ms": parse_ms,
        "smtlib.bytes_in": bytes_in,
        "smtlib.parse_smt.kb_per_s": bytes_in / 1024.0 / (parse_ms / 1000.0) if parse_ms else 0.0,
        "regex.compile.ms": self_ms["regex.compile"],
        "regex.compile.calls": float(calls["regex.compile"]),
        "regex.compile.transitions_out": size("regex.compile", 1),
        "regex.length_automaton.ms": self_ms["regex.length_automaton"],
        "regex.word_automaton.ms": self_ms["regex.word_automaton"],
        "constraints.desugar.self_ms": self_ms["constraints.desugar"],
        "constraints.problems_out": size("constraints.desugar", 0),
        "constraints.vars_out": size("constraints.desugar", 1),
        "constraints.sat_str.ms": self_ms["constraints.sat_str"],
        "constraints.check_tree.ms": self_ms["constraints.check_tree"],
        "snfa.is_empty.ms": self_ms["snfa.is_empty"],
        "snfa.some_word.ms": self_ms["snfa.some_word"],
        "snfa.split_word.ms": self_ms["snfa.split_word"],
        "snfa.split_word.calls": float(splits),
        "snfa.accepts.calls": float(counts.get("snfa.accepts", 0)),
        "snfa.split_word.accepts_per_split":
            counts.get("snfa.accepts", 0) / splits if splits else 0.0,
        "solver.forward_prop.self_ms": self_ms["solver.forward_prop"],
        "solver.extract_model.self_ms": self_ms["solver.extract_model"],
        "solver.classify.self_ms": self_ms["solver.classify"],
    }
    for op in ("product", "concat"):
        name = f"snfa.{op}"
        out[f"{name}.ms"] = self_ms[name]
        out[f"{name}.calls"] = float(calls[name])
        out[f"{name}.states_out"] = size(name, 0)
        out[f"{name}.transitions_out"] = size(name, 1)
    out["attributed_ms"] = sum(s[END] - s[START] for s in spans if s[PARENT] < 0) * 1000.0
    return out
