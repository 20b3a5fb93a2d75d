"""Independent output check against the generator's planted truth.

Models are tested with Python's `re.fullmatch` and plain string
concatenation; nothing here imports strsolve, so a defect in the solver's
own satisfaction predicate or membership test cannot hide itself.
"""

from __future__ import annotations

import operator
import re
from typing import Optional

from gen import Instance

_COMPARE = {"<": operator.lt, "<=": operator.le, "=": operator.eq,
            ">=": operator.ge, ">": operator.gt}


def _holds(atom: tuple, model: dict[str, str]) -> bool:
    tag = atom[0]
    if tag == "re":
        _, var, pattern = atom
        return re.fullmatch(pattern, model[var]) is not None
    if tag == "len":
        _, var, op, n = atom
        return _COMPARE[op](len(model[var]), n)
    if tag == "eq":
        _, lhs, terms = atom
        return model[lhs] == "".join(model[t] if kind == "v" else t for kind, t in terms)
    if tag == "or":
        return any(all(_holds(a, model) for a in branch) for branch in atom[1])
    raise ValueError(f"unknown spec atom {tag!r}")


def model_error(inst: Instance, model: dict[str, str]) -> Optional[str]:
    """Why `model` fails the instance's planted constraints, or None."""
    for atom in inst.spec:
        try:
            if not _holds(atom, model):
                return f"model violates {atom[:2]}"
        except KeyError as err:
            return f"model lacks variable {err}"
    return None


def outcome_error(inst: Instance, outcome: dict) -> Optional[str]:
    """Compare one solve outcome with the planted truth; None when it agrees.

    `outcome` has "kind" (sat, unsat, unknown, resource or error) and, as
    they apply, "reason", "model" and "sizes" (variable -> [states,
    transitions]). A resource stop or an exception always fails, because
    every instance's deadline is far above its cost.
    """
    kind = outcome["kind"]
    if kind in ("resource", "error"):
        return f"{kind}: {outcome.get('detail', '')}"
    if kind != inst.expect:
        return f"verdict {kind}, expected {inst.expect}"
    if kind == "unknown" and outcome.get("reason") != inst.reason:
        return f"unknown({outcome.get('reason')}), expected unknown({inst.reason})"
    if kind == "sat":
        err = model_error(inst, outcome.get("model") or {})
        if err:
            return err
    if inst.sizes is not None:
        var, states, transitions = inst.sizes
        got = tuple(outcome.get("sizes", {}).get(var, ()))
        if got != (states, transitions):
            return f"refined {var} has sizes {got}, expected {(states, transitions)}"
    return None
