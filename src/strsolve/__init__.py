"""String-constraint solving over interval-labeled symbolic NFAs.

The pipeline: SMT-LIB or direct surface constraints are desugared into a
core form (word equations v = v1 + v2 plus one regular constraint per
variable); forward propagation refines every variable's automaton along
the concatenation dependence graph; the refined languages then decide
sat / unsat / unknown, with a checked model on sat.
"""

from .constraints import (Assignment, CyclicDependencyError, Equation, Length, Lit,
                          Membership, Or, Problem, SurfaceConstraint, Var, VarId,
                          check_tree, desugar, layering, make_problem, problem_dump,
                          sat_str)
from .errors import (ResourceLimitError, StrSolveError, SyntaxParseError,
                     UnsupportedError)
from .intervals import FULL, MAX_CODEPOINT
from .regex import length_automaton, sigma_star, word_automaton
from .smtlib import SmtScript, parse_smt
from .snfa import (Budget, SNfa, accepts, concat, dump, is_empty, product, snfa,
                   some_word, split_word, to_dot)
from .solver import (RefinedReg, SolveStats, Verdict, classify, extract_model,
                     forward_prop, solve)

__version__ = "0.1.0"

__all__ = [
    "Assignment", "Budget", "CyclicDependencyError", "Equation", "FULL", "Length", "Lit",
    "MAX_CODEPOINT", "Membership", "Or", "Problem",
    "RefinedReg", "ResourceLimitError", "SNfa", "SmtScript", "SolveStats", "StrSolveError",
    "SurfaceConstraint", "SyntaxParseError", "UnsupportedError", "Var",
    "VarId", "Verdict", "accepts", "check_tree", "classify", "concat", "desugar", "dump",
    "extract_model", "forward_prop", "is_empty", "layering", "length_automaton",
    "make_problem", "parse_smt", "problem_dump", "product", "sat_str",
    "sigma_star", "snfa", "solve", "some_word", "split_word", "to_dot", "word_automaton",
]
