import importlib
import importlib.util
import inspect

import strsolve


def test_all_names_resolve_without_duplicates():
    assert len(strsolve.__all__) == len(set(strsolve.__all__))
    for name in strsolve.__all__:
        assert hasattr(strsolve, name), name


def test_removed_duplicates_stay_removed():
    # import_module, because the package attribute `snfa` is the constructor
    for module_name, name in (("solver", "ready_set"), ("snfa", "well_formed"),
                              ("snfa", "isomorphic"), ("intervals", "sem"),
                              ("snfa", "_int_adjacency"), ("snfa", "rename"),
                              ("snfa", "_out"), ("smtlib", "_tokenize"),
                              ("snfa", "StateId"), ("snfa", "_reached_keys"),
                              ("regex", "_without_never"), ("constraints", "validate_problem"),
                              ("smtlib", "SNode"), ("smtlib", "SStr"), ("smtlib", "_read_all"),
                              ("constraints", "dependencies"), ("solver", "var_lang"),
                              # only the tests call these; tests/helpers.py holds them
                              ("smtlib", "print_smt"), ("smtlib", "_print_constraint"),
                              ("smtlib", "_print_regex"), ("snfa", "remove_unreachable"),
                              # wrappers or helpers nothing called
                              ("regex", "compile_pattern"), ("intervals", "nonempty"),
                              ("intervals", "mem"), ("intervals", "intersection"),
                              # paths no solve and no benchmark workload reached
                              ("smtlib", "_CHAR"), ("snfa", "Transition"),
                              ("intervals", "ENUM_CAP")):
        module = importlib.import_module(f"strsolve.{module_name}")
        assert not hasattr(module, name), f"{module_name}.{name}"
        assert not hasattr(strsolve, name), name
    # the brute-force oracle is tests/oracle.py, apart from the code it checks
    assert importlib.util.find_spec("strsolve.oracle") is None
    for name in ("oracle_sat", "oracle_lang", "Bound", "word_in"):
        assert not hasattr(strsolve, name), name
    assert not hasattr(strsolve.SNfa, "_out")  # the rows are the one adjacency form
    assert not hasattr(strsolve.Budget, "charge")  # product and concat check as they build
    for method in ("union", "full", "contains", "count", "code_points"):
        assert not hasattr(strsolve.IntervalSet, method), method
    # switches with one value in use: `bench` returns its report, and the
    # command prints it and writes the records; every DOT graph is `snfa`
    bench = importlib.import_module("strsolve.cli").bench
    assert not {"quiet", "stats_path"} & set(inspect.signature(bench).parameters)
    assert "name" not in inspect.signature(strsolve.to_dot).parameters


def test_benchmark_hooks_keep_their_names_and_signatures():
    # perfbench/trace.py wraps solver.split_word and counts snfa.accepts
    solver = importlib.import_module("strsolve.solver")
    snfa = importlib.import_module("strsolve.snfa")
    assert solver.split_word is snfa.split_word
    assert list(inspect.signature(solver.split_word).parameters) == ["a1", "a2", "w"]
    assert list(inspect.signature(snfa.accepts).parameters) == ["a", "word"]
