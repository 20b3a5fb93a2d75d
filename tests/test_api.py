import importlib

import strsolve


def test_all_names_resolve_without_duplicates():
    assert len(strsolve.__all__) == len(set(strsolve.__all__))
    for name in strsolve.__all__:
        assert hasattr(strsolve, name), name


def test_removed_duplicates_stay_removed():
    # import_module, because the package attribute `snfa` is the constructor
    for module_name, name in (("solver", "ready_set"), ("snfa", "well_formed"),
                              ("snfa", "isomorphic"), ("intervals", "sem")):
        module = importlib.import_module(f"strsolve.{module_name}")
        assert not hasattr(module, name), f"{module_name}.{name}"
        assert not hasattr(strsolve, name), name
