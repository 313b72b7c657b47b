"""Public surface checks: every exported name resolves, and no public
function or method takes a tolerance parameter.  Tolerances are fixed
in the function that uses them (README, "Fixed tolerances")."""

import importlib
import inspect

import pytest

import slchar

MODULES = ("words", "polyring", "mat2", "tracepoly", "chars", "hypgeom",
           "fricke", "covers", "sampling", "cli")


def _module(name):
    return importlib.import_module(f"slchar.{name}")


def _public_callables(mod):
    """(qualified name, function) for the public functions defined in mod
    and the public methods and ``__init__`` of its public classes."""
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)  # static and class methods
                if inspect.isfunction(member) and (attr == "__init__" or not attr.startswith("_")):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    mod = _module(name)
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def test_package_exports_resolve():
    assert [n for n in slchar.__all__ if not hasattr(slchar, n)] == []


def test_walk_sees_functions_methods_and_init():
    mat2 = dict(_public_callables(_module("mat2")))
    chars = dict(_public_callables(_module("chars")))
    hypgeom = dict(_public_callables(_module("hypgeom")))
    assert {"hat", "inverse", "sign_normalize"} <= set(mat2)
    assert {"CharacterF3.is_valid", "IrreducibilityReport.witnesses_agree"} <= set(chars)
    assert "DeSitterVec.__init__" in hypgeom


@pytest.mark.parametrize("name", MODULES)
def test_no_tolerance_parameters(name):
    knobs = [f"{qualname}({param})"
             for qualname, f in _public_callables(_module(name))
             for param in inspect.signature(f).parameters if "tol" in param.lower()]
    assert knobs == []
