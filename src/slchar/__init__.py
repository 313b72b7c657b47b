"""Trace coordinates on SL(2,C) character varieties of free groups of
rank two and three, and Fricke-space membership tests for the six
simplest hyperbolic surfaces.

The submodules and the names below load on first use (PEP 562), and
no submodule loads numpy but inside the functions whose results are
arrays, so ``import slchar`` and every submodule import load none."""

import importlib

__version__ = "0.1.0"

#: Each lazy name and the submodule that owns it; a submodule owns itself.
_OWNERS = {
    **{m: m for m in ("words", "polyring", "mat2", "tracepoly", "chars", "hypgeom",
                      "fricke", "covers", "sampling")},
    "Word": "words", "parse_word": "words",
    "Polynomial": "polyring", "VariableSet": "polyring",
    "trace_poly": "tracepoly", "kappa": "tracepoly",
    "CharacterF2": "chars", "CharacterF3": "chars",
    "character_of_pair": "chars", "character_of_triple": "chars",
    "CharacterS04": "fricke", "CharacterS12": "fricke", "FNCoords": "fricke",
}

__all__ = [*_OWNERS, "__version__"]


def __getattr__(name):
    owner = _OWNERS.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{owner}")
    return module if owner == name else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
