"""Trace coordinates on SL(2,C) character varieties of free groups of
rank two and three, and Fricke-space membership tests for the six
simplest hyperbolic surfaces."""

from . import chars, covers, fricke, hypgeom, mat2, polyring, sampling, tracepoly, words
from .chars import CharacterF2, CharacterF3, character_of_pair, character_of_triple
from .fricke import CharacterS04, CharacterS12, FNCoords
from .polyring import Polynomial, VariableSet
from .tracepoly import kappa, trace_poly, trace_poly_f2, trace_poly_f3
from .words import Word, parse_word

__version__ = "0.1.0"

__all__ = [
    "words", "polyring", "mat2", "tracepoly", "chars", "hypgeom",
    "fricke", "covers", "sampling",
    "Word", "parse_word", "Polynomial", "VariableSet",
    "trace_poly", "trace_poly_f2", "trace_poly_f3", "kappa",
    "CharacterF2", "CharacterF3", "character_of_pair", "character_of_triple",
    "CharacterS04", "CharacterS12", "FNCoords",
    "__version__",
]
