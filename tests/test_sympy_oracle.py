"""sympy as an independent oracle for the covering maps and the S04
component identity.

Every polynomial is converted term by term to a sympy expression, and
the substitutions and expansions run in sympy, not in :mod:`slchar.polyring`.
Source and target variables get distinct prefixes, so that maps whose two
rings share variable names (``embed``, ``deck``) substitute simultaneously.
"""

import pytest
import sympy

from slchar import fricke
from slchar.covers import COVERS, ring_map
from slchar.polyring import F3_VARS, PHI, S04_VARS


def to_sympy(p, prefix):
    syms = [sympy.Symbol(prefix + n) for n in p.variables]
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(s**e for s, e in zip(syms, exp)))
        for exp, c in p.terms()
    ))


def images_sympy(rm):
    return {n: to_sympy(img, "t_") for n, img in rm.images.items()}


def push(expr, images, prefix):
    """Substitute ``images`` for the variables ``prefix + name`` of ``expr``."""
    return sympy.expand(expr.xreplace({sympy.Symbol(prefix + n): img
                                       for n, img in images.items()}))


PHI_T = to_sympy(PHI, "t_")
X123_T = sympy.Symbol("t_x123")


@pytest.mark.parametrize("key", list(COVERS))
def test_relations_map_to_zero(key):
    rm = ring_map(key)
    images = images_sympy(rm)
    assert set(images) == set(rm.source.names)
    for name, relation in COVERS[key].relations.items():
        pushed = push(to_sympy(relation, "s_"), images, "s_")
        if rm.target == F3_VARS:  # zero modulo the hypersurface
            pushed = sympy.rem(pushed, PHI_T, X123_T)
        assert pushed == 0, (key, name)


def test_deck_squares_to_identity_modulo_phi():
    rm = ring_map("deck")
    images = images_sympy(rm)
    for name, img in images.items():
        twice = push(img, images, "t_")
        assert sympy.rem(twice - sympy.Symbol("t_" + name), PHI_T, X123_T) == 0, name


def test_s04_quartic_and_component_identity():
    a, b, c, d, x, y, z = point = sympy.symbols(S04_VARS.names)
    quartic = (x**2 + y**2 + z**2 + x * y * z - (a * b + c * d) * x
               - (a * d + b * c) * y - (a * c + b * d) * z
               + a**2 + b**2 + c**2 + d**2 + a * b * c * d - 4)
    assert sympy.expand(to_sympy(fricke.s04_defining_poly(), "") - quartic) == 0
    assert sympy.expand(fricke.s04_quartic(*point) - quartic) == 0
    # the two sides of defining_identity_residual
    kab, kcd, s_minus, s_plus = fricke._s04_component_terms(*point)
    lhs = sympy.expand((4 - x * x) * quartic * 4)
    rhs = sympy.expand((2 + x) * s_minus**2 + (2 - x) * s_plus**2 - kab * kcd * 4)
    assert lhs == rhs
    assert to_sympy(fricke.defining_identity_residual(), "") == 0
