"""sympy as an independent oracle for the covering maps, the S04
component identity and the S04/S12 relations, which ``fricke`` derives
from the Sum/Product relation and ``kappa_value``: here they are typed out.

Every polynomial is converted term by term to a sympy expression, and
the substitutions and expansions run in sympy, not in :mod:`slchar.polyring`.
Source and target variables get distinct prefixes, so that maps whose two
rings share variable names (``embed``, ``deck``) substitute simultaneously.
"""

import pytest
import sympy

from slchar import fricke
from slchar.covers import COVERS, ring_map
from slchar.polyring import (
    F3_VARS, PHI, PRODUCT_RELATION, S04_VARS, S12_VARS, SUM_RELATION, Polynomial,
)


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


def test_s04_commutator_terms_by_hand():
    a, b, c, d, x, y, z = point = sympy.symbols(S04_VARS.names)
    k_pq = tuple(x**2 + p**2 + q**2 - p * q * x - 4 for p, q in ((a, b), (c, d)))
    for got in (fricke._s04_component_terms(*point)[:2],
                tuple(to_sympy(p, "") for p in fricke._s04_polys()[1:3])):
        assert tuple(sympy.expand(g - k) for g, k in zip(got, k_pq)) == (0, 0)


def test_s12_relations_by_hand():
    a, b, u, v, w, x, y, z = point = sympy.symbols(S12_VARS.names)
    relations = (
        a + b - (y * v + x * w + z * u - u * x * y),
        a * b - (x**2 + y**2 + u**2 + v**2 + w**2 + z**2
                 - x * y * z - y * u * w - u * x * v + v * w * z - 4),
    )
    for got in (fricke._s12_tests(*point)[:2],
                tuple(to_sympy(p, "") for p in fricke.s12_relation_polys())):
        assert tuple(sympy.expand(g - r) for g, r in zip(got, relations)) == (0, 0)


def _relabelling(target, names):
    """Each F3 coordinate to the named variable of ``target``; x123 to 0
    when no name is given for it."""
    images = {n: Polynomial.variable(target, m) for n, m in zip(F3_VARS.names, names)}
    return {n: images.get(n, Polynomial.zero(target)) for n in F3_VARS.names}


def test_s04_quartic_is_relabelled_phi():
    relabel = _relabelling(S04_VARS, ("a", "b", "c", "x", "z", "y", "d"))
    assert fricke.s04_defining_poly() == PHI.substitute(relabel)


def test_s12_relations_are_relabelled_sum_product():
    relabel = _relabelling(S12_VARS, ("u", "x", "y", "v", "w", "z"))
    a, b = (Polynomial.variable(S12_VARS, n) for n in "ab")
    assert fricke.s12_relation_polys() == (
        a + b - SUM_RELATION.substitute(relabel),
        a * b - PRODUCT_RELATION.substitute(relabel),
    )
