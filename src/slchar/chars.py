"""Character maps and inverse constructions.

Characters of pairs and triples, irreducibility tests, the real
character classification, and the explicit reconstruction of a
rank-3 representation from six traces and a branch choice, on the
4-tuples of :mod:`slchar.tracepoly`: only ``construct_triple`` and
``hermitian_invariant_form``, whose results are arrays, load ``mat2``.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from ._intake import take, unless_overflowed
from .polyring import F2_VARS, F3_VARS, sum_product
from .tracepoly import (
    GeometryError, _character, _entries, _format_complex, _modulus, _mul, _normal_form,
    _principal_root, _trace_of_product, kappa_value, principal_sqrt, word_trace)
from .words import Word

__all__ = [
    "CharacterF2",
    "CharacterF3",
    "RealCharClass",
    "IrreducibilityReport",
    "character_of_pair",
    "character_of_triple",
    "is_irreducible",
    "irreducibility_witnesses",
    "classify_real_character",
    "axes_cross",
    "triple_trace_roots",
    "construct_triple",
    "hermitian_invariant_form",
]

#: Tolerance for equality tests against 2 (irreducibility) in float mode.
IRREDUCIBILITY_TOL = 1e-9


@dataclass(frozen=True)
class CharacterF2:
    x: complex
    y: complex
    z: complex

    def as_tuple(self):
        return (self.x, self.y, self.z)

    def kappa(self) -> complex:
        return kappa_value(self.x, self.y, self.z)

    def to_json(self) -> dict:
        return {"x": _format_complex(complex(self.x)),
                "y": _format_complex(complex(self.y)),
                "z": _format_complex(complex(self.z))}


@dataclass(frozen=True)
class CharacterF3:
    t1: complex
    t2: complex
    t3: complex
    t12: complex
    t13: complex
    t23: complex
    t123: complex
    t132: complex

    def as_tuple(self):
        return (self.t1, self.t2, self.t3, self.t12, self.t13, self.t23,
                self.t123, self.t132)

    def sum_product_residuals(self) -> tuple[float, float]:
        """Absolute residuals of the Sum and Product relations."""
        *six, t123, t132 = self.as_tuple()
        fsum, fprod = sum_product(*six)
        return _modulus(t123 + t132 - fsum), _modulus(t123 * t132 - fprod)

    def is_valid(self) -> bool:
        """Both residuals at most 1e-9."""
        r1, r2 = self.sum_product_residuals()
        return r1 <= 1e-9 and r2 <= 1e-9

    def to_json(self) -> dict:
        names = ("t1", "t2", "t3", "t12", "t13", "t23", "t123", "t132")
        return {n: _format_complex(complex(v))
                for n, v in zip(names, self.as_tuple())}


class RealCharClass(enum.Enum):
    SU2_FIXED_POINT = "SU2-fixed-point"
    SL2R_PLANE = "SL2R-plane"
    REDUCIBLE_CENTRAL = "Reducible-central"
    REDUCIBLE_SO2 = "Reducible-SO2"
    REDUCIBLE_SO11 = "Reducible-SO11"
    REDUCIBLE_PARABOLIC_FIXED = "Reducible-parabolic-fixed"
    REDUCIBLE_UNDETERMINED = "Reducible-undetermined"


def character_of_pair(xi, eta) -> CharacterF2:
    """Fractions for exact pairs (N, d)."""
    traces, dens = _character(F2_VARS, (xi, eta))
    return CharacterF2(*(traces if dens is None else map(Fraction, traces, dens)))


def character_of_triple(m1, m2, m3) -> CharacterF3:
    """Fractions for exact pairs (N, d).  t132 is tr((m1 m3) m2), m1 m3
    being the product behind t13."""
    traces, dens = _character(F3_VARS, (m1, m2, m3), (1, 3, 2))
    return CharacterF3(*(traces if dens is None else map(Fraction, traces, dens)))


def is_irreducible(c: CharacterF2) -> bool:
    """kappa(x, y, z) != 2: exact for rational input, within
    ``IRREDUCIBILITY_TOL`` for float or complex input."""
    k = kappa_value(*c.as_tuple())
    if isinstance(k, Rational):
        return k != 2
    return _modulus(k - 2) > IRREDUCIBILITY_TOL


@dataclass(frozen=True)
class IrreducibilityReport:
    kappa: complex
    commutator_trace: complex
    lie_determinant: complex
    basis_determinant: complex
    irreducible: bool

    def witnesses_agree(self) -> bool:
        """Each witness within 1e-8 (1 + |kappa|) of its value, both sides
        halved (exactly), so that no finite modulus leaves the float range."""
        eps = 1e-8 * (0.5 + abs(self.kappa * 0.5))
        return (
            abs((self.commutator_trace - self.kappa) * 0.5) <= eps
            and abs((self.lie_determinant - (2 - self.kappa)) * 0.5) <= eps
            and abs((self.basis_determinant - (2 - self.kappa)) * 0.5) <= eps
        )


def irreducibility_witnesses(xi, eta) -> IrreducibilityReport:
    """Evaluate all equivalent irreducibility criteria on a pair of
    numeric matrices (arrays, or 4-tuples of their rows).

    The witnesses: tr[xi,eta] (must differ from 2), det of the Lie
    product xi eta - eta xi (must be nonzero, equals 2 - kappa), and the
    4x4 determinant of {I, xi, eta, xi eta} in the elementary-matrix
    basis (also 2 - kappa), by two 3x3 minors along I's column.
    """
    c = character_of_pair(xi, eta)
    a, b = _entries(xi), _entries(eta)
    ab = _mul(a, b)
    rows = list(zip(a, b, ab))
    lie = [p - q for p, q in zip(ab, _mul(b, a))]

    def minor(r0, r1, r2):
        return (r0[0] * (r1[1] * r2[2] - r1[2] * r2[1]) - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
                + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0]))

    report = IrreducibilityReport(
        kappa=kappa_value(*c.as_tuple()),
        commutator_trace=word_trace(Word(2, (1, 2, -1, -2)), (xi, eta)),
        lie_determinant=lie[0] * lie[3] - lie[1] * lie[2],
        basis_determinant=minor(*rows[1:]) - minor(*rows[:3]),
        irreducible=is_irreducible(c),
    )
    if not report.witnesses_agree():
        raise AssertionError(f"irreducibility witnesses disagree: {report}")
    return report


def classify_real_character(x: float, y: float, z: float) -> RealCharClass:
    """Case split for real (x, y, z).

    kappa < 2 with all traces in [-2, 2] fixes a point of hyperbolic
    3-space (an SU(2) character); any other kappa != 2 preserves a
    plane (an SL(2,R) character).  kappa = 2 is reducible; only the
    SO(2)/SO(1,1) subcases are determined by the character alone, and
    the all-boundary case stays undetermined (central and
    parabolic-fixed representations share those traces).  Every
    comparison allows ``IRREDUCIBILITY_TOL``.
    """
    tol = IRREDUCIBILITY_TOL
    x, y, z = take(GeometryError, "classify_real_character", "x y z", (x, y, z))
    k = kappa_value(x, y, z)
    in_cube = all(abs(t) <= 2 + tol for t in (x, y, z))
    if abs(k - 2) > tol:
        if k < 2 and in_cube:
            return RealCharClass.SU2_FIXED_POINT
        return RealCharClass.SL2R_PLANE
    all_edge = all(abs(abs(t) - 2) <= tol for t in (x, y, z))
    outside = all(abs(t) >= 2 - tol for t in (x, y, z))
    if all_edge:
        return RealCharClass.REDUCIBLE_UNDETERMINED
    if in_cube:
        return RealCharClass.REDUCIBLE_SO2
    if outside:
        return RealCharClass.REDUCIBLE_SO11
    return RealCharClass.REDUCIBLE_UNDETERMINED


def axes_cross(x: float, y: float, z: float) -> bool:
    """For a real character with kappa <= -2, other than the quaternion
    character (0,0,0): the generators act as hyperbolic elements of
    SL(2,R) with crossing axes, so the answer is always True.

    If |x| <= 2, |xyz| <= y^2 + z^2, so kappa + 2 >= x^2 >= 0, with
    equality only at the origin; likewise for y and z.  So on kappa <= -2
    every |trace| > 2 but at the origin, and det[X,Y] = 2 - kappa >= 4:
    hyperbolic axes cross exactly when kappa < 2 (Goldman, Geom. Topol.
    7, 2003).  ``GeometryError`` refuses a kappa above -2 + 1e-12 or NaN
    (one that overflows at finite traces decided exactly, by
    ``_intake.unless_overflowed``), the origin within 1e-12 and an exact
    trace past the float range.
    """
    x, y, z = take(GeometryError, "axes_cross", "x y z", (x, y, z))
    k = kappa_value(x, y, z)
    exact = unless_overflowed(k, kappa_value, x, y, z)
    if not exact <= -2 + 1e-12:
        got = k if exact is k else "one past the float range"
        raise GeometryError(f"axes_cross requires kappa <= -2, got {got}")
    if abs(x) < 1e-12 and abs(y) < 1e-12 and abs(z) < 1e-12:
        raise GeometryError("the quaternion character (0,0,0) is excluded")
    return True


def triple_trace_roots(t1, t2, t3, t12, t13, t23) -> tuple[complex, complex]:
    """The two roots of t^2 - f_Sigma t + f_Pi at the six given traces.

    The first root is the one with larger real part, ties broken by
    larger imaginary part (the deterministic sheet labeling of the
    double cover).  A NaN or infinite trace raises ``GeometryError``
    naming it.  Exact traces give an exact f_Sigma and discriminant
    f_Sigma^2 - 4 f_Pi, each rounded once; one past the float range (or
    overflowed at finite float traces) raises ``GeometryError``, which
    names it, or a trace past the float range if there is one.
    """
    args = ("triple_trace_roots", "t1 t2 t3 t12 t13 t23", (t1, t2, t3, t12, t13, t23), complex)
    traces = take(GeometryError, *args, exact=True)
    fsum, fprod = sum_product(*traces)
    rounded = []
    for name, v in (("f_Sigma", fsum), ("discriminant", fsum * fsum - 4 * fprod)):
        try:
            rounded.append(complex(v))
            if not cmath.isfinite(rounded[-1]):
                raise OverflowError  # a trace not finite (each is in f_Sigma), or an overflow
        except OverflowError:
            take(GeometryError, *args)  # names a trace past the float range
            for t_name, t in zip(args[1].split(), traces):
                if not cmath.isfinite(t):
                    raise GeometryError(f"triple_trace_roots needs finite traces, "
                                        f"got {t_name} = {t}") from None
            raise GeometryError(f"triple_trace_roots needs finite traces, got {name} past "
                                "the float range") from None
    fsum, disc = rounded[0], principal_sqrt(rounded[1])
    r1 = (fsum + disc) / 2
    r2 = (fsum - disc) / 2
    if (r1.real, r1.imag) >= (r2.real, r2.imag):
        return r1, r2
    return r2, r1


def construct_triple(t1, t2, t3, t12, t23, t13, branch: str = "+"):
    """A unimodular triple realizing six prescribed traces.

    When (t1, t2, t12) is an irreducible rank-2 character the branch
    sign first picks t123 among the roots of t^2 - f_Sigma t + f_Pi
    (``triple_trace_roots``; '+' is the root with larger real part).
    xi1, xi2 is ``normal_form_pair(t1, t2, t12)`` and xi3 = [[p, q],
    [r, s]] is the matrix whose traces against I, xi1, xi2, xi1 xi2 are
    t3, t13, t23, t123.  Those four equations are linear: s = t3 - p,
    q = t13 - t1 p + r, and (p, r) solves a 2x2 system with determinant
    -(kappa(t1, t2, t12) - 2), nonzero exactly on irreducible pairs.  One
    step of iterative refinement solves the same system for the
    residuals and adds the correction.  det xi3 = 1 then holds by the
    Sum/Product relation, so no quadratic is solved and no root chosen.
    In the reducible case the triple is assembled from explicit
    upper-triangular matrices and the branch choice may be unrealizable
    (the two sheets collide).  A non-finite kappa(t1, t2, t12), a zero or
    non-finite determinant, a triple with a non-finite entry or a modulus
    beyond the float range (the traces overflow the arithmetic) raises
    ``GeometryError``, and so does a realized trace that misses its t by
    more than 1e-6 (1 + |t|), NaN too.
    """
    if branch not in ("+", "-"):
        raise ValueError(f"branch must be '+' or '-', got {branch!r}")
    traces = [complex(t) for t in take(GeometryError, "construct_triple", "t1 t2 t3 t12 t23 t13",
                                       (t1, t2, t3, t12, t23, t13), complex)]
    if not cmath.isfinite(kappa_value(traces[0], traces[1], traces[3])):
        raise GeometryError("degenerate branch value")
    try:
        triple = _construct_triple(*traces, branch)
        if not all(cmath.isfinite(v) for m in triple for v in m):
            raise GeometryError("degenerate branch value")
        m1, m2, m3 = triple
        realized = (m1, m2, m3, _mul(m1, m2), _mul(m2, m3), _mul(m1, m3))
        for name, m, t in zip(("t1", "t2", "t3", "t12", "t23", "t13"), realized, traces):
            if not abs(m[0] + m[3] - t) <= 1e-6 * (1 + abs(t)):
                raise GeometryError(f"the constructed triple misses the prescribed {name}")
    except OverflowError:  # abs() of a finite complex whose modulus leaves the float range
        raise GeometryError("degenerate branch value") from None
    from . import mat2  # the results are arrays

    return tuple(mat2.mat2(*m) for m in triple)


def _trace_form_solver(t1, t2, f):
    """For xi1 = [[t1, -1], [1, 0]] and xi2 = [[0, 1/f], [-f, t2]]: the
    determinant -(kappa - 2) of the 2x2 system, and the map from traces
    (e3, e13, e23, e123) against I, xi1, xi2, xi1 xi2 to the entries
    (p, q, r, s) of the matrix with those traces.  Field arithmetic only,
    so symbols go through as well as numbers."""
    g = 1 / f
    # xi1 xi2 = [[f, h], [0, g]]; the (p, r) system is [[a, h], [c, -a]]
    h, a, c = t1 * g - t2, f - g, f * t1 - t2
    det = -a * a - h * c

    def solve(e3, e13, e23, e123):
        e1, e2 = e123 - e3 * g, e23 + f * e13 - t2 * e3
        p, r = (-a * e1 - h * e2) / det, (a * e2 - c * e1) / det
        return p, e13 - t1 * p + r, r, e3 - p

    return det, solve


def _construct_triple(t1, t2, t3, t12, t23, t13, branch):
    """The triple as three 4-tuples of complex entries, rows first."""
    if is_irreducible(CharacterF2(t1, t2, t12)):
        try:
            t123 = triple_trace_roots(t1, t2, t3, t12, t13, t23)[0 if branch == "+" else 1]
        except GeometryError:  # a trace not finite, or f_Sigma or the discriminant
            raise GeometryError("degenerate branch value") from None
        xi1, xi2 = _normal_form(t1, t2, t12)
        det, solve = _trace_form_solver(t1, t2, -xi2[2])  # xi2 = [[0, 1/f], [-f, t2]]
        if det == 0 or not cmath.isfinite(det):
            raise GeometryError("degenerate branch value")
        traces = (t3, t13, t23, t123)
        xi3 = solve(*traces)
        # one step of iterative refinement: the same solve for the residuals
        basis = ((1, 0, 0, 1), xi1, xi2, _mul(xi1, xi2))
        fix = solve(*(t - _trace_of_product(b, xi3) for b, t in zip(basis, traces)))
        return xi1, xi2, tuple(x + d for x, d in zip(xi3, fix))

    # reducible base pair: explicit upper-triangular forms
    a1, a2 = _principal_root(t1), _principal_root(t2)
    both_plus = abs(a1 * a2 + 1 / (a1 * a2) - t12) <= abs(a1 / a2 + a2 / a1 - t12)
    if both_plus:
        xi1 = (a1, t13 - a1 * t3, 0, 1 / a1)
    else:
        xi1 = (1 / a1, t13 - t3 / a1, 0, a1)
    return xi1, (a2, t23 - a2 * t3, 0, 1 / a2), (t3, -1, 1, 0)


def hermitian_invariant_form(x: float, y: float, z: float):
    """The Hermitian matrix preserved by the normal-form pair of a real
    character with |z| <= 2; its determinant equals 2 - kappa(x,y,z),
    so the form is definite exactly on the SU(2) characters.
    """
    from . import mat2  # the result is an array

    x, y, z = take(GeometryError, "hermitian_invariant_form", "x y z", (x, y, z))
    if abs(z) > 2:
        raise GeometryError(f"requires |z| <= 2, got z = {z}")
    sin_t = math.sqrt(max(0.0, 1 - (z / 2) ** 2))
    off = -x * sin_t + 1j * (y - x * z / 2)
    return mat2.mat2(2 * sin_t, off, off.conjugate(), 2 * sin_t)
