"""Hyperbolic plane and 3-space geometry in matrix representatives.

Points of the upper half-plane, oriented geodesics as de Sitter
vectors, half-plane separation tests, common perpendiculars, the
Coxeter extension by three involutions, the 3-dimensional orthogonal
picture (symmetric square, bilinear forms, reflections), and the
right-hexagon certificate behind the three-holed-sphere Fricke test.

The certificate reads the three inner products of its axes off the
traces in closed form and builds no matrix; the normal form of a pair
gives a real pair with the same traces, from which the same numbers
follow through ``tracepoly._hat`` and ``minkowski_inner``.  A 2x2
product here is ``tracepoly._mul``, numpy's ``@`` a 3x3 one.  Only the
functions whose results are arrays, and ``SYM2_FORM`` (PEP 562), load
numpy or ``mat2``; the others compute on 4-tuples of rows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from ._intake import take
from .tracepoly import (GeometryError, _adjugate, _conjugating_involution, _entries, _modulus,
                        _mul, _sign_normalize, _trace_of_product)

__all__ = [
    "PointH2",
    "DeSitterVec",
    "BilinearForm3",
    "HalfPlaneRelation",
    "IsometryType",
    "FormSignature",
    "HexagonCertificate",
    "point_to_involution",
    "involution_fixing",
    "minkowski_inner",
    "half_plane_relation",
    "common_perpendicular",
    "coxeter_extension",
    "classify_isometry",
    "bilinear_form_from_character",
    "reflections_from_form",
    "form_signature",
    "hexagon_certificate",
    "SYM2_FORM",
]


def __getattr__(name):
    """``SYM2_FORM`` on first use: the form every sym2 image preserves, basis (e.e, e.f, f.f)."""
    if name != "SYM2_FORM":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import numpy as np

    return globals().setdefault(name, np.array([[0, 0, 1], [0, -0.5, 0], [1, 0, 0]], dtype=complex))


@dataclass(frozen=True)
class PointH2:
    """Upper half-plane point x + u j with u > 0."""

    x: float
    u: float

    def __post_init__(self):
        if not self.u > 0:
            raise GeometryError(f"point must have u > 0, got u = {self.u}")


class DeSitterVec:
    """A real traceless 2x2 matrix of determinant -1: an oriented
    geodesic of the hyperbolic plane.  Realness, trace and determinant
    are each checked to within 1e-10."""

    __slots__ = ("m",)

    def __init__(self, m):
        import numpy as np  # the vector is an array

        tol = 1e-10
        m = np.asarray(m)
        if m.dtype == complex:
            if not np.abs(m.imag).max() <= tol:
                raise GeometryError("de Sitter vector must be real")
            m = m.real
        m = m.astype(float)
        if abs(m[0, 0] + m[1, 1]) > tol:
            raise GeometryError("de Sitter vector must be traceless")
        if abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] + 1) > tol:
            raise GeometryError("de Sitter vector must have determinant -1")
        self.m = m

    def __neg__(self) -> "DeSitterVec":
        return DeSitterVec(-self.m)

    def __repr__(self) -> str:
        return f"DeSitterVec({self.m.tolist()})"


def point_to_involution(p: PointH2):
    """The real trace-0, det-1 matrix (1/u)[[x, -(x^2+u^2)], [1, -x]]
    whose projective action is the half-turn about p."""
    from . import mat2  # the result is an array

    x, u = p.x, p.u
    return mat2.mat2(x / u, -(x * x + u * u) / u, 1 / u, -x / u)


def involution_fixing(z1: complex, z2: complex | None = None):
    """The unimodular involution fixing z1 and z2 on the ideal boundary.

    z2 = None means infinity.  Result is sign-normalized; it squares
    to -I.
    """
    from . import mat2  # the result is an array

    z1 = complex(z1)
    if z2 is None or (isinstance(z2, (int, float, complex)) and abs(complex(z2)) == float("inf")):
        k, n = 1j, (-1, 2 * z1, 0, 1)
    else:
        z2 = complex(z2)
        if z1 == z2:
            raise GeometryError("fixed points must be distinct")
        k, n = 1j / (z1 - z2), (z1 + z2, -2 * z1 * z2, 2, -(z1 + z2))
    return mat2.mat2(*_sign_normalize(tuple(k * complex(v) for v in n)))


def minkowski_inner(a, b) -> float:
    """<A, B> = (1/2) tr(AB) on traceless real matrices or 4-tuples; <A, A> = -det A."""
    a, b = (_entries(v.m if isinstance(v, DeSitterVec) else v) for v in (a, b))
    return float(_trace_of_product(a, b).real) / 2


class HalfPlaneRelation(enum.Enum):
    CROSSING_OR_ASYMPTOTIC = "crossing-or-asymptotic"
    NESTED = "nested"
    DISJOINT_OR_COMPLEMENT_DISJOINT = "disjoint-or-complement-disjoint"


def half_plane_relation(v1, v2) -> HalfPlaneRelation:
    """Mutual position of two half-planes from the inner product of
    their de Sitter vectors: |.| <= 1 crossing or asymptotic, > 1 one
    nested in the other, < -1 disjoint (or complements disjoint)."""
    s = minkowski_inner(v1, v2)
    if s > 1:
        return HalfPlaneRelation.NESTED
    if s < -1:
        return HalfPlaneRelation.DISJOINT_OR_COMPLEMENT_DISJOINT
    return HalfPlaneRelation.CROSSING_OR_ASYMPTOTIC


def common_perpendicular(xi, eta):
    """Unit-normalized Lie product: the involution in the common
    orthogonal geodesic of the invariant axes.  Conjugation by it
    inverts both arguments; requires an irreducible pair."""
    from . import mat2  # the result is an array

    return mat2.conjugating_involution(xi, eta)


def coxeter_extension(xi, eta):
    """The three involutions factoring an irreducible pair.

    With zeta = (xi eta)^-1, returns (i_xy, i_yz, i_zx) built from the
    Lie products of (xi, eta), (eta, zeta), (zeta, xi).  Projectively
    i_zx i_xy = xi, i_xy i_yz = eta, i_yz i_zx = zeta; as matrices the
    products recover them up to sign.  4-tuples give 4-tuples; arrays give
    arrays, each of objects if an array of its pair is (zeta is complex).
    """
    a, b = _entries(xi), _entries(eta)
    zeta = tuple(map(complex, _adjugate(_mul(a, b))))
    i_xy, i_yz, i_zx = (_conjugating_involution(*p) for p in ((a, b), (b, zeta), (zeta, a)))
    if not hasattr(xi, "ravel"):
        return i_xy, i_yz, i_zx
    from .mat2 import _array

    return _array(i_xy, xi, eta), _array(i_yz, eta), _array(i_zx, xi)


class IsometryType(enum.Enum):
    CENTRAL = "central"
    PARABOLIC = "parabolic"
    INVOLUTION = "involution"
    SEMISIMPLE_ELLIPTIC = "semisimple-elliptic"
    SEMISIMPLE_LOXODROMIC_OR_HYPERBOLIC = "semisimple-loxodromic-or-hyperbolic"


def classify_isometry(xi) -> IsometryType:
    """Isometry type of a unimodular matrix or 4-tuple acting on hyperbolic
    3-space: central within 1e-10 entrywise, then by its trace within 1e-9, both absolute."""
    tol = 1e-9
    n = _entries(xi)
    if any(all(_modulus(v - w) <= 1e-10 for v, w in zip(n, (s, 0, 0, s))) for s in (1, -1)):
        return IsometryType.CENTRAL
    t = n[0] + n[3]
    if _modulus(t - 2) <= tol or _modulus(t + 2) <= tol:
        return IsometryType.PARABOLIC
    if _modulus(t) <= tol:
        return IsometryType.INVOLUTION
    if abs(t.imag) <= tol and -2 < t.real < 2:
        return IsometryType.SEMISIMPLE_ELLIPTIC
    return IsometryType.SEMISIMPLE_LOXODROMIC_OR_HYPERBOLIC


@dataclass(frozen=True)
class BilinearForm3:
    """Symmetric 3x3 matrix with unit diagonal, each within 1e-12
    absolute, and finite entries; it keeps a read-only copy."""

    b: object  # a 3x3 numpy array

    def __post_init__(self):
        import numpy as np

        b = np.array(self.b)
        if b.shape != (3, 3) or not np.allclose(b, b.T, rtol=0, atol=1e-12):
            raise GeometryError("form matrix must be symmetric 3x3")
        if not np.allclose(np.diag(b).real, 1, rtol=0, atol=1e-12) or np.any(
                np.abs(np.diag(b).imag) > 1e-12):
            raise GeometryError("form matrix must have unit diagonal")
        if not np.isfinite(b).all():
            raise GeometryError("form matrix with a non-finite entry is not a finite form")
        b.setflags(write=False)
        object.__setattr__(self, "b", b)


def bilinear_form_from_character(x, y, z) -> BilinearForm3:
    """B = [[1, z/2, y/2], [z/2, 1, x/2], [y/2, x/2, 1]] with
    4 det B = 2 - kappa(x, y, z)."""
    import numpy as np  # the form is an array

    x, y, z = take(GeometryError, "bilinear_form_from_character", "x y z", (x, y, z), complex)
    b = np.array([[1, z / 2, y / 2], [z / 2, 1, x / 2], [y / 2, x / 2, 1]], dtype=complex)
    if np.abs(b.imag).max() <= 1e-8:
        b = b.real.astype(float)
    return BilinearForm3(b)


def reflections_from_form(form: BilinearForm3):
    """The orthogonal reflections R_i = I - 2 e_i e_i^T B.

    Each R_i has R_i^2 = I and preserves the form; tr(R_1 R_2)
    = 4 B_12^2 - 1.
    """
    import numpy as np  # the reflections are arrays

    b = form.b
    out = []
    for i in range(3):
        e = np.zeros((3, 1), dtype=b.dtype)
        e[i, 0] = 1
        out.append(np.eye(3, dtype=b.dtype) - 2 * e @ (e.T @ b))
    return tuple(out)


class FormSignature(enum.Enum):
    POSITIVE_DEFINITE = "positive-definite"
    SIGNATURE_2_1 = "signature-2-1"
    SIGNATURE_1_2 = "signature-1-2"
    DEGENERATE_RANK2 = "degenerate-rank2"
    DEGENERATE_RANK1 = "degenerate-rank1"


def form_signature(form: BilinearForm3) -> FormSignature:
    """Signature of a real unit-diagonal symmetric form, decided exactly.

    Its eigenvalues are real, so Descartes' rule of signs on its
    characteristic polynomial t^3 - e1 t^2 + e2 t - e3, in ``Fraction``s of
    the entries on and below the diagonal, counts the positive ones (sign
    changes of 1, -e1, e2, -e3) and the negative ones (of 1, e1, e2, e3).
    Negative-definite cannot occur (the trace is 3), so the outcomes
    are (3,0), (2,1), (1,2) and the two degenerate ranks.  Imaginary
    parts up to 1e-10 count as real (a NaN one does not); ``BilinearForm3``
    has refused a non-finite entry.
    """
    rows = form.b.tolist()
    if not all(abs(v.imag) <= 1e-10 for row in rows for v in row):
        raise GeometryError("signature requires a real form")
    (p, _, _), (d, q, _), (e, f, r) = ([Fraction(v.real) for v in row] for row in rows)
    e1 = p + q + r
    e2 = p * q + p * r + q * r - d * d - e * e - f * f
    e3 = p * q * r + 2 * d * e * f - p * f * f - q * e * e - r * d * d
    signs = [[c > 0 for c in cs if c] for cs in ((1, -e1, e2, -e3), (1, e1, e2, e3))]
    pos, neg = (sum(s != t for s, t in zip(v, v[1:])) for v in signs)
    zero = 3 - pos - neg
    if zero == 0:
        return {
            (3, 0): FormSignature.POSITIVE_DEFINITE,
            (2, 1): FormSignature.SIGNATURE_2_1,
            (1, 2): FormSignature.SIGNATURE_1_2,
        }[(pos, neg)]
    if zero == 1:
        return FormSignature.DEGENERATE_RANK2
    return FormSignature.DEGENERATE_RANK1


@dataclass(frozen=True)
class HexagonPair:
    names: str
    inner: float
    status: str  # "disjoint" or "ideal"


@dataclass(frozen=True)
class HexagonCertificate:
    pairs: tuple[HexagonPair, ...]
    verdict: str
    sign_choice: str

    def to_json(self) -> dict:
        return {
            "pairs": [
                {"names": p.names, "inner": p.inner, "status": p.status}
                for p in self.pairs
            ],
            "verdict": self.verdict,
            "sign_choice": self.sign_choice,
        }


def _axis_inner(p: float, q: float, r: float) -> float:
    """<hat P, hat Q> = (2r - pq)/sqrt((p^2 - 4)(q^2 - 4)) for traces
    p, q < -2 and r = tr(PQ), divided through by pq > 0 so that no
    square overflows: p + 2 is exact near -2, and 2 r/(pq) and -1 have
    one sign, so nothing cancels.  Counting one rounding per operation
    (three in the numerator, eleven in the radicand, which the square
    root halves, and two more), the relative error is below 11 * 2^-53,
    unless the value lies past the float range and reads -inf, which
    ``hexagon_certificate`` refuses."""
    radicand = (p - 2) / p * ((p + 2) / p) * ((q - 2) / q) * ((q + 2) / q)
    return (2 * (r / p / q) - 1) / math.sqrt(radicand)


def hexagon_certificate(x: float, y: float, z: float) -> HexagonCertificate:
    """Certify that traces x, y, z <= -2 bound a right hexagon.

    The sides lie on the axes of X, Y and Z = (XY)^-1, for any real pair
    X, Y with this character (``mat2.normal_form_pair``); tr(YZ) = x and
    tr(ZX) = y.  Each pair of axes gets the Minkowski inner product of
    its axis reflections in closed form (``_axis_inner``): XY, YZ, ZX in
    that order.  A trace within 1e-9 of -2 is a cusp: its two pairs are
    reported as "ideal" with the conventional boundary value -1.  The
    domain test accepts finite traces with t + 2 <= 1e-9 and raises
    ``GeometryError`` otherwise, NaN, infinities and exact traces past
    the float range included.  It reads the same difference t + 2 as the
    cusp test (exact near -2), so every accepted trace that is not a cusp
    lies below -2 - 1e-9.  An inner product past the float range, which
    JSON cannot carry, raises ``GeometryError`` too.

    Every accepted point is a right hexagon, so the verdict is read off
    the cusps.  (yz - 2x)^2 - (y^2 - 4)(z^2 - 4) = 4 (kappa - 2) with
    kappa = x^2 + y^2 + z^2 - xyz - 2, which increases with each of -x,
    -y, -z while all three are positive, so kappa >= 18 - 2.4e-8 on the
    domain, its value with every trace at -2 + 1e-9.  The numerator
    2x - yz is negative there, so every non-ideal pair has inner product
    < -1: its axes are ultraparallel.  Its float value can still read
    -1.0, or round to within a few units in the last place of it, when
    one pair's traces are huge beside the third; and it lies past the
    float range, so that the point is refused, with two traces within
    2e-9 of -2 beside a third near -1e300.

    ``sign_choice`` is the global sign of the three axis reflections
    that puts the hexagon inside all three half-planes (the inner
    products do not depend on it); "undetermined" when a trace is
    cusped.  With no cusp it is constant: the points with every trace
    below -2 - 1e-9 form a connected set; on it ``mat2.normal_form_pair``
    takes f = 2/(z - sqrt(z^2 - 4)), so X = [[x, -1], [1, 0]], Y = [[0,
    1/f], [-f, y]], Z and their reflections stay real and continuous;
    the axes are pairwise ultraparallel, so the foot of each common
    perpendicular lies off the other axis and never changes side.  At
    (-3, -3, -3) it is "negated", so it is "negated" everywhere.
    """
    tol = 1e-9
    x, y, z = traces = take(GeometryError, "hexagon domain", "x y z", (x, y, z))
    for name, t in zip("xyz", traces):
        if not math.isfinite(t):
            raise GeometryError(f"hexagon domain needs finite traces, got {name} = {t}")
        if t + 2 > tol:
            raise GeometryError(f"hexagon domain needs {name} <= -2, got {t}")
    cusped = {"X": abs(x + 2) <= tol, "Y": abs(y + 2) <= tol, "Z": abs(z + 2) <= tol}
    pairs = tuple(
        HexagonPair(names, -1.0, "ideal") if cusped[names[0]] or cusped[names[1]]
        else HexagonPair(names, _axis_inner(p, q, r), "disjoint")
        for names, (p, q, r) in (("XY", (x, y, z)), ("YZ", (y, z, x)), ("ZX", (z, x, y)))
    )
    for pair in pairs:
        if not math.isfinite(pair.inner):
            raise GeometryError(f"the {pair.names} inner product lies past the float range")
    if any(cusped.values()):
        return HexagonCertificate(pairs, "right-hexagon-with-cusps", "undetermined")
    return HexagonCertificate(pairs, "right-hexagon", "negated")
