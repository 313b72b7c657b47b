"""Hyperbolic plane and 3-space geometry in matrix representatives.

Points of the upper half-plane, oriented geodesics as de Sitter
vectors, half-plane separation tests, common perpendiculars, the
Coxeter extension by three involutions, the 3-dimensional orthogonal
picture (symmetric square, bilinear forms, reflections), and the
right-hexagon certificate behind the three-holed-sphere Fricke test.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import mat2
from .mat2 import (
    GeometryError,
    NotHyperbolicError,
    ReduciblePairError,
    conjugating_involution,
    hat,
    lie_product,
)
from .tracepoly import kappa_value

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
    "real_normal_form_pair",
    "SYM2_FORM",
]

#: Matrix of the inner product preserved by every sym2 image, in the
#: monomial basis (e.e, e.f, f.f).
SYM2_FORM = np.array([[0, 0, 1], [0, -0.5, 0], [1, 0, 0]], dtype=complex)


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

    def __init__(self, m: np.ndarray):
        tol = 1e-10
        m = np.asarray(m)
        if m.dtype == complex:
            if not mat2._is_real(m, tol):
                raise GeometryError("de Sitter vector must be real")
            m = m.real
        m = m.astype(float)
        if abs(m[0, 0] + m[1, 1]) > tol:
            raise GeometryError("de Sitter vector must be traceless")
        if abs(mat2.det(m) + 1) > tol:
            raise GeometryError("de Sitter vector must have determinant -1")
        self.m = m

    def __neg__(self) -> "DeSitterVec":
        return DeSitterVec(-self.m)

    def __repr__(self) -> str:
        return f"DeSitterVec({self.m.tolist()})"


def _as_matrix(v) -> np.ndarray:
    return v.m if isinstance(v, DeSitterVec) else np.asarray(v)


def point_to_involution(p: PointH2) -> np.ndarray:
    """The real trace-0, det-1 matrix (1/u)[[x, -(x^2+u^2)], [1, -x]]
    whose projective action is the half-turn about p."""
    x, u = p.x, p.u
    return np.array([[x / u, -(x * x + u * u) / u], [1 / u, -x / u]], dtype=complex)


def involution_fixing(z1: complex, z2: complex | None = None) -> np.ndarray:
    """The unimodular involution fixing z1 and z2 on the ideal boundary.

    z2 = None means infinity.  Result is sign-normalized; it squares
    to -I.
    """
    z1 = complex(z1)
    if z2 is None or (isinstance(z2, (int, float, complex)) and abs(complex(z2)) == float("inf")):
        m = 1j * np.array([[-1, 2 * z1], [0, 1]], dtype=complex)
        return mat2.sign_normalize(m)
    z2 = complex(z2)
    if z1 == z2:
        raise GeometryError("fixed points must be distinct")
    m = (1j / (z1 - z2)) * np.array(
        [[z1 + z2, -2 * z1 * z2], [2, -(z1 + z2)]], dtype=complex
    )
    return mat2.sign_normalize(m)


def minkowski_inner(a, b) -> float:
    """<A, B> = (1/2) tr(AB) on traceless real matrices; <A, A> = -det A."""
    ab = _as_matrix(a) @ _as_matrix(b)
    return float((ab[0, 0] + ab[1, 1]).real) / 2


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


def common_perpendicular(xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Unit-normalized Lie product: the involution in the common
    orthogonal geodesic of the invariant axes.  Conjugation by it
    inverts both arguments; requires an irreducible pair."""
    return conjugating_involution(xi, eta)


def coxeter_extension(xi: np.ndarray, eta: np.ndarray):
    """The three involutions factoring an irreducible pair.

    With zeta = (xi eta)^-1, returns (i_xy, i_yz, i_zx) built from the
    Lie products of (xi, eta), (eta, zeta), (zeta, xi).  Projectively
    i_zx i_xy = xi, i_xy i_yz = eta, i_yz i_zx = zeta; as matrices the
    products recover them up to sign.
    """
    zeta = mat2.adjoint(xi @ eta)
    i_xy = conjugating_involution(xi, eta)
    i_yz = conjugating_involution(eta, zeta)
    i_zx = conjugating_involution(zeta, xi)
    return i_xy, i_yz, i_zx


class IsometryType(enum.Enum):
    CENTRAL = "central"
    PARABOLIC = "parabolic"
    INVOLUTION = "involution"
    SEMISIMPLE_ELLIPTIC = "semisimple-elliptic"
    SEMISIMPLE_LOXODROMIC_OR_HYPERBOLIC = "semisimple-loxodromic-or-hyperbolic"


def classify_isometry(xi: np.ndarray) -> IsometryType:
    """Isometry type of a unimodular matrix acting on hyperbolic 3-space:
    central within 1e-10 entrywise, then by its trace within 1e-9."""
    tol = 1e-9
    if np.allclose(xi, mat2.I2, atol=1e-10) or np.allclose(xi, -mat2.I2, atol=1e-10):
        return IsometryType.CENTRAL
    t = mat2.trace(xi)
    if abs(t - 2) <= tol or abs(t + 2) <= tol:
        return IsometryType.PARABOLIC
    if abs(t) <= tol:
        return IsometryType.INVOLUTION
    if abs(t.imag) <= tol and -2 < t.real < 2:
        return IsometryType.SEMISIMPLE_ELLIPTIC
    return IsometryType.SEMISIMPLE_LOXODROMIC_OR_HYPERBOLIC


@dataclass(frozen=True)
class BilinearForm3:
    """Symmetric 3x3 matrix with unit diagonal."""

    b: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b)
        if b.shape != (3, 3) or not np.allclose(b, b.T, atol=1e-12):
            raise GeometryError("form matrix must be symmetric 3x3")
        if not np.allclose(np.diag(b).real, 1, atol=1e-12) or np.any(
            np.abs(np.diag(b).imag) > 1e-12 if b.dtype == complex else [False]
        ):
            raise GeometryError("form matrix must have unit diagonal")
        object.__setattr__(self, "b", b)


def bilinear_form_from_character(x, y, z) -> BilinearForm3:
    """B = [[1, z/2, y/2], [z/2, 1, x/2], [y/2, x/2, 1]] with
    4 det B = 2 - kappa(x, y, z)."""
    b = np.array(
        [[1, z / 2, y / 2], [z / 2, 1, x / 2], [y / 2, x / 2, 1]], dtype=complex
    )
    if mat2._is_real(b, 1e-8):
        b = b.real.astype(float)
    return BilinearForm3(b)


def reflections_from_form(form: BilinearForm3):
    """The orthogonal reflections R_i = I - 2 e_i e_i^T B.

    Each R_i has R_i^2 = I and preserves the form; tr(R_1 R_2)
    = 4 B_12^2 - 1.
    """
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
    """Signature of a real unit-diagonal symmetric form by eigenvalue signs.

    Negative-definite cannot occur (the trace is 3), so the outcomes
    are (3,0), (2,1), (1,2) and the two degenerate ranks.  Imaginary
    parts up to 1e-10 count as real, and eigenvalues within 1e-10 of 0
    as zero.
    """
    tol = 1e-10
    b = np.asarray(form.b)
    if b.dtype == complex:
        if not mat2._is_real(b, tol):
            raise GeometryError("signature requires a real form")
        b = b.real
    eigs = np.linalg.eigvalsh(b)
    pos = int(np.sum(eigs > tol))
    neg = int(np.sum(eigs < -tol))
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


def real_normal_form_pair(x: float, y: float, z: float) -> tuple[np.ndarray, np.ndarray]:
    """A real unimodular pair with character (x, y, z).

    X is the companion matrix [[x, -1], [1, 0]]; Y is solved linearly
    with the lower-left entry fixed to 1, falling back to -1 when the
    first choice is not real.  Covers in particular every character
    with all |traces| > 2 and kappa <= -2, and the hexagon domain
    x, y, z <= -2.
    """
    x, y, z = float(x), float(y), float(z)
    X = np.array([[x, -1], [1, 0]], dtype=complex)
    # gamma = 1: alpha^2 - (x+y) alpha + (z+2) = 0
    disc = (x + y) ** 2 - 4 * (z + 2)
    if disc >= 0:
        alpha = ((x + y) + np.sqrt(disc)) / 2
        beta = z + 1 - x * alpha
        Y = np.array([[alpha, beta], [1, y - alpha]], dtype=complex)
        return X, Y
    # gamma = -1: alpha^2 - (y-x) alpha + (2-z) = 0
    disc = (y - x) ** 2 - 4 * (2 - z)
    if disc < 0:
        raise GeometryError(
            f"no real normal form with the fixed off-diagonal entries for {(x, y, z)}"
        )
    alpha = ((y - x) + np.sqrt(disc)) / 2
    beta = z - 1 - x * alpha
    Y = np.array([[alpha, beta], [-1, y - alpha]], dtype=complex)
    return X, Y


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


def hexagon_certificate(x: float, y: float, z: float) -> HexagonCertificate:
    """Certify that traces x, y, z <= -2 bound a right hexagon.

    Builds a real pair X, Y with the character (and Z = (XY)^-1),
    computes the three pairwise Minkowski inner products of the axis
    reflections, and checks they are all < -1.  A trace equal to -2 is
    a cusp: the pair is reported as "ideal" with the conventional
    boundary value -1 instead of dividing by zero.

    The certificate also records which global sign of the three hat
    vectors puts the hexagon inside all three half-planes (the inner
    products themselves do not depend on it).  The domain, cusp and
    boundary tests allow 1e-9.
    """
    tol = 1e-9
    x, y, z = float(x), float(y), float(z)
    for name, t in (("x", x), ("y", y), ("z", z)):
        if t > -2 + tol:
            raise GeometryError(f"hexagon domain needs {name} <= -2, got {t}")
    X, Y = real_normal_form_pair(x, y, z)
    Z = mat2.adjoint(X @ Y)
    elements = {"X": X, "Y": Y, "Z": Z}
    cusped = {"X": abs(x + 2) <= tol, "Y": abs(y + 2) <= tol, "Z": abs(z + 2) <= tol}
    hats = {n: hat(m) for n, m in elements.items() if not cusped[n]}
    pairs = []
    for n1, n2 in (("X", "Y"), ("Y", "Z"), ("Z", "X")):
        if cusped[n1] or cusped[n2]:
            pairs.append(HexagonPair(n1 + n2, -1.0, "ideal"))
        else:
            inner = minkowski_inner(hats[n1], hats[n2])
            pairs.append(HexagonPair(n1 + n2, float(inner), "disjoint"))

    # which global sign of the three hats makes the half-planes cover
    # the plane pairwise (complements disjoint, hexagon inside): for
    # each pair, the foot of the common perpendicular on the second
    # axis must lie inside the first half-plane
    sign_choice = "undetermined"
    if not any(cusped.values()):
        votes = []
        for n1, n2 in (("X", "Y"), ("Y", "Z"), ("Z", "X")):
            v1, v2 = hats[n1].real, hats[n2].real
            w = v1 @ v2 - v2 @ v1  # common perpendicular geodesic
            foot = v2 @ w - w @ v2  # its crossing point with the second axis
            n2_ = minkowski_inner(foot, foot)
            if n2_ >= -tol:
                votes = []
                break
            foot = foot / np.sqrt(-n2_)
            if foot[1, 0] < 0:
                foot = -foot
            votes.append(minkowski_inner(foot, v1) > 0)
        if votes and all(votes):
            sign_choice = "identity"
        elif votes and not any(votes):
            sign_choice = "negated"

    ok = all(
        p.inner < -1 or (p.status == "ideal" and p.inner <= -1 + tol)
        for p in pairs
    )
    verdict = "right-hexagon" if ok else "fail"
    if ok and any(p.status == "ideal" for p in pairs):
        verdict = "right-hexagon-with-cusps"
    return HexagonCertificate(tuple(pairs), verdict, sign_choice)
