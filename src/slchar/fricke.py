"""Membership tests for the Fricke spaces of the six simplest
hyperbolic surfaces, the sign action on trace coordinates, and the
Fenchel-Nielsen to trace-coordinate conversion for the one-holed torus.

Conventions.  Three-holed sphere and one-holed torus predicates
include their boundary (closed inequalities, cusps flagged); the
four-holed sphere test takes boundary traces >= 2 with strict
x < -2.  On-variety residuals use an absolute 1e-8 tolerance on float
inputs; exact rational inputs are checked exactly.

Sum/Product.  The S04 quartic is ``polyring.PHI`` at (x1, x2, x3, x12, x13,
x23, x123) = (a, b, c, x, z, y, d); the S12 relations are a + b = f_Sigma and
ab = f_Pi of ``sum_product`` at (u, x, y, v, w, z); k_pq(x) = kappa(p, q, x) - 2.

Integer numerators.  For exact input (ints and ``Fraction``s) ``member_s04``
and ``member_s12`` evaluate each polynomial of their tests, built once from
the same generic formulas, as an int numerator over a positive denominator,
compare ints, and report num/den, correctly rounded like ``float(Fraction)``.

The four-holed sphere component test works with the factorization

    F~(+|-) = S+/sqrt(-2-x) +- S-/sqrt(2-x),
    S- = (y-z)(2-x) + (a-b)(c-d),   S+ = (y+z)(2+x) - (a+b)(c+d),

derived from the exact identity

    4(4-x^2) PHI = (2+x) S-^2 + (2-x) S+^2 - 4 k_ab(x) k_cd(x)

(verified symbolically by ``defining_identity_residual``), so that
on-variety F~+ F~- = 4 k_ab k_cd / (x^2-4) > 0.  The component signs
are anchored by the relative-Euler-class-zero family a=b=c=d=2, y=2,
z=4-x, which must be rejected: membership requires F~+ > 0 and
F~- > 0.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from numbers import Rational

import numpy as np

from . import mat2
from .polyring import S04_VARS, S12_VARS, Polynomial, sum_product
from .tracepoly import kappa_value

__all__ = [
    "CharacterS04",
    "CharacterS12",
    "FNCoords",
    "S03Verdict",
    "S11Verdict",
    "S04Verdict",
    "S12Verdict",
    "member_s03",
    "member_s11",
    "member_s04",
    "member_s12",
    "member_c02",
    "member_c11",
    "h1z2_action",
    "fn_to_traces",
    "pants_curve_count",
    "s04_quartic",
    "s04_defining_poly",
    "s12_relation_polys",
    "defining_identity_residual",
    "ONVARIETY_TOL",
]

ONVARIETY_TOL = 1e-8


def _is_exact(*values) -> bool:
    return all(isinstance(v, Rational) for v in values)


def _exact_ratios(polys, point):
    """Numerators, denominators and each polynomial's (num, den) at an exact point."""
    nums, dens = [int(t.numerator) for t in point], [int(t.denominator) for t in point]
    return nums, dens, [p._evaluate_ratio(nums, dens) for p in polys]


@dataclass(frozen=True)
class CharacterS04:
    """Four-holed sphere coordinates: boundary traces a, b, c, d and
    the traces x, y, z of the three interior curves AB, BC, AC."""

    a: float
    b: float
    c: float
    d: float
    x: float
    y: float
    z: float

    def as_tuple(self):
        return (self.a, self.b, self.c, self.d, self.x, self.y, self.z)


@dataclass(frozen=True)
class CharacterS12:
    """Two-holed torus coordinates: boundary traces a, b; generator
    traces u, x, y; double-product traces v, w, z."""

    a: float
    b: float
    u: float
    x: float
    y: float
    v: float
    w: float
    z: float


@dataclass(frozen=True)
class FNCoords:
    """Fenchel-Nielsen coordinates on the one-holed torus: length l of
    the pants curve, twist tau, boundary length b (0 = cusp)."""

    l: float
    tau: float
    b: float = 0.0

    def __post_init__(self):
        if not self.l > 0:
            raise ValueError(f"length must be positive, got {self.l}")
        if self.b < 0:
            raise ValueError(f"boundary length must be >= 0, got {self.b}")


class S03Verdict(enum.Enum):
    MEMBER_SLICE = "member-slice"
    MEMBER_OTHER_OCTANT = "member-other-octant"
    NONMEMBER = "nonmember"


_S03_OCTANTS = (
    (-1, -1, -1),
    (-1, +1, +1),
    (+1, +1, -1),
    (+1, -1, +1),
)


@dataclass(frozen=True)
class S03Result:
    verdict: S03Verdict
    cusps: tuple[str, ...]

    def to_json(self):
        return {"verdict": self.verdict.value, "cusps": list(self.cusps)}


def member_s03(x: float, y: float, z: float) -> S03Result:
    """Three-holed sphere: the four closed octants with an even number
    of positive coordinates, each coordinate at distance >= 2 from 0;
    the all-negative octant is the slice.  Coordinates within 1e-12 of
    -2 (or 2) are cusps."""
    coords = (float(x), float(y), float(z))
    for signs in _S03_OCTANTS:
        if all(s * t >= 2 for s, t in zip(signs, coords)):
            cusps = tuple(name for name, t in zip("xyz", coords) if abs(abs(t) - 2) <= 1e-12)
            verdict = (
                S03Verdict.MEMBER_SLICE
                if signs == (-1, -1, -1)
                else S03Verdict.MEMBER_OTHER_OCTANT
            )
            return S03Result(verdict, cusps)
    return S03Result(S03Verdict.NONMEMBER, ())


class S11Verdict(enum.Enum):
    MEMBER_SLICE = "member-slice"
    MEMBER_ORBIT = "member-orbit"
    NONMEMBER = "nonmember"


@dataclass(frozen=True)
class S11Result:
    verdict: S11Verdict
    kappa: float
    cusp: bool

    def to_json(self):
        return {"verdict": self.verdict.value, "kappa": self.kappa, "cusp": self.cusp}


def member_s11(x: float, y: float, z: float) -> S11Result:
    """One-holed torus: x^2 + y^2 + z^2 - xyz <= 0 (kappa <= -2) is the
    full orbit; the slice additionally has x, y, z > 2.  kappa = -2 is
    the cusped boundary."""
    x, y, z = float(x), float(y), float(z)
    k = kappa_value(x, y, z)
    if k > -2:
        return S11Result(S11Verdict.NONMEMBER, k, False)
    cusp = k == -2
    if x > 2 and y > 2 and z > 2:
        return S11Result(S11Verdict.MEMBER_SLICE, k, cusp)
    return S11Result(S11Verdict.MEMBER_ORBIT, k, cusp)


def h1z2_action(x, y, z):
    """The four lifts of a representation differ by signs: the orbit of
    (x, y, z) under the sign group is returned in the fixed order
    (+,+,+), (+,-,-), (-,+,-), (-,-,+)."""
    return (
        (x, y, z),
        (x, -y, -z),
        (-x, y, -z),
        (-x, -y, z),
    )


def member_c02(p: float, q: float, r: float) -> bool:
    """Two-holed cross-surface: r <= -2 and pq + r >= 2."""
    return r <= -2 and p * q + r >= 2


def member_c11(p: float, q: float, r: float) -> bool:
    """One-holed Klein bottle: p^2 + q^2 - pqr >= 0."""
    return p * p + q * q - p * q * r >= 0


# -- four-holed sphere ---------------------------------------------------------


class S04Verdict(enum.Enum):
    MEMBER = "member"
    NONMEMBER_RANGE = "nonmember-range"
    NONMEMBER_OFF_VARIETY = "nonmember-off-variety"
    NONMEMBER_WRONG_COMPONENT = "nonmember-wrong-component"


@dataclass(frozen=True)
class S04Result:
    verdict: S04Verdict
    residual: float
    kappa_ab: float
    kappa_cd: float
    s_minus: float
    s_plus: float
    f_plus: float | None
    f_minus: float | None
    cusps: tuple[str, ...]

    def to_json(self):
        return {
            "verdict": self.verdict.value,
            "residual": self.residual,
            "kappa_ab": self.kappa_ab,
            "kappa_cd": self.kappa_cd,
            "S_minus": self.s_minus,
            "S_plus": self.s_plus,
            "F_plus": self.f_plus,
            "F_minus": self.f_minus,
            "cusps": list(self.cusps),
        }


def s04_quartic(a, b, c, d, x, y, z):
    """The quartic cutting the four-holed-sphere character variety out
    of C^7, in the arithmetic of the arguments (exact if they are
    rational): PHI at (x1, x2, x3, x12, x13, x23, x123) = (a, b, c, x, z, y, d)."""
    fsum, fprod = sum_product(a, b, c, x, z, y)
    return d * d - fsum * d + fprod


def _s04_variables() -> list[Polynomial]:
    return [Polynomial.variable(S04_VARS, n) for n in S04_VARS]


def s04_defining_poly() -> Polynomial:
    """The quartic over (a,b,c,d,x,y,z):  x^2+y^2+z^2+xyz - (ab+cd)x
    - (ad+bc)y - (ac+bd)z + a^2+b^2+c^2+d^2+abcd - 4."""
    return s04_quartic(*_s04_variables())


def _s04_component_terms(a, b, c, d, x, y, z):
    """(k_ab(x), k_cd(x), S-, S+), where k_pq(x) = kappa(p, q, x) - 2."""
    kab = kappa_value(a, b, x) - 2
    kcd = kappa_value(c, d, x) - 2
    s_minus = (y - z) * (2 - x) + (a - b) * (c - d)
    s_plus = (y + z) * (2 + x) - (a + b) * (c + d)
    return kab, kcd, s_minus, s_plus


@functools.cache
def _s04_polys() -> tuple[Polynomial, ...]:
    return (s04_defining_poly(), *_s04_component_terms(*_s04_variables()))


def member_s04(ch: CharacterS04) -> S04Result:
    """Boundary traces >= 2 and x < -2, on the quartic, and F~+ > 0 and
    F~- > 0.  Exact input is decided on integer numerators, the last test as
    its exact equivalent S+ > 0 and (2-x) S+^2 > (-2-x) S-^2; of the floats
    F~+- the one whose two terms share a sign is summed, the other is the
    exact product F~+ F~- = S+^2/(-2-x) - S-^2/(2-x) over it, free of
    cancellation."""
    point = ch.as_tuple()
    if exact := _is_exact(*point):
        nums, dens, ratios = _exact_ratios(_s04_polys(), point)
    else:  # each value is its own numerator over 1
        nums, dens = point, (1,) * 7
        ratios = [(v, 1) for v in (s04_quartic(*point), *_s04_component_terms(*point))]
    (rn, rd), *terms = ratios
    res_f, kab, kcd, s_minus, s_plus = abs(float(rn / rd)), *(float(n / e) for n, e in terms)
    nx, dx = nums[4], dens[4]
    cusps = tuple(v for v, n, e in zip("abcd", nums, dens) if n == 2 * e)
    if not (min(n - 2 * e for n, e in zip(nums[:4], dens)) >= 0 and nx < -2 * dx):
        return S04Result(S04Verdict.NONMEMBER_RANGE, res_f, kab, kcd, s_minus, s_plus,
                         None, None, cusps)
    below, above = -2 * dx - nx, 2 * dx - nx  # dx (-2-x) > 0 and dx (2-x) > 0
    plus, minus = s_plus / math.sqrt(below / dx), s_minus / math.sqrt(above / dx)
    f_plus, f_minus = plus + minus, plus - minus
    if exact:  # S+- = N+-/D+-: (2-x) S+^2 > (-2-x) S-^2 times dx (D+ D-)^2
        (mn, md), (pn, pd) = terms[2:]
        hi, lo = above * (pn * md) ** 2, below * (mn * pd) ** 2
        off, component = rn != 0, pn > 0 and hi > lo
        product = dx * (hi - lo) / (above * below * (pd * md) ** 2)
        if pn * mn >= 0:  # |F~+| >= |F~-|
            f_minus = product / f_plus if f_plus else f_minus
        else:
            f_plus = product / f_minus if f_minus else f_plus
    else:
        off = not res_f <= ONVARIETY_TOL  # a NaN residual is off the variety
        component = f_plus > 0 and f_minus > 0
    if off:
        verdict = S04Verdict.NONMEMBER_OFF_VARIETY
    elif component:
        verdict = S04Verdict.MEMBER
    else:
        verdict = S04Verdict.NONMEMBER_WRONG_COMPONENT
    return S04Result(verdict, res_f, kab, kcd, s_minus, s_plus, f_plus, f_minus, cusps)


def defining_identity_residual() -> Polynomial:
    """LHS - RHS of the exact identity behind the component test; the
    zero polynomial.  Checked symbolically by the test suite."""
    a, b, c, d, x, y, z = point = _s04_variables()
    kab, kcd, s_minus, s_plus = _s04_component_terms(*point)
    lhs = (4 - x * x) * s04_quartic(*point) * 4
    rhs = (2 + x) * s_minus * s_minus + (2 - x) * s_plus * s_plus - kab * kcd * 4
    return lhs - rhs


# -- two-holed torus -----------------------------------------------------------


class S12Verdict(enum.Enum):
    MEMBER = "member"
    NONMEMBER_OFF_VARIETY = "nonmember-off-variety"
    NONMEMBER_INEQUALITIES = "nonmember-inequalities"


@dataclass(frozen=True)
class S12Result:
    verdict: S12Verdict
    residuals: tuple[float, float]
    kappas: tuple[float, float, float]

    def to_json(self):
        return {
            "verdict": self.verdict.value,
            "residuals": list(self.residuals),
            "kappas": list(self.kappas),
        }


def _s12_tests(a, b, u, v, w, x, y, z):
    """LHS - RHS of the two relations (see ``s12_relation_polys``), then the
    kappas of Button's three tests, in the arithmetic of the arguments."""
    fsum, fprod = sum_product(u, x, y, v, w, z)
    return (a + b - fsum, a * b - fprod,
            kappa_value(x, y, z), kappa_value(y, u, w), kappa_value(u, x, v))


@functools.cache
def _s12_polys() -> tuple[Polynomial, ...]:
    return _s12_tests(*(Polynomial.variable(S12_VARS, n) for n in S12_VARS))


def s12_relation_polys() -> tuple[Polynomial, Polynomial]:
    """The two relations as polynomials over (a,b,u,v,w,x,y,z): a + b -
    SUM_RELATION and ab - PRODUCT_RELATION relabelled (x1, x2, x3, x12,
    x13, x23) -> (u, x, y, v, w, z)."""
    return _s12_polys()[:2]


def member_s12(ch: CharacterS12) -> S12Result:
    """On-variety check of both relations, then Button's inequalities
    kappa(x,y,z) < -2, kappa(y,u,w) < -2, kappa(u,x,v) < -2, decided on
    integer numerators for exact input; the reported values are floats."""
    point = (ch.a, ch.b, ch.u, ch.v, ch.w, ch.x, ch.y, ch.z)
    if exact := _is_exact(*point):
        *_, ratios = _exact_ratios(_s12_polys(), point)
    else:  # each value is its own numerator over 1; a NaN residual is off the variety
        ratios = [(v, 1) for v in _s12_tests(*point)]
    (n1, d1), (n2, d2), *ks = ratios
    residuals = (abs(float(n1 / d1)), abs(float(n2 / d2)))
    kappas = tuple(float(n / e) for n, e in ks)
    if not (n1 == n2 == 0 if exact else all(r <= ONVARIETY_TOL for r in residuals)):
        return S12Result(S12Verdict.NONMEMBER_OFF_VARIETY, residuals, kappas)
    if all(n < -2 * e for n, e in ks):
        return S12Result(S12Verdict.MEMBER, residuals, kappas)
    return S12Result(S12Verdict.NONMEMBER_INEQUALITIES, residuals, kappas)


# -- Fenchel-Nielsen -----------------------------------------------------------


@dataclass(frozen=True)
class FNResult:
    x: float
    y: float
    z: float
    kappa: float
    boundary_trace: float
    metadata: dict = field(compare=False)

    def traces(self):
        return (self.x, self.y, self.z)

    def to_json(self):
        return {
            "x": self.x, "y": self.y, "z": self.z,
            "kappa": self.kappa, "boundary_trace": self.boundary_trace,
            "metadata": self.metadata,
        }


def fn_to_traces(coords: FNCoords) -> FNResult:
    """Trace coordinates of the one-holed torus structure with
    Fenchel-Nielsen coordinates (l, tau, b), by explicit matrix
    products.

    rho(X) = diag(e^{l/2}, e^{-l/2}); the orthogonal-axis generator
    rho0(Y) is hyperbolic with axis through +-1 and half-translation
    mu/2 solved from sinh(mu/2) = cosh(b/4)/sinh(l/2) (which makes the
    commutator trace equal -2 cosh(b/2)); the twist multiplies by
    diag(e^{tau/2}, e^{-tau/2}).

    The returned metadata records the closed forms:  the constraint is
    kappa = 2 - 4 sinh^2(l/2) sinh^2(mu/2); the factor 4 and the sign
    under the square root in y = 2 cosh(mu/2) cosh(tau/2) =
    2 sqrt(1 + csch^2(l/2) cosh^2(b/4)) cosh(tau/2) differ from the
    uncorrected closed form, which is reported for comparison and does
    not hold against the matrix oracle.
    """
    l2, tau2, b4 = coords.l / 2, coords.tau / 2, coords.b / 4  # divided once: Fractions are slow
    mu_half = math.asinh(math.cosh(b4) / math.sinh(l2))
    X = np.diag([math.exp(l2), math.exp(-l2)]).astype(complex)
    Y0 = np.array(
        [
            [math.cosh(mu_half), math.sinh(mu_half)],
            [math.sinh(mu_half), math.cosh(mu_half)],
        ],
        dtype=complex,
    )
    Y = Y0 @ np.diag([math.exp(tau2), math.exp(-tau2)]).astype(complex)
    x = float(mat2.trace(X).real)
    y = float(mat2.trace(Y).real)
    z = float(mat2.trace(X @ Y).real)
    k = kappa_value(x, y, z)
    boundary = -2 * math.cosh(coords.b / 2)
    corrected_y = (
        2 * math.sqrt(1 + math.cosh(b4) ** 2 / math.sinh(l2) ** 2)
        * math.cosh(tau2)
    )
    arg = 1 - 4 * math.sinh(b4) ** 2 / math.sinh(l2) ** 2
    uncorrected_y = (
        2 * math.sqrt(arg) * math.cosh(tau2) if arg >= 0 else float("nan")
    )
    result = FNResult(
        x=x, y=y, z=z, kappa=k, boundary_trace=boundary,
        metadata={
            "mu": 2 * mu_half,
            "constraint_residual": abs(k - boundary),
            "closed_form_y": corrected_y,
            "closed_form_y_matches": abs(corrected_y - y) <= 1e-9 * (1 + abs(y)),
            "uncorrected_closed_form_y": uncorrected_y,
            "uncorrected_matches": (
                abs(uncorrected_y - y) <= 1e-9 * (1 + abs(y))
                if uncorrected_y == uncorrected_y
                else False
            ),
        },
    )
    if result.metadata["constraint_residual"] > 1e-9 * (1 + abs(k)):
        raise AssertionError(
            f"boundary-trace constraint violated: {k} vs {boundary}"
        )
    # the image is the closed slice; at a cusp (b = 0) rounding may land
    # an epsilon outside the exact predicate
    in_slice = member_s11(x, y, z).verdict is S11Verdict.MEMBER_SLICE or (
        k <= -2 + 1e-9 and min(x, y, z) > 2
    )
    if not in_slice:
        raise AssertionError(f"({x}, {y}, {z}) escaped the one-holed-torus slice")
    return result


def pants_curve_count(g: int, n: int) -> int:
    """Number of interior curves in a pants decomposition of an
    orientable genus-g surface with n boundary components:
    N = 3(g-1) + n."""
    if g < 0 or n < 0:
        raise ValueError(f"genus and boundary count must be >= 0, got ({g}, {n})")
    return 3 * (g - 1) + n
