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

Exact or float.  Every predicate takes its coordinates in through
``_intake.take``, which keeps exact input (ints and ``Fraction``s) exact
for ``member_s04``, ``member_s12``, ``member_c02`` and ``member_c11``.
The first two share one step, ``_ratios``: exact input goes through their
tests' polynomials, built once from the formulas that float input goes
through, on int numerators over a positive denominator, so the predicate
compares ints and reports num/den, rounded like ``float(Fraction)``.
``member_s11`` and ``member_c11`` decide a sign whose float value
overflowed at finite input (inf - inf is NaN) exactly, on the
``Fraction``s of those floats.  The five result records write their JSON
through ``_intake.Record``.

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
from fractions import Fraction

from ._intake import Record, overflow_names, report, take, unless_overflowed
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


def _ratios(owner, names, tests, polys, point):
    """Whether ``point`` is exact, its numerators and denominators, and each
    test's value as (num, den): on int numerators through ``polys()``, the
    cached ``tests`` at the variables, if every coordinate is an int or a
    ``Fraction``, else through ``tests`` in floats, each value over 1."""
    point = take(ValueError, owner, names, point, exact=True)
    if not isinstance(point[0], float):
        nums, dens = [int(t.numerator) for t in point], [int(t.denominator) for t in point]
        return True, nums, dens, [p._evaluate_ratio(nums, dens) for p in polys()]
    return False, point, (1,) * len(point), [(v, 1) for v in tests(*point)]


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
        take(ValueError, "FNCoords", "l tau b", (self.l, self.tau, self.b))
        if not self.l > 0:
            raise ValueError(f"length must be positive, got {self.l}")
        if self.b < 0:
            raise ValueError(f"boundary length must be >= 0, got {self.b}")


class S03Verdict(enum.Enum):
    MEMBER_SLICE = "member-slice"
    MEMBER_OTHER_OCTANT = "member-other-octant"
    NONMEMBER = "nonmember"


@dataclass(frozen=True)
class S03Result(Record):
    verdict: S03Verdict
    cusps: tuple[str, ...]


def member_s03(x: float, y: float, z: float) -> S03Result:
    """Three-holed sphere: the four closed octants with an even number
    of positive coordinates, each coordinate at distance >= 2 from 0;
    the all-negative octant is the slice.  Coordinates within 1e-12 of
    -2 (or 2) are cusps.  An exact coordinate past the float range is a
    ValueError."""
    coords = take(ValueError, "member_s03", "x y z", (x, y, z))
    for signs in h1z2_action(-1, -1, -1):  # the slice's octant, then its sign images
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
class S11Result(Record):
    verdict: S11Verdict
    kappa: float
    cusp: bool


def member_s11(x: float, y: float, z: float) -> S11Result:
    """One-holed torus: x^2 + y^2 + z^2 - xyz <= 0 (kappa <= -2) is the
    full orbit; the slice additionally has x, y, z > 2.  kappa = -2 is
    the cusped boundary.  An exact coordinate past the float range is a
    ValueError."""
    x, y, z = take(ValueError, "member_s11", "x y z", (x, y, z))
    k = kappa_value(x, y, z)
    sign = unless_overflowed(k, kappa_value, x, y, z)
    if sign > -2:
        return S11Result(S11Verdict.NONMEMBER, k, False)
    cusp = sign == -2
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
    p, q, r = take(ValueError, "member_c02", "p q r", (p, q, r), exact=True)
    return r <= -2 and p * q + r >= 2


def _klein(p, q, r):
    """p^2 + q^2 - pqr, in the arithmetic of the arguments."""
    return p * p + q * q - p * q * r


def member_c11(p: float, q: float, r: float) -> bool:
    """One-holed Klein bottle: p^2 + q^2 - pqr >= 0."""
    p, q, r = take(ValueError, "member_c11", "p q r", (p, q, r), exact=True)
    return unless_overflowed(_klein(p, q, r), _klein, p, q, r) >= 0


# -- four-holed sphere ---------------------------------------------------------


class S04Verdict(enum.Enum):
    MEMBER = "member"
    NONMEMBER_RANGE = "nonmember-range"
    NONMEMBER_OFF_VARIETY = "nonmember-off-variety"
    NONMEMBER_WRONG_COMPONENT = "nonmember-wrong-component"


@dataclass(frozen=True)
class S04Result(Record):
    _json_keys = dict(s_minus="S_minus", s_plus="S_plus", f_plus="F_plus", f_minus="F_minus")

    verdict: S04Verdict
    residual: float
    kappa_ab: float
    kappa_cd: float
    s_minus: float
    s_plus: float
    f_plus: float | None
    f_minus: float | None
    cusps: tuple[str, ...]


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


def _s04_tests(a, b, c, d, x, y, z):
    """The quartic, then k_ab(x), k_cd(x), S-, S+, where k_pq(x) =
    kappa(p, q, x) - 2, in the arithmetic of the arguments."""
    return (s04_quartic(a, b, c, d, x, y, z),
            kappa_value(a, b, x) - 2, kappa_value(c, d, x) - 2,
            (y - z) * (2 - x) + (a - b) * (c - d), (y + z) * (2 + x) - (a + b) * (c + d))


@functools.cache
def _s04_polys() -> tuple[Polynomial, ...]:
    return _s04_tests(*_s04_variables())


def _over_root(n: int, d: int, t: int, u: int) -> Fraction:
    """(n / d) / sqrt(t / u) for ints with d, t, u > 0, to 64 bits or more,
    however far it lies from the float range."""
    m, e = n * n * u, d * d * t
    s = max(0, 64 - (m.bit_length() - e.bit_length()) // 2)
    root = Fraction(math.isqrt((m << 2 * s) // e), 1 << s)
    return -root if n < 0 else root


def member_s04(ch: CharacterS04) -> S04Result:
    """Boundary traces >= 2 and x < -2, on the quartic, and F~+ > 0 and
    F~- > 0.  Exact input is decided on integer numerators, the last test as
    its exact equivalent S+ > 0 and (2-x) S+^2 > (-2-x) S-^2; of the floats
    F~+- the one whose two terms share a sign is summed, the other is the
    exact product F~+ F~- = S+^2/(-2-x) - S-^2/(2-x) over it, free of
    cancellation.  Where -2-x or that product leaves the float range (x
    within about 1e-308 of -2), the terms S/sqrt(.) are exact to 64 bits
    (``_over_root``) and F~+- rounded once.  A report past the float range
    is a ValueError."""
    exact, nums, dens, ((rn, rd), *terms) = _ratios(
        "member_s04", "a b c d x y z", _s04_tests, _s04_polys, ch.as_tuple())
    res_f, kab, kcd, s_minus, s_plus = report(
        "member_s04", "residual kappa_ab kappa_cd S_minus S_plus", ((abs(rn), rd), *terms))
    nx, dx = nums[4], dens[4]
    cusps = tuple(v for v, n, e in zip("abcd", nums, dens) if n == 2 * e)
    if not (min(n - 2 * e for n, e in zip(nums[:4], dens)) >= 0 and nx < -2 * dx):
        return S04Result(S04Verdict.NONMEMBER_RANGE, res_f, kab, kcd, s_minus, s_plus,
                         None, None, cusps)
    below, above = -2 * dx - nx, 2 * dx - nx  # dx (-2-x) > 0 and dx (2-x) > 0
    if exact:  # S+- = N+-/D+-: (2-x) S+^2 > (-2-x) S-^2 times dx (D+ D-)^2
        (mn, md), (pn, pd) = terms[2:]
        hi, lo = above * (pn * md) ** 2, below * (mn * pd) ** 2
        off, component = rn != 0, pn > 0 and hi > lo
        num, den = dx * (hi - lo), above * below * (pd * md) ** 2  # F~+ F~- = num / den
    try:
        plus, minus = s_plus / math.sqrt(below / dx), s_minus / math.sqrt(above / dx)
        if exact:
            product = num / den
    except (OverflowError, ZeroDivisionError):  # exact only: -2-x or F~+ F~- left the float range
        plus, minus = _over_root(pn, pd, below, dx), _over_root(mn, md, above, dx)
        product = Fraction(num, den)
    f_plus, f_minus = plus + minus, plus - minus
    if exact:
        if pn * mn >= 0:  # |F~+| >= |F~-|
            f_minus = product / f_plus if f_plus else f_minus
        else:
            f_plus = product / f_minus if f_minus else f_plus
        if isinstance(f_plus, Fraction):  # rounded once, if they are in the float range
            f_plus, f_minus = report("member_s04", "F_plus F_minus",
                                     (f_plus.as_integer_ratio(), f_minus.as_integer_ratio()))
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


@functools.cache
def defining_identity_residual() -> Polynomial:
    """LHS - RHS of the exact identity behind the component test; the
    zero polynomial.  Checked symbolically by the test suite.  Built once
    per process."""
    point = _s04_variables()
    phi, kab, kcd, s_minus, s_plus = _s04_tests(*point)
    x = point[4]
    lhs = (4 - x * x) * phi * 4
    rhs = (2 + x) * s_minus * s_minus + (2 - x) * s_plus * s_plus - kab * kcd * 4
    return lhs - rhs


# -- two-holed torus -----------------------------------------------------------


class S12Verdict(enum.Enum):
    MEMBER = "member"
    NONMEMBER_OFF_VARIETY = "nonmember-off-variety"
    NONMEMBER_INEQUALITIES = "nonmember-inequalities"


@dataclass(frozen=True)
class S12Result(Record):
    verdict: S12Verdict
    residuals: tuple[float, float]
    kappas: tuple[float, float, float]


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
    integer numerators for exact input; the reported values are floats (one
    past the float range is a ValueError)."""
    point = (ch.a, ch.b, ch.u, ch.v, ch.w, ch.x, ch.y, ch.z)
    exact, _, _, ((n1, d1), (n2, d2), *ks) = _ratios(
        "member_s12", "a b u v w x y z", _s12_tests, _s12_polys, point)
    r1, r2, *kappas = report("member_s12", "residuals[0] residuals[1] kappas[0] kappas[1] "
                              "kappas[2]", ((abs(n1), d1), (abs(n2), d2), *ks))
    residuals, kappas = (r1, r2), tuple(kappas)
    # a NaN residual is off the variety
    if not (n1 == n2 == 0 if exact else all(r <= ONVARIETY_TOL for r in residuals)):
        return S12Result(S12Verdict.NONMEMBER_OFF_VARIETY, residuals, kappas)
    if all(n < -2 * e for n, e in ks):
        return S12Result(S12Verdict.MEMBER, residuals, kappas)
    return S12Result(S12Verdict.NONMEMBER_INEQUALITIES, residuals, kappas)


# -- Fenchel-Nielsen -----------------------------------------------------------


@dataclass(frozen=True)
class FNResult(Record):
    x: float
    y: float
    z: float
    kappa: float
    boundary_trace: float
    metadata: dict = field(compare=False)

    def traces(self):
        return (self.x, self.y, self.z)


def fn_to_traces(coords: FNCoords) -> FNResult:
    """Trace coordinates of the one-holed torus structure with
    Fenchel-Nielsen coordinates (l, tau, b).

    rho(X) = diag(e^{l/2}, e^{-l/2}); the orthogonal-axis generator
    rho0(Y) is hyperbolic with axis through +-1 and half-translation
    mu/2 solved from sinh(mu/2) = cosh(b/4)/sinh(l/2) (which makes the
    commutator trace equal -2 cosh(b/2)); the twist multiplies by
    diag(e^{tau/2}, e^{-tau/2}).  rho(X) is diagonal, so only the
    diagonal cosh(mu/2) e^{+-tau/2} of rho(Y) enters the three traces.

    The returned metadata records the closed forms:  the constraint is
    kappa = 2 - 4 sinh^2(l/2) sinh^2(mu/2), and y = 2 cosh(mu/2)
    cosh(tau/2) = 2 sqrt(1 + csch^2(l/2) cosh^2(b/4)) cosh(tau/2).

    Coordinates past the float range or whose functions leave it, or
    whose traces miss the constraint or the slice (float cancellation,
    from about l = 15), raise ``ValueError``.
    """
    # each argument as a float and its own functions first, so that an overflow names it
    with overflow_names(l=coords.l):
        l2 = float(coords.l) / 2
        exp_l, sinh_l = [math.exp(l2), math.exp(-l2)], math.sinh(l2)
        sinh_l_sq = sinh_l ** 2
    with overflow_names(tau=coords.tau):
        tau2 = float(coords.tau) / 2
        exp_tau, cosh_tau = [math.exp(tau2), math.exp(-tau2)], math.cosh(tau2)
    with overflow_names(b=coords.b):
        b2 = float(coords.b) / 2
        cosh_b = math.cosh(b2 / 2)
        cosh_b_sq, boundary = cosh_b ** 2, -2 * math.cosh(b2)
    with overflow_names(l=coords.l, b=coords.b):  # cosh(b/4)/sinh(l/2) and its square
        mu_half = math.asinh(cosh_b / sinh_l)
        cosh_mu = math.cosh(mu_half)
        csch_cosh_sq = cosh_b_sq / sinh_l_sq
    y0, y1 = cosh_mu * exp_tau[0], cosh_mu * exp_tau[1]  # a non-finite trace fails below
    x, y = exp_l[0] + exp_l[1], y0 + y1
    z = exp_l[0] * y0 + exp_l[1] * y1
    k = kappa_value(x, y, z)
    corrected_y = 2 * math.sqrt(1 + csch_cosh_sq) * cosh_tau
    result = FNResult(
        x=x, y=y, z=z, kappa=k, boundary_trace=boundary,
        metadata={
            "mu": 2 * mu_half,
            "constraint_residual": abs(k - boundary),
            "closed_form_y": corrected_y,
            "closed_form_y_matches": abs(corrected_y - y) <= 1e-9 * (1 + abs(y)),
        },
    )
    if not result.metadata["constraint_residual"] <= 1e-9 * (1 + abs(k)):  # NaN too
        miss = f"boundary-trace constraint violated: kappa = {k} vs {boundary}"
    # the image is the closed slice; at a cusp (b = 0) rounding may land
    # an epsilon outside the exact predicate
    elif not (member_s11(x, y, z).verdict is S11Verdict.MEMBER_SLICE
              or k <= -2 + 1e-9 and min(x, y, z) > 2):
        miss = f"({x}, {y}, {z}) escaped the one-holed-torus slice"
    else:
        return result
    raise ValueError(f"{miss} at (l, tau, b) = ({coords.l}, {coords.tau}, {coords.b})")


def pants_curve_count(g: int, n: int) -> int:
    """Number of interior curves in a pants decomposition of an
    orientable genus-g surface with n boundary components:
    N = 3(g-1) + n."""
    if g < 0 or n < 0:
        raise ValueError(f"genus and boundary count must be >= 0, got ({g}, {n})")
    return 3 * (g - 1) + n
