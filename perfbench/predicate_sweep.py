"""predicate_sweep: one operation passes one seeded point set through
every membership predicate and numeric construction; there is no
symbolic arithmetic.

A point set holds one point of each family: a triple (x, y, z) goes through
member_s03, member_s11, member_c02, member_c11 and
classify_real_character; a four-holed-sphere point through member_s04;
a two-holed-torus point through member_s12; traces <= -2 through
hexagon_certificate; six traces through construct_triple; and
Fenchel-Nielsen coordinates through fn_to_traces.  Point sets
alternate between floats and exact Fractions.  The exact points include boundary
points: Markoff-type cusps (kappa = -2 exactly), coordinates equal to
+-2, points 1e-20 off a boundary (floats cannot tell them apart from
it), reducible characters (kappa = 2), the c02/c11 boundaries,
parabolic boundary traces and on-variety points built from rational
matrices.  The first triple is always (33/10, 33/10, 33/4), whose
exact kappa is -2.

Check: each verdict is compared with the documented inequalities,
recomputed here in exact arithmetic (a float input is taken at its
exact binary value); constructions are checked numerically.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from slchar import chars, fricke, hypgeom

import common

NAME = "predicate_sweep"
POOL = 400
OP_MS = 1.25  # wall per operation at reference speed, check included
FIXED_TRIPLE = (Fraction(33, 10), Fraction(33, 10), Fraction(33, 4))
ONVARIETY_TOL = 1e-8
TINY = Fraction(1, 10**20)

# -- the documented rules, in whatever arithmetic the inputs carry ----------------

_S03_OCTANTS = ((-1, -1, -1), (-1, 1, 1), (1, 1, -1), (1, -1, 1))


def ref_s03(x, y, z):
    """Closed octants with an even number of positive signs, |t| >= 2;
    the all-negative octant is the slice; |t| == 2 is a cusp."""
    for signs in _S03_OCTANTS:
        if all(s * t >= 2 for s, t in zip(signs, (x, y, z))):
            cusps = tuple(n for n, t in zip("xyz", (x, y, z)) if abs(t) == 2)
            slice_ = signs == (-1, -1, -1)
            return ("member-slice" if slice_ else "member-other-octant", cusps)
    return ("nonmember", ())


def ref_s11(x, y, z):
    """kappa <= -2 is the orbit, with x, y, z > 2 the slice; kappa == -2
    is a cusp."""
    k = common.kappa(x, y, z)
    if k > -2:
        return ("nonmember", False)
    return ("member-slice" if min(x, y, z) > 2 else "member-orbit", k == -2)


def ref_c02(p, q, r):
    return r <= -2 and p * q + r >= 2


def ref_c11(p, q, r):
    return p * p + q * q - p * q * r >= 0


def ref_classify(x, y, z):
    k = common.kappa(x, y, z)
    in_cube = all(abs(t) <= 2 for t in (x, y, z))
    if k != 2:
        return "SU2-fixed-point" if k < 2 and in_cube else "SL2R-plane"
    if all(abs(t) == 2 for t in (x, y, z)):
        return "Reducible-undetermined"
    if in_cube:
        return "Reducible-SO2"
    if all(abs(t) >= 2 for t in (x, y, z)):
        return "Reducible-SO11"
    return "Reducible-undetermined"


def s04_quartic(a, b, c, d, x, y, z):
    return (
        x * x + y * y + z * z + x * y * z
        - (a * b + c * d) * x - (a * d + b * c) * y - (a * c + b * d) * z
        + a * a + b * b + c * c + d * d + a * b * c * d - 4
    )


def ref_s04(a, b, c, d, x, y, z, exact):
    """Boundary traces >= 2 and x < -2; on the quartic (exactly, or
    within 1e-8 for floats); then F+ > 0 and F- > 0, which for x < -2
    is S+ > 0 and (2-x) S+^2 > (-2-x) S-^2."""
    cusps = tuple(n for n, t in zip("abcd", (a, b, c, d)) if t == 2)
    if not (min(a, b, c, d) >= 2 and x < -2):
        return ("nonmember-range", cusps)
    res = s04_quartic(a, b, c, d, x, y, z)
    if (res != 0) if exact else (abs(res) > ONVARIETY_TOL):
        return ("nonmember-off-variety", cusps)
    s_minus = (y - z) * (2 - x) + (a - b) * (c - d)
    s_plus = (y + z) * (2 + x) - (a + b) * (c + d)
    if s_plus > 0 and (2 - x) * s_plus * s_plus > (-2 - x) * s_minus * s_minus:
        return ("member", cusps)
    return ("nonmember-wrong-component", cusps)


def s12_relations(a, b, u, v, w, x, y, z):
    r1 = (a + b) - (y * v + x * w + z * u - u * x * y)
    r2 = a * b - (
        x * x + y * y + u * u + v * v + w * w + z * z
        - x * y * z - y * u * w - u * x * v + v * w * z - 4
    )
    return r1, r2


def ref_s12(a, b, u, v, w, x, y, z, exact):
    r1, r2 = s12_relations(a, b, u, v, w, x, y, z)
    if (r1 != 0 or r2 != 0) if exact else (abs(r1) > ONVARIETY_TOL or abs(r2) > ONVARIETY_TOL):
        return "nonmember-off-variety"
    kappas = (common.kappa(x, y, z), common.kappa(y, u, w), common.kappa(u, x, v))
    return "member" if all(k < -2 for k in kappas) else "nonmember-inequalities"


def reference(family, exact, point):
    """Expected verdicts for a predicate family, or None for the
    numeric constructions (checked separately)."""
    if family == "triple":
        return (ref_s03(*point), ref_s11(*point), ref_c02(*point),
                ref_c11(*point), ref_classify(*point))
    if family == "s04":
        return ref_s04(*point, exact)
    if family == "s12":
        return ref_s12(*point, exact)
    return None


def _as_exact(point):
    return tuple(Fraction(v) for v in point)


# -- the operation under test -----------------------------------------------------


def warm_up() -> None:
    run((False, (("triple", (-3.0, -3.0, -3.0)),
                 ("s04", (2.0, 2.0, 2.0, 2.0, -3.0, 2.0, 7.0)),
                 ("s12", (2.0,) * 8),
                 ("hexagon", (-3.0, -3.0, -3.0)),
                 ("construct", (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, "+")),
                 ("fn", (2.0, 0.5, 1.0)))))


def _run_point(family, point):
    if family == "triple":
        return (fricke.member_s03(*point), fricke.member_s11(*point),
                fricke.member_c02(*point), fricke.member_c11(*point),
                chars.classify_real_character(*point))
    if family == "s04":
        return fricke.member_s04(fricke.CharacterS04(*point))
    if family == "s12":
        a, b, u, v, w, x, y, z = point
        return fricke.member_s12(fricke.CharacterS12(a=a, b=b, u=u, x=x, y=y, v=v, w=w, z=z))
    if family == "hexagon":
        return hypgeom.hexagon_certificate(*point)
    if family == "construct":
        *traces, branch = point
        return chars.construct_triple(*traces, branch)
    return fricke.fn_to_traces(fricke.FNCoords(*point))


def run(op):
    _, points = op
    return tuple(_run_point(family, point) for family, point in points)


def observed(family, out):
    """The program's verdicts in the reference's format."""
    if family == "triple":
        s03, s11, c02, c11, cls = out
        return ((s03.verdict.value, tuple(s03.cusps)), (s11.verdict.value, s11.cusp),
                c02, c11, cls.value)
    if family == "s04":
        return (out.verdict.value, tuple(out.cusps))
    return out.verdict.value


def _close(got, want, rel) -> bool:
    return abs(got - want) <= rel * (1 + abs(want))


def _check_hexagon(point, cert):
    x, y, z = (float(t) for t in point)
    cusped = {"X": x == -2, "Y": y == -2, "Z": z == -2}
    want = "right-hexagon-with-cusps" if any(cusped.values()) else "right-hexagon"
    if cert.verdict != want:
        return f"verdict {cert.verdict}, expected {want}"

    def inner(p, q, r):  # <hat P, hat Q> for traces p, q and trace r of PQ
        return (2 * r - p * q) / math.sqrt((p * p - 4) * (q * q - 4))

    expect = {"XY": (x, y, z), "YZ": (y, z, x), "ZX": (z, x, y)}
    if [pair.names for pair in cert.pairs] != list(expect):
        return f"pairs {[pair.names for pair in cert.pairs]}, expected {list(expect)}"
    for pair in cert.pairs:
        n1, n2 = pair.names
        if cusped[n1] or cusped[n2]:
            if pair.inner != -1.0:
                return f"ideal pair {pair.names} has inner product {pair.inner}"
        elif not _close(pair.inner, inner(*expect[pair.names]), 1e-8):
            return (f"pair {pair.names} inner product {pair.inner}, "
                    f"expected {inner(*expect[pair.names])}")
    return None


def _check_construct(point, mats):
    *traces, branch = point
    t1, t2, t3, t12, t23, t13 = (complex(t) for t in traces)
    m1, m2, m3 = (np.asarray(m, dtype=complex) for m in mats)

    def tr(*ms):
        out = np.eye(2, dtype=complex)
        for m in ms:
            out = out @ m
        return complex(out[0, 0] + out[1, 1])

    for m in (m1, m2, m3):
        if not _close(complex(np.linalg.det(m)), 1, 1e-8):
            return f"det {np.linalg.det(m)} != 1"
    for got, want, name in ((tr(m1), t1, "t1"), (tr(m2), t2, "t2"), (tr(m3), t3, "t3"),
                            (tr(m1, m2), t12, "t12"), (tr(m2, m3), t23, "t23"),
                            (tr(m1, m3), t13, "t13")):
        if not _close(got, want, 1e-7):
            return f"{name} = {got}, expected {want}"
    fsum = t12 * t3 + t13 * t2 + t23 * t1 - t1 * t2 * t3
    fprod = (t1 * t1 + t2 * t2 + t3 * t3 + t12 * t12 + t23 * t23 + t13 * t13
             - (t1 * t2 * t12 + t2 * t3 * t23 + t3 * t1 * t13) + t12 * t23 * t13 - 4)
    disc = cmath.sqrt(fsum * fsum - 4 * fprod)
    roots = sorted(((fsum + disc) / 2, (fsum - disc) / 2),
                   key=lambda r: (r.real, r.imag), reverse=True)
    want = roots[0] if branch == "+" else roots[1]
    got = tr(m1, m2, m3)
    if not _close(got, want, 1e-6) and not _close(roots[0], roots[1], 1e-6):
        return f"t123 = {got}, expected the {branch} root {want}"
    return None


def _check_fn(point, res):
    l, tau, b = (float(t) for t in point)
    mu_half = math.asinh(math.cosh(b / 4) / math.sinh(l / 2))
    want = {
        "x": 2 * math.cosh(l / 2),
        "y": 2 * math.cosh(mu_half) * math.cosh(tau / 2),
        "z": 2 * math.cosh(mu_half) * math.cosh((l + tau) / 2),
        "kappa": -2 * math.cosh(b / 2),
    }
    for name, value in want.items():
        got = getattr(res, name)
        if not _close(got, value, 1e-9):
            return f"{name} = {got}, expected {value}"
    return None


def _check_point(family, exact, point, out) -> str | None:
    if family == "hexagon":
        return _check_hexagon(point, out)
    if family == "construct":
        return _check_construct(point, out)
    if family == "fn":
        return _check_fn(point, out)
    want = reference(family, exact, _as_exact(point))
    got = observed(family, out)
    return None if got == want else f"verdicts {got}, expected {want}"


def _decided_in_floats(family, point, out) -> bool:
    """Seed-commit defect: an exact input decided in floating point.
    Recognized when every verdict that differs from the exact rule is
    what the documented rule gives on the inputs rounded to floats, in
    float arithmetic."""
    if family not in ("triple", "s04", "s12"):
        return False
    got = observed(family, out)
    want = reference(family, True, _as_exact(point))
    in_floats = reference(family, False, tuple(float(v) for v in point))
    if family != "triple":
        got, want, in_floats = (got,), (want,), (in_floats,)
    return all(g == w or g == f for g, w, f in zip(got, want, in_floats))


def _point_text(family, point) -> str:
    return f"{family} ({', '.join(str(v) for v in point)})"


def check(op, out) -> str | None:
    exact, points = op
    reasons = [f"{_point_text(family, point)}: {reason}"
               for (family, point), result in zip(points, out)
               if (reason := _check_point(family, exact, point, result))]
    return "; ".join(reasons) or None


def known_defect(op, out) -> str | None:
    exact, points = op
    failing = [(family, point, result) for (family, point), result in zip(points, out)
               if _check_point(family, exact, point, result)]
    if exact and all(_decided_in_floats(*f) for f in failing):
        return "exact-input-decided-in-floats"
    return None


def describe(op) -> str:
    return f"{'exact' if op[0] else 'float'} point set"


def digest_key(op):
    return op


# -- seeded points ----------------------------------------------------------------


def _q(rnd, lo: int, hi: int, den: int = 4) -> Fraction:
    """A rational in [lo, hi] with denominator at most ``den``."""
    d = rnd.randint(1, den)
    return Fraction(rnd.randint(lo * d, hi * d), d)


def _markoff_cusp(rnd):
    """A rational triple with x^2 + y^2 + z^2 = xyz (kappa = -2)."""
    u = Fraction(rnd.randint(1, 16), rnd.randint(1, 6))
    t = (u * u + 8) / (2 * u)
    s = (8 / u - u) / 2
    x, y, z = t, t, (t * t + rnd.choice((1, -1)) * t * s) / 2
    for _ in range(rnd.randint(0, 2)):  # Vieta jumps keep kappa
        x, y, z = y, z, y * z - x
    point = [x, y, z]
    rnd.shuffle(point)
    if rnd.random() < 0.5:  # a sign change of two coordinates keeps kappa
        i = rnd.randrange(3)
        point = [-v if j != i else v for j, v in enumerate(point)]
    return tuple(point)


def _exact_triple(rnd, k: int):
    kind = k % 6
    if kind == 0:
        return tuple(_q(rnd, -8, 8) for _ in range(3))
    if kind == 1:
        return _markoff_cusp(rnd)
    if kind == 2:  # s03 boundary: an octant with coordinates at |t| = 2 or beyond
        signs = rnd.choice(_S03_OCTANTS)
        return tuple(s * (2 + rnd.choice((0, 0, Fraction(rnd.randint(1, 20), 4))))
                     for s in signs)
    if kind == 3:  # 1e-20 off a boundary: off a cusp of s03, or of s11
        if rnd.random() < 0.5:
            signs = rnd.choice(_S03_OCTANTS)
            return tuple(s * (2 + rnd.choice((TINY, -TINY, Fraction(rnd.randint(1, 20), 4))))
                         for s in signs)
        x, y, z = _markoff_cusp(rnd)
        return (x + rnd.choice((TINY, -TINY)), y, z)
    if kind == 4:  # reducible: kappa = 2
        if rnd.random() < 0.5:
            a, b = _q(rnd, 1, 6), _q(rnd, -6, -1)
            return (a + 1 / a, b + 1 / b, a * b + 1 / (a * b))
        c1, s1 = _circle_point(rnd)
        c2, s2 = _circle_point(rnd)
        return (2 * c1, 2 * c2, 2 * (c1 * c2 - s1 * s2))
    # c02 and c11 boundaries: pq + r = 2 with r <= -2, or p^2 + q^2 = pqr
    p, q = _q(rnd, 1, 6), _q(rnd, 1, 6)
    if rnd.random() < 0.5:
        p = p + 4
        return (p, q, 2 - p * q)
    return (p, q, (p * p + q * q) / (p * q))


def _circle_point(rnd):
    t = _q(rnd, -3, 3)
    return (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)


def _float_triple(rnd, k: int):
    lo, hi = ((-8, 8), (2, 8), (-8, -2))[k % 3]
    return tuple(rnd.uniform(lo, hi) for _ in range(3))


def _sl2(rnd, exact):
    return common.rational_sl2(rnd) if exact else common.real_sl2(rnd)


def _sl2_with_trace(rnd, t, exact: bool):
    p = _q(rnd, -3, 3) if exact else rnd.uniform(-3, 3)
    s = (_q(rnd, 1, 3) if exact else rnd.uniform(0.5, 3)) * rnd.choice((1, -1))
    return ((p, s), ((p * (t - p) - 1) / s, t - p))


def _s04_point(rnd, exact: bool, k: int):
    """Traces of A, B, C, D = (ABC)^-1 and of AB, BC, AC, which lie on
    the quartic.  A, B, C get traces >= 2 (exactly 2, a cusp, for A in
    one exact point in four); in three points in four D and x are
    redrawn until d >= 2 and x < -2, and one of those three is moved
    off the variety."""
    kind = k % 4
    mm = common.matmul
    while True:
        traces = [2 + (_q(rnd, 0, 4) if exact else rnd.uniform(0.01, 4)) for _ in range(3)]
        if exact and kind == 1:
            traces[0] = Fraction(2)
        A, B, C = (_sl2_with_trace(rnd, t, exact) for t in traces)
        D = common.inverse(mm(mm(A, B), C))
        point = (*traces, common.trace(D), common.trace(mm(A, B)),
                 common.trace(mm(B, C)), common.trace(mm(A, C)))
        if kind == 3 or (point[3] >= 2 and point[4] < -2):
            break
    if kind == 2:
        shift = Fraction(1, 7) if exact else 1e-3
        point = point[:5] + (point[5] + shift,) + point[6:]
    return point


def _s12_point(rnd, exact: bool, k: int):
    U, X, Y = (_sl2(rnd, exact) for _ in range(3))
    mm = common.matmul
    u, x, y = (common.trace(m) for m in (U, X, Y))
    v, w, z = common.trace(mm(U, X)), common.trace(mm(U, Y)), common.trace(mm(X, Y))
    a, b = common.trace(mm(mm(U, X), Y)), common.trace(mm(mm(U, Y), X))
    if k % 4 == 3:  # off the variety
        a = a + (Fraction(1, 5) if exact else 1e-3)
    return (a, b, u, v, w, x, y, z)


def _hexagon_point(rnd, exact: bool):
    if not exact:
        return tuple(rnd.uniform(-10, -2.01) for _ in range(3))
    return tuple(-2 - rnd.choice((0, Fraction(rnd.randint(1, 32), 4)))
                 for _ in range(3))


def _construct_point(rnd, exact: bool):
    """Traces of a triple whose first pair is well away from reducible
    (|kappa - 2| >= 1/2), plus a branch sign."""
    mm = common.matmul
    while True:
        m1, m2, m3 = (_sl2(rnd, exact) for _ in range(3))
        t1, t2, t12 = common.trace(m1), common.trace(m2), common.trace(mm(m1, m2))
        if abs(common.kappa(t1, t2, t12) - 2) >= Fraction(1, 2):
            break
    return (t1, t2, common.trace(m3), t12, common.trace(mm(m2, m3)),
            common.trace(mm(m1, m3)), rnd.choice("+-"))


def _fn_point(rnd, exact: bool):
    if not exact:
        return (rnd.uniform(0.1, 5), rnd.uniform(-4, 4), rnd.uniform(0, 4))
    b = rnd.choice((Fraction(0), _q(rnd, 0, 4)))
    return (Fraction(rnd.randint(1, 50), 10), _q(rnd, -4, 4), b)


def make_inputs(seed: int) -> list:
    rnd = common.rng(NAME, seed)
    ops = []
    for k in range(POOL):
        exact, j = k % 2 == 0, k // 2
        triple = _exact_triple(rnd, j) if exact else _float_triple(rnd, j)
        if k == 0:
            triple = FIXED_TRIPLE
        ops.append((exact, (
            ("triple", triple),
            ("s04", _s04_point(rnd, exact, j)),
            ("s12", _s12_point(rnd, exact, j)),
            ("hexagon", _hexagon_point(rnd, exact)),
            ("construct", _construct_point(rnd, exact)),
            ("fn", _fn_point(rnd, exact)),
        )))
    return ops
