import decimal
import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slchar import fricke, mat2
from slchar.fricke import (
    CharacterS04,
    CharacterS12,
    FNCoords,
    S03Verdict,
    S04Verdict,
    S11Verdict,
    S12Verdict,
    defining_identity_residual,
    fn_to_traces,
    h1z2_action,
    member_c02,
    member_c11,
    member_s03,
    member_s04,
    member_s11,
    member_s12,
    pants_curve_count,
    s04_defining_poly,
    s04_quartic,
    s12_relation_polys,
)
from slchar.polyring import F2_VARS, S04_VARS, S12_VARS, Polynomial
from slchar.sampling import random_rational_unimodular
from slchar.tracepoly import kappa, kappa_value
from tuple2x2 import (FRACTIONS, SL2, as_tuple, commutator_trace, from_pair, inverse, product,
                      trace)

RND = random.Random(50)


class TestS03:
    def test_slice(self):
        assert member_s03(-3, -3, -3).verdict is S03Verdict.MEMBER_SLICE

    def test_cusped_slice(self):
        res = member_s03(-2, -2, -2)
        assert res.verdict is S03Verdict.MEMBER_SLICE
        assert res.cusps == ("x", "y", "z")

    def test_other_octant(self):
        assert member_s03(-3, 3, 3).verdict is S03Verdict.MEMBER_OTHER_OCTANT
        assert member_s03(3, 3, -3).verdict is S03Verdict.MEMBER_OTHER_OCTANT
        assert member_s03(3, -3, 3).verdict is S03Verdict.MEMBER_OTHER_OCTANT

    def test_nonmember(self):
        assert member_s03(-3, -3, 0).verdict is S03Verdict.NONMEMBER
        assert member_s03(3, 3, 3).verdict is S03Verdict.NONMEMBER

    def test_exact_coordinate_past_the_float_range(self):
        # float() of it raises OverflowError, which must not escape unnamed
        for name, point in (("x", (Fraction(10**400), 3, 3)), ("z", (-3, -3, -10**400))):
            with pytest.raises(ValueError, match=f"member_s03 needs finite traces, got {name} past"):
                member_s03(*point)

    def test_slice_points_have_hexagons(self):
        from slchar.hypgeom import hexagon_certificate

        for _ in range(50):
            x, y, z = (RND.uniform(-9, -2.2) for _ in range(3))
            assert member_s03(x, y, z).verdict is S03Verdict.MEMBER_SLICE
            cert = hexagon_certificate(x, y, z)
            assert all(p.inner < -1 for p in cert.pairs)


class TestS11:
    def test_boundary_cusp(self):
        res = member_s11(3, 3, 3)
        assert res.verdict is S11Verdict.MEMBER_SLICE
        assert res.cusp and res.kappa == -2

    def test_interior(self):
        res = member_s11(5, 5, 5)
        assert res.verdict is S11Verdict.MEMBER_SLICE
        assert res.kappa == -52

    def test_nonmember(self):
        assert member_s11(3, 3, 10).verdict is S11Verdict.NONMEMBER

    def test_quaternion_orbit_only(self):
        assert member_s11(0, 0, 0).verdict is S11Verdict.MEMBER_ORBIT

    def test_exact_coordinate_past_the_float_range(self):
        for name, point in (("x", (Fraction(10**400), 3, 3)), ("y", (3, -10**400, 3))):
            with pytest.raises(ValueError, match=f"member_s11 needs finite traces, got {name} past"):
                member_s11(*point)

    def test_invariant_under_sign_action(self):
        for _ in range(200):
            x, y, z = (RND.uniform(-6, 6) for _ in range(3))
            verdicts = {
                member_s11(*t).verdict is not S11Verdict.NONMEMBER
                for t in h1z2_action(x, y, z)
            }
            assert len(verdicts) == 1


class TestH1Z2:
    def test_displayed_orbit(self):
        assert h1z2_action(1, 2, 3) == (
            (1, 2, 3), (1, -2, -3), (-1, 2, -3), (-1, -2, 3)
        )

    def test_fixed_points(self):
        orbit = set(h1z2_action(1, 0, 0))
        assert len(orbit) == 2  # two coordinates vanish -> half the orbit
        orbit = set(h1z2_action(0, 0, 5))
        assert len(orbit) == 2
        assert len(set(h1z2_action(0, 0, 0))) == 1

    def test_kappa_invariant(self):
        for _ in range(100):
            x, y, z = (RND.uniform(-4, 4) for _ in range(3))
            kappas = {round(kappa_value(*t), 9) for t in h1z2_action(x, y, z)}
            assert len(kappas) == 1


class TestCrossSurfaces:
    def test_c02(self):
        assert member_c02(2, 2, -2)
        assert not member_c02(0, 0, -2)
        assert member_c02(3, 3, -3)
        assert not member_c02(3, 3, 3)  # r > -2

    def test_c11(self):
        assert member_c11(1, 1, 0)
        assert not member_c11(1, 1, 3)
        assert member_c11(0, 0, 0)

    def test_overflowed_signs_decided_exactly(self):
        # the float terms overflow (inf - inf is NaN); the exact values are
        # kappa = 0.5e400 - 2, and 0.5e400, 0 and -0.5e400 for c11
        res = member_s11(1e200, 1e200, 1.5)
        assert res.verdict is S11Verdict.NONMEMBER and math.isnan(res.kappa)
        assert member_s11(1e300, 1e300, 1e300).verdict is S11Verdict.MEMBER_SLICE
        assert member_c11(1e200, 1e200, 1.5)
        assert member_c11(1e200, 1e200, 2.0)
        assert not member_c11(1e200, 1e200, 2.5)
        with pytest.raises(ValueError, match="member_c11 needs finite traces, got p = inf"):
            member_c11(float("inf"), 1.0, 1.0)  # refused at the intake


class TestS04:
    def test_defining_identity_symbolic(self):
        assert defining_identity_residual().is_zero()

    def test_euler_zero_family_rejected(self):
        # a = b = c = d = 2, y = 2, z = 4 - x lies on the variety but on
        # the wrong hyperbola component for every x < -2
        for x in (-2.5, -3.0, -7.0):
            res = member_s04(CharacterS04(2, 2, 2, 2, x, 2, 4 - x))
            assert res.residual <= 1e-10
            assert res.verdict is S04Verdict.NONMEMBER_WRONG_COMPONENT
            assert res.f_plus < 0 and res.f_minus < 0

    def test_member_witness(self):
        y = -18 - 10 * math.sqrt(5)
        res = member_s04(CharacterS04(3, 3, 3, 3, -3, y, y))
        assert res.verdict is S04Verdict.MEMBER
        assert res.residual <= 1e-10
        assert res.f_plus > 0 and res.f_minus > 0

    def test_member_witness_exact(self):
        # the same point in the quadratic extension: substitute
        # y = z = -18 - 10 s with s^2 = 5 into the defining quartic
        from slchar.polyring import Polynomial, VariableSet

        s_vars = VariableSet(("s",))
        s = Polynomial.variable(s_vars, "s")
        const = lambda c: Polynomial.constant(s_vars, c)
        y = const(-18) - const(10) * s
        mapping = {
            "a": const(3), "b": const(3), "c": const(3), "d": const(3),
            "x": const(-3), "y": y, "z": y,
        }
        image = s04_defining_poly().substitute(mapping, target=s_vars)
        # reduce modulo s^2 - 5
        total = {0: Fraction(0), 1: Fraction(0)}
        for (e,), coeff in image.terms():
            total[e % 2] += coeff * Fraction(5) ** (e // 2)
        assert total[0] == 0 and total[1] == 0

    def test_off_variety(self):
        res = member_s04(CharacterS04(3, 3, 3, 3, -3, 0, 0))
        assert res.verdict is S04Verdict.NONMEMBER_OFF_VARIETY

    def test_range(self):
        res = member_s04(CharacterS04(1, 3, 3, 3, -3, 0, 0))
        assert res.verdict is S04Verdict.NONMEMBER_RANGE
        res = member_s04(CharacterS04(3, 3, 3, 3, 3, 0, 0))
        assert res.verdict is S04Verdict.NONMEMBER_RANGE

    def test_exact_mode(self):
        coords = [Fraction(v) for v in (2, 2, 2, 2, -3, 2, 7)]
        res = member_s04(CharacterS04(*coords))
        assert res.residual == 0
        assert res.verdict is S04Verdict.NONMEMBER_WRONG_COMPONENT

    def test_product_constant(self):
        # on-variety: F+ F- = 4 k_ab k_cd / (x^2 - 4)
        for x in (-2.5, -3.0, -5.0):
            res = member_s04(CharacterS04(2, 2, 2, 2, x, 2, 4 - x))
            expect = 4 * res.kappa_ab * res.kappa_cd / (x * x - 4)
            assert res.f_plus * res.f_minus == pytest.approx(expect, rel=1e-9)
        y = -18 - 10 * math.sqrt(5)
        res = member_s04(CharacterS04(3, 3, 3, 3, -3, y, y))
        expect = 4 * res.kappa_ab * res.kappa_cd / (9 - 4)
        assert res.f_plus * res.f_minus == pytest.approx(expect, rel=1e-9)


def _s04_point(A, B, C):
    """Traces of A, B, C, D = (ABC)^-1 and of AB, BC, AC: on the quartic."""
    d = trace(product(A, B, C))  # tr(M^-1) = tr(M) in SL(2)
    return (trace(A), trace(B), trace(C), d,
            trace(product(A, B)), trace(product(B, C)), trace(product(A, C)))


def _exact_component_rule(a, b, c, d, x, y, z):
    """F+ > 0 and F- > 0 for x < -2, squared out: S+ > 0 and
    (2-x) S+^2 > (-2-x) S-^2."""
    s_minus = (y - z) * (2 - x) + (a - b) * (c - d)
    s_plus = (y + z) * (2 + x) - (a + b) * (c + d)
    return s_plus > 0 and (2 - x) * s_plus**2 > (-2 - x) * s_minus**2


def _f_pair_reference(a, b, c, d, x, y, z):
    """(F+, F-) = S+/sqrt(-2-x) +- S-/sqrt(2-x) in 50-digit decimals."""
    s_minus = (y - z) * (2 - x) + (a - b) * (c - d)
    s_plus = (y + z) * (2 + x) - (a + b) * (c + d)
    with decimal.localcontext(prec=50):
        def dec(q):
            return decimal.Decimal(q.numerator) / decimal.Decimal(q.denominator)

        plus = dec(s_plus) / dec(-2 - x).sqrt()
        minus = dec(s_minus) / dec(2 - x).sqrt()
        return plus + minus, plus - minus


def _assert_f_pair_close(res, point):
    for got, want in zip((res.f_plus, res.f_minus), _f_pair_reference(*point)):
        assert abs(decimal.Decimal(got) - want) <= abs(want) * decimal.Decimal("1e-6"), point


class TestS04Exact:
    def test_component_decided_exactly_where_floats_round_wrong(self):
        # y, z ~ -1e10 while the true F+ is about 3.1e-8: in floats F+
        # comes out negative, which would reject a member
        A = ((Fraction(3), Fraction(5, 2)), (Fraction(-1), Fraction(-1, 2)))
        B = ((Fraction(7, 2), Fraction(-1)), (Fraction(-7), Fraction(16, 7)))
        C = ((Fraction(-1), Fraction(8000000000, 3)),
             (Fraction(-3, 2000000000), Fraction(3)))
        point = _s04_point(A, B, C)
        assert _exact_component_rule(*point)
        res = member_s04(CharacterS04(*point))
        assert res.residual == 0
        assert res.verdict is S04Verdict.MEMBER
        # F+- are reported as floats, and without the cancellation that
        # made the float sum for F+ come out as -7.6e-06
        assert isinstance(res.f_plus, float) and isinstance(res.f_minus, float)
        assert res.f_plus > 0
        assert res.f_plus == pytest.approx(3.1428e-8, rel=1e-4)
        _assert_f_pair_close(res, point)

    def test_report_past_the_float_range(self):
        # decided exactly, but the float report cannot hold the residual
        with pytest.raises(ValueError, match="member_s04 reports floats, but residual lies "
                                             "past the float range"):
            member_s04(CharacterS04(10**400, 2, 2, 2, -3, 3, 3))

    @pytest.mark.parametrize("k", [320, 330])
    def test_x_within_the_float_precision_of_minus_two(self, k):
        # -2 - x = 1e-k: F+ F- lies past the float range (k = 320), and
        # -2 - x rounds to 0.0 (k = 330); F+- themselves are finite
        point = (2, 2, 2, 2, -2 - Fraction(1, 10**k), 3, 3)
        res = member_s04(CharacterS04(*point))
        assert res.verdict is S04Verdict.NONMEMBER_OFF_VARIETY
        _assert_f_pair_close(res, point)

    def test_f_past_the_float_range(self):
        with pytest.raises(ValueError, match="member_s04 reports floats, but F_plus lies "
                                             "past the float range"):
            member_s04(CharacterS04(2, 2, 2, 2, -2 - Fraction(1, 10**1000), 3, 3))

    def test_opposite_signs_that_underflow_give_a_verdict(self):
        # S+ = 1e-330 and S- = -1e-330 have opposite signs, and both, like
        # the product F+ F-, round to 0.0 as floats
        eps = Fraction(1, 10**330)
        point = (2, 2, 2, 2, -3, (-16 - eps - eps / 5) / 2, (-16 - eps + eps / 5) / 2)
        assert fricke._s04_tests(*point)[3:] == (-eps, eps)
        res = member_s04(CharacterS04(*point))
        assert res.verdict is S04Verdict.NONMEMBER_OFF_VARIETY
        assert res.f_plus == 0.0 and res.f_minus == 0.0

    def test_points_from_rational_matrices_follow_exact_rule(self):
        rnd = random.Random(404)
        seen = set()
        for _ in range(3000):
            A, B, C = (np.array(from_pair(random_rational_unimodular(rnd)), dtype=object)
                       for _ in range(3))
            # conjugating C by a diagonal matrix keeps tr C and makes
            # AC and BC large, where floats lose the component sign
            scale = Fraction(10) ** rnd.randint(0, 9)
            C[0, 1] *= scale
            C[1, 0] /= scale
            point = _s04_point(as_tuple(A), as_tuple(B), as_tuple(C))
            a, b, c, d, x, _, _ = point
            if min(a, b, c, d) < 2 or x >= -2:
                continue
            res = member_s04(CharacterS04(*point))
            want = (S04Verdict.MEMBER if _exact_component_rule(*point)
                    else S04Verdict.NONMEMBER_WRONG_COMPONENT)
            assert res.verdict is want, point
            _assert_f_pair_close(res, point)
            seen.add(want)
            # a pair of Vieta moves is a Dehn twist, which keeps the Fricke space
            for pair in ("xy", "yx", "yz", "zy", "xz", "zx"):
                moved = functools.reduce(_vieta_move, pair, point)
                moved_member = member_s04(CharacterS04(*moved)).verdict is S04Verdict.MEMBER
                assert moved_member is (want is S04Verdict.MEMBER), (point, pair)
        assert seen == {S04Verdict.MEMBER, S04Verdict.NONMEMBER_WRONG_COMPONENT}


#: Each Vieta move of the s04 quartic: a coordinate's image, the other root.
_S04_MOVES = {
    "x": lambda v: v["a"] * v["b"] + v["c"] * v["d"] - v["y"] * v["z"] - v["x"],
    "y": lambda v: v["a"] * v["d"] + v["b"] * v["c"] - v["x"] * v["z"] - v["y"],
    "z": lambda v: v["a"] * v["c"] + v["b"] * v["d"] - v["x"] * v["y"] - v["z"]}


def _vieta_move(point, name):
    """The s04 ``point`` after the move of coordinate ``name``."""
    v = dict(zip(S04_VARS, point))
    v[name] = _S04_MOVES[name](v)
    return tuple(v.values())


def _vieta_moves(variables, images):
    """Each move as its one-variable substitution, the image built from
    the variables of ``variables`` by name."""
    v = {n: Polynomial.variable(variables, n) for n in variables}
    return {n: {n: image(v)} for n, image in images.items()}


class TestVietaMoves:
    """kappa and the s04 quartic are monic quadratic in each of x, y and
    z; a move sends a coordinate to the other root of its quadratic, the
    sum of the roots less itself (Goldman, Geom. Topol. 7, 2003).  Each
    move fixes its polynomial and squares to the identity, exactly."""

    @pytest.mark.parametrize("poly, moves", [
        (kappa(), _vieta_moves(F2_VARS, {
            "x": lambda v: v["y"] * v["z"] - v["x"],
            "y": lambda v: v["x"] * v["z"] - v["y"],
            "z": lambda v: v["x"] * v["y"] - v["z"]})),
        (s04_defining_poly(), _vieta_moves(S04_VARS, _S04_MOVES)),
    ], ids=["kappa", "s04"])
    def test_moves_fix_the_polynomial_and_square_to_the_identity(self, poly, moves):
        for name, move in moves.items():
            assert poly.substitute(move) == poly, name
            assert move[name].substitute(move) == Polynomial.variable(poly.variables, name)
            assert move[name] != Polynomial.variable(poly.variables, name)


class TestIdentitiesAtRationalCharacters:
    """The identities hold exactly at the characters of rational
    matrices, with every reference trace taken from a tuple product."""

    @settings(max_examples=60, deadline=None)
    @given(SL2, SL2, SL2)
    def test_s04_quartic_and_component_terms(self, A, B, C):
        point = _s04_point(A, B, C)
        a, b, c, d, x, y, z = point
        assert s04_quartic(*point) == 0
        assert s04_defining_poly().evaluate_exact(dict(zip(S04_VARS, point))) == 0
        _, kab, kcd, s_minus, s_plus = fricke._s04_tests(*point)
        assert kab == commutator_trace(A, B) - 2
        assert kcd == commutator_trace(C, inverse(product(A, B, C))) - 2
        # F+ F- = 4 k_ab k_cd / (x^2 - 4) on the variety, denominators cleared
        assert (2 - x) * s_plus**2 - (-2 - x) * s_minus**2 == 4 * kab * kcd

    @settings(max_examples=60, deadline=None)
    @given(SL2, SL2, SL2)
    def test_s12_relations(self, U, X, Y):
        point = (
            trace(product(U, X, Y)), trace(product(U, Y, X)), trace(U),
            trace(product(U, X)), trace(product(U, Y)),
            trace(X), trace(Y), trace(product(X, Y)),
        )
        assert fricke._s12_tests(*point)[:2] == (0, 0)
        assignment = dict(zip(S12_VARS, point))
        assert [p.evaluate_exact(assignment) for p in s12_relation_polys()] == [0, 0]


def _s12_character_from_matrices(U, X, Y):
    return CharacterS12(
        a=mat2.trace(U @ X @ Y).real,
        b=mat2.trace(U @ Y @ X).real,
        u=mat2.trace(U).real,
        x=mat2.trace(X).real,
        y=mat2.trace(Y).real,
        v=mat2.trace(U @ X).real,
        w=mat2.trace(U @ Y).real,
        z=mat2.trace(X @ Y).real,
    )


def _rotated_hyperbolics(length, seed=None):
    """Three hyperbolic elements with axes through i at angles 0, 60,
    120 degrees: every pair has crossing axes, so the commutator traces
    drop below -2 once the translation lengths are large enough."""
    D = np.diag([math.exp(length / 2), math.exp(-length / 2)]).astype(complex)
    out = []
    for k in range(3):
        t = k * math.pi / 3 / 2
        R = np.array(
            [[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]],
            dtype=complex,
        )
        out.append(R @ D @ mat2.adjoint(R))
    return out


class TestS12:
    def test_member_from_representation(self):
        U, X, Y = _rotated_hyperbolics(3.0)
        ch = _s12_character_from_matrices(U, X, Y)
        res = member_s12(ch)
        assert res.residuals[0] <= 1e-8 and res.residuals[1] <= 1e-8
        assert all(k < -2 for k in res.kappas)
        assert res.verdict is S12Verdict.MEMBER

    def test_off_variety_perturbation(self):
        U, X, Y = _rotated_hyperbolics(3.0)
        ch = _s12_character_from_matrices(U, X, Y)
        bad = CharacterS12(**{**ch.__dict__, "a": ch.a + 0.1})
        assert member_s12(bad).verdict is S12Verdict.NONMEMBER_OFF_VARIETY

    def test_inequalities_fail_for_short_lengths(self):
        # small translation lengths: genuine representation but the
        # commutator traces stay above -2
        U, X, Y = _rotated_hyperbolics(0.4)
        ch = _s12_character_from_matrices(U, X, Y)
        res = member_s12(ch)
        assert res.verdict is S12Verdict.NONMEMBER_INEQUALITIES
        assert res.residuals[0] <= 1e-8 and res.residuals[1] <= 1e-8

    def test_relation_polys_vanish_on_representations(self):
        rel1, rel2 = s12_relation_polys()
        for length in (1.0, 2.0, 3.5):
            U, X, Y = _rotated_hyperbolics(length)
            ch = _s12_character_from_matrices(U, X, Y)
            point = {
                "a": ch.a, "b": ch.b, "u": ch.u, "v": ch.v,
                "w": ch.w, "x": ch.x, "y": ch.y, "z": ch.z,
            }
            assert abs(rel1.evaluate(point)) <= 1e-8
            assert abs(rel2.evaluate(point)) <= 1e-8


class TestS12Exact:
    # X = diag(2, 1/2), Y = [[1, 1], [r, 1 + r]] with r = (16 + 4e-20)/9 and a
    # rational U, so that kappa(x, y, z) = -2 - 1e-20: -2.0 as a float
    POINT = tuple(map(Fraction, (
        "226675000000000000000043/4050000000000000000000",
        "217112500000000000000133/4050000000000000000000", "175/9", "5/2",
        "850000000000000000001/225000000000000000000", "661/18",
        "71762500000000000000043/2025000000000000000000",
        "1525000000000000000001/450000000000000000000",
    )))

    def test_report_past_the_float_range(self):
        # decided exactly, but the float report cannot hold the first residual
        with pytest.raises(ValueError, match=r"member_s12 reports floats, but residuals\[0\] "
                                             "lies past the float range"):
            member_s12(CharacterS12(10**400, 2, 2, 2, -3, 3, 3, 3))

    def test_inequalities_decided_exactly(self):
        ch = CharacterS12(*self.POINT)
        assert kappa_value(ch.x, ch.y, ch.z) == -2 - Fraction(1, 10**20)
        res = member_s12(ch)
        assert res.residuals == (0.0, 0.0)
        assert res.kappas[0] == -2.0
        assert res.verdict is S12Verdict.MEMBER
        floats = member_s12(CharacterS12(*map(float, self.POINT)))
        assert floats.verdict is not S12Verdict.MEMBER


def _with_trace(t, p, s):
    """A rational unimodular matrix of trace t (s != 0)."""
    return ((p, s), ((p * (t - p) - 1) / s, t - p))


def _int_sl2(b, c):
    return ((1, b), (c, 1 + b * c))


def _normal_pair(a, b, s):
    """A, B of traces a, b with AB = ((1/s, as - b), (0, s)), so that
    tr AB = s + 1/s < -2 for s < 0, s != -1."""
    return ((a, -1), (1, 0)), ((0, s), (-1 / Fraction(s), b))


def _s04_glued(a, b, c, d, s, k):
    """A point of the Fricke space: the pants (A, B, AB) and (C, D, CD) of
    the normal form, glued along CD = (AB)^-1 and twisted by (AB)^-k."""
    s = Fraction(s)
    A, B = _normal_pair(a, b, s)
    C0, _ = _normal_pair(c, d, 1 / s)  # C0 D0 = ((s, c/s - d), (0, 1/s))
    t = (b - a * s - (c / s - d)) / (1 / s - s)  # conjugates C0 D0 onto (AB)^-1
    P = product(*[inverse(product(A, B))] * k, ((1, t), (0, 1)))
    return _s04_point(A, B, product(P, C0, inverse(P)))


def _mixed(point, flags):
    """Each integral coordinate as an int or as a Fraction, by its flag."""
    return tuple((int(t) if flag else Fraction(t)) if Fraction(t).denominator == 1 else t
                 for t, flag in zip(point, flags))


def _exact_points(points, size):
    """Integral coordinates all ints, all Fractions, or mixed."""
    flags = st.one_of(st.just([True] * size), st.just([False] * size),
                      st.lists(st.booleans(), min_size=size, max_size=size))
    return st.builds(_mixed, points, flags)


#: Numerators and denominators above 2**64.
BIG = st.builds(Fraction, st.integers(-2**80, 2**80), st.integers(2**64, 2**80))
COORD = st.one_of(st.integers(-9, 9), FRACTIONS, BIG)
ENTRY = st.one_of(FRACTIONS, BIG)
#: Traces >= 2, the cusp 2 among them.
TRACE = st.one_of(st.just(2), st.fractions(min_value=2, max_value=12, max_denominator=12),
                  BIG.map(lambda q: 2 + abs(q)))
NEGATIVE = st.one_of(st.integers(-9, -2), st.fractions(max_value=0, max_denominator=12),
                     BIG.map(lambda q: -abs(q))).filter(lambda s: s not in (0, -1))
TRACED = st.builds(_with_trace, TRACE, ENTRY, ENTRY.filter(bool))
INT_SL2 = st.builds(_int_sl2, st.integers(-6, 6), st.integers(-6, 6))
TINY = Fraction(1, 10**20)


def _in_range(point):
    a, b, c, d, x, y, z = point
    return (*(2 + abs(t) for t in (a, b, c, d)), -2 - abs(x), y, z)


def _x_near_minus_two(point, sign):
    return point[:4] + (-2 + sign * TINY,) + point[5:]


def _s_plus_zero(point):
    a, b, c, d, x, y, _ = point
    return point if x == -2 else point[:6] + (Fraction((a + b) * (c + d)) / (2 + x) - y,)


S04_MEMBERS = st.builds(_s04_glued, TRACE, TRACE, TRACE, TRACE, NEGATIVE, st.integers(0, 3))
S04_ON_VARIETY = st.one_of(
    st.builds(_s04_point, SL2, SL2, SL2),
    st.builds(_s04_point, *[INT_SL2] * 3),
    S04_MEMBERS,
    # the normal-form pair and a third matrix: mostly the wrong component
    st.builds(lambda a, b, s, C: _s04_point(*_normal_pair(a, b, s), C),
              TRACE, TRACE, NEGATIVE, TRACED).filter(lambda p: p[3] >= 2),
    COORD.map(lambda t: (2, 2, 2, 2, -2 - abs(t), 2, 4 + 2 + abs(t))),
)
FREE = st.one_of(st.tuples(*[COORD] * 7), st.tuples(*[st.integers(-9, 9)] * 7))
S04_POINTS = _exact_points(st.one_of(
    S04_MEMBERS,
    S04_ON_VARIETY,
    FREE,
    FREE.map(_in_range),
    st.builds(_x_near_minus_two, S04_ON_VARIETY, st.sampled_from((1, -1))),
    FREE.map(_in_range).map(_s_plus_zero),
), 7)


def _s12_point(U, X, Y):
    """(a, b, u, v, w, x, y, z), in ``S12_VARS`` order, of a representation."""
    return (trace(product(U, X, Y)), trace(product(U, Y, X)), trace(U),
            trace(product(U, X)), trace(product(U, Y)), trace(X), trace(Y), trace(product(X, Y)))


def _rotated(lam, t):
    """diag(lam, 1/lam) conjugated by the rational rotation with
    tan(theta/2) = t, which turns its axis by 2 theta about i."""
    t = Fraction(t)
    c, s = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
    return product(((c, s), (-s, c)), ((lam, 0), (0, 1 / Fraction(lam))), ((c, -s), (s, c)))


def _spread(l1, l2, l3, t):
    """Axes about 60 degrees apart (tan 15 ~ 4/15, tan 30 ~ 4/7), as in
    ``_rotated_hyperbolics``: members once the lengths are large."""
    return _s12_point(_rotated(l1, t), _rotated(l2, t + Fraction(4, 15)),
                      _rotated(l3, t + Fraction(4, 7)))


def _nudged(point, i, sign):
    return point[:i] + (point[i] + sign * TINY,) + point[i + 1:]


S12_MEMBERS = st.builds(_spread, *[TRACE.map(lambda t: 2 * t)] * 3,
                        st.one_of(st.just(0), BIG.map(lambda q: q / (2**20 + abs(q)))))
S12_ON_VARIETY = st.one_of(
    st.builds(_s12_point, SL2, SL2, SL2),
    st.builds(_s12_point, *[INT_SL2] * 3),
    S12_MEMBERS,
)
S12_POINTS = _exact_points(st.one_of(
    S12_MEMBERS,
    S12_ON_VARIETY,
    st.builds(_nudged, S12_ON_VARIETY, st.integers(0, 7), st.sampled_from((1, -1))),
    st.tuples(*[COORD] * 8),
    st.tuples(*[st.integers(-9, 9)] * 8),
), 8)


def _s04_reference(point):
    """Every field of ``member_s04`` at an exact point, from the public
    hand formulas in Fraction arithmetic."""
    a, b, c, d, x, y, z = point = tuple(map(Fraction, point))
    residual = s04_quartic(*point)
    kab, kcd = kappa_value(a, b, x) - 2, kappa_value(c, d, x) - 2
    s_minus = (y - z) * (2 - x) + (a - b) * (c - d)
    s_plus = (y + z) * (2 + x) - (a + b) * (c + d)
    floats = [abs(float(residual)), *map(float, (kab, kcd, s_minus, s_plus))]
    cusps = tuple(n for n, t in zip("abcd", (a, b, c, d)) if t == 2)
    if not (min(a, b, c, d) >= 2 and x < -2):
        return S04Verdict.NONMEMBER_RANGE, floats + [None, None], cusps
    plus = float(s_plus) / math.sqrt(float(-2 - x))
    minus = float(s_minus) / math.sqrt(float(2 - x))
    f_plus, f_minus = plus + minus, plus - minus
    product_ = float(s_plus**2 / (-2 - x) - s_minus**2 / (2 - x))  # F+ F-
    if s_plus * s_minus >= 0:  # |F+| >= |F-|: F- from the product
        f_minus = product_ / f_plus if f_plus else f_minus
    else:
        f_plus = product_ / f_minus if f_minus else f_plus
    if residual != 0:
        verdict = S04Verdict.NONMEMBER_OFF_VARIETY
    elif _exact_component_rule(*point):
        verdict = S04Verdict.MEMBER
    else:
        verdict = S04Verdict.NONMEMBER_WRONG_COMPONENT
    return verdict, floats + [f_plus, f_minus], cusps


def _value_at(p, point):
    """A polynomial at a rational point, term by term in Fractions."""
    return sum(c * math.prod(t**k for t, k in zip(point, e)) for e, c in p.terms())


def _s12_reference(point):
    """The verdict and the reported floats of ``member_s12`` at an exact
    point in ``S12_VARS`` order, in Fraction arithmetic."""
    a, b, u, v, w, x, y, z = point = tuple(map(Fraction, point))
    rels = [_value_at(p, point) for p in s12_relation_polys()]
    ks = (kappa_value(x, y, z), kappa_value(y, u, w), kappa_value(u, x, v))
    if any(rels):
        verdict = S12Verdict.NONMEMBER_OFF_VARIETY
    elif all(k < -2 for k in ks):
        verdict = S12Verdict.MEMBER
    else:
        verdict = S12Verdict.NONMEMBER_INEQUALITIES
    return verdict, [abs(float(r)) for r in rels], [float(k) for k in ks]


class TestExactPredicatesMatchFractionReference:
    """Exact input is decided on integer numerators; every field must be
    what Fraction arithmetic on the hand formulas gives, to the last bit."""

    @settings(max_examples=300, deadline=None)
    @given(S04_POINTS)
    def test_s04(self, point):
        res = member_s04(CharacterS04(*point))
        verdict, floats, cusps = _s04_reference(point)
        assert res.verdict is verdict
        got = (res.residual, res.kappa_ab, res.kappa_cd, res.s_minus, res.s_plus,
               res.f_plus, res.f_minus)
        assert list(map(repr, got)) == list(map(repr, floats))
        assert res.cusps == cusps

    @settings(max_examples=300, deadline=None)
    @given(S12_POINTS)
    def test_s12(self, point):
        res = member_s12(CharacterS12(**dict(zip(S12_VARS, point))))
        verdict, residuals, kappas = _s12_reference(point)
        assert res.verdict is verdict
        assert list(map(repr, res.residuals)) == list(map(repr, residuals))
        assert list(map(repr, res.kappas)) == list(map(repr, kappas))


class TestFenchelNielsen:
    def test_x_is_length_trace(self):
        for _ in range(50):
            l = RND.uniform(0.1, 5)
            res = fn_to_traces(FNCoords(l=l, tau=RND.uniform(-4, 4), b=RND.uniform(0, 4)))
            assert res.x == 2 * math.cosh(l / 2)

    def test_cusped_example(self):
        res = fn_to_traces(FNCoords(l=2 * math.acosh(1.5), tau=0.0, b=0.0))
        assert res.x == pytest.approx(3, abs=1e-12)
        assert res.kappa == pytest.approx(-2, abs=1e-12)

    def test_boundary_constraint(self):
        for _ in range(100):
            coords = FNCoords(
                l=RND.uniform(0.1, 5), tau=RND.uniform(-4, 4), b=RND.uniform(0, 4)
            )
            res = fn_to_traces(coords)
            assert abs(res.kappa + 2 * math.cosh(coords.b / 2)) <= 1e-9
            assert member_s11(*res.traces()).verdict is S11Verdict.MEMBER_SLICE

    def test_twist_shift_pattern(self):
        l, b = 1.7, 0.9
        tau = 0.6
        res1 = fn_to_traces(FNCoords(l=l, tau=tau, b=b))
        res2 = fn_to_traces(FNCoords(l=l, tau=tau - l, b=b))
        # y carries cosh(tau/2), z carries cosh((tau+l)/2)
        assert res2.z == pytest.approx(res1.y, rel=1e-12)

    def test_uncorrected_closed_form_misses_y(self):
        # y = 2 sqrt(1 + csch^2(l/2) cosh^2(b/4)) cosh(tau/2) holds; the
        # uncorrected 2 sqrt(1 - 4 sinh^2(b/4)/sinh^2(l/2)) cosh(tau/2) does not
        l, tau, b = 2.0, 0.5, 1.0
        res = fn_to_traces(FNCoords(l=l, tau=tau, b=b))
        assert res.metadata["closed_form_y_matches"]
        uncorrected = 2 * math.sqrt(1 - 4 * math.sinh(b / 4) ** 2 / math.sinh(l / 2) ** 2)
        assert abs(uncorrected * math.cosh(tau / 2) - res.y) > 0.1 * res.y

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            FNCoords(l=0, tau=0)
        with pytest.raises(ValueError):
            FNCoords(l=1, tau=0, b=-1)

    @settings(max_examples=400, deadline=None)
    @given(st.floats(min_value=0, max_value=1e300, exclude_min=True),
           st.floats(min_value=-1e300, max_value=1e300),
           st.floats(min_value=0, max_value=1e300))
    def test_a_slice_point_or_value_error(self, l, tau, b):
        # float cancellation (l from about 15) and overflow end in ValueError
        try:
            res = fn_to_traces(FNCoords(l=l, tau=tau, b=b))
        except ValueError:
            return
        x, y, z = res.traces()
        assert abs(res.kappa - res.boundary_trace) <= 1e-9 * (1 + abs(res.kappa))
        assert min(x, y, z) > 2
        assert member_s11(x, y, z).verdict is S11Verdict.MEMBER_SLICE or res.kappa <= -2 + 1e-9

    @pytest.mark.parametrize("coords, named", [  # the CLI tests take large l, tau and b
        (FNCoords(l=1, tau=-1e300), "tau = -1e+300"),  # exp(-tau/2) overflows
        (FNCoords(l=1e-200, tau=0), "l = 1e-200, b = 0.0"),  # sinh(l/2)^2 underflows
    ])
    def test_overflow_names_the_argument(self, coords, named):
        with pytest.raises(ValueError) as exc:
            fn_to_traces(coords)
        assert str(exc.value) == f"Fenchel-Nielsen coordinates out of float range at {named}"

    @staticmethod
    def matrix_traces(l, tau, mu):
        """tr rho(X), tr rho(Y), tr rho(XY) as numpy products of the matrices."""
        X = np.diag([math.exp(l / 2), math.exp(-l / 2)]).astype(complex)
        ch, sh = math.cosh(mu / 2), math.sinh(mu / 2)  # mu / 2 is the half-translation exactly
        Y = np.array([[ch, sh], [sh, ch]], dtype=complex) @ np.diag(
            [math.exp(tau / 2), math.exp(-tau / 2)]).astype(complex)
        return tuple(float(mat2.trace(m).real) for m in (X, Y, X @ Y))

    def test_float_traces_match_matrix_products(self):
        rnd = random.Random(22)
        grid = [(l, tau, b) for l in (0.1, 0.7, 1, 2.5, 5, 10) for tau in (-4, -0.3, 0, 1.1, 6)
                for b in (0, 1e-8, 0.5, 3)]
        seeded = [(rnd.uniform(0.05, 5), rnd.uniform(-4, 4), rnd.uniform(0, 4)) for _ in range(500)]
        for l, tau, b in grid + seeded:
            res = fn_to_traces(FNCoords(l=l, tau=tau, b=b))
            assert res.traces() == self.matrix_traces(l, tau, res.metadata["mu"]), (l, tau, b)

    @pytest.mark.parametrize("l, tau, b", [
        (Fraction(1, 7), 0, 0), (1, Fraction(2, 3), Fraction(1, 5)), (Fraction(20, 7), -3, 2),
        (5, Fraction(5, 3), 4), (Fraction(3, 7), Fraction(-1, 3), 0), (1, 0, 0), (2, -3, 1),
    ])
    def test_exact_input_traces_match_matrix_products(self, l, tau, b):
        res = fn_to_traces(FNCoords(l=l, tau=tau, b=b))
        assert res.traces() == self.matrix_traces(l, tau, res.metadata["mu"])


class TestPantsCurves:
    def test_values(self):
        assert pants_curve_count(1, 1) == 1
        assert pants_curve_count(0, 4) == 1
        assert pants_curve_count(2, 0) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pants_curve_count(-1, 2)
