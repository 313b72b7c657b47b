import cmath
import math
import random
import re
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from slchar import mat2
from slchar.chars import (
    CharacterF2,
    CharacterF3,
    IrreducibilityReport,
    RealCharClass,
    axes_cross,
    character_of_pair,
    character_of_triple,
    classify_real_character,
    construct_triple,
    hermitian_invariant_form,
    irreducibility_witnesses,
    is_irreducible,
    triple_trace_roots,
)
from slchar.mat2 import GeometryError, normal_form_pair
from slchar.polyring import F3_VARS, PHI, kappa_value
from slchar.sampling import random_rational_unimodular, random_unimodular, rng_for
from slchar.mat2 import _mul, coordinate_traces, evaluate_at_character
from slchar.words import parse_word
from tuple2x2 import from_pair, matmul, trace

RND = random.Random(30)


class TestCharacterOfPair:
    def test_round_trip(self):
        c = character_of_pair(*normal_form_pair(1, 2, 3))
        assert abs(c.x - 1) < 1e-12 and abs(c.y - 2) < 1e-12 and abs(c.z - 3) < 1e-12

    def test_identity_pair(self):
        c = character_of_pair(mat2.I2, mat2.I2)
        assert c.as_tuple() == (2, 2, 2)

    def test_conjugation_invariance(self):
        for _ in range(100):
            xi, eta = random_unimodular(RND), random_unimodular(RND)
            g = random_unimodular(RND)
            gi = mat2.adjoint(g)
            c1 = character_of_pair(xi, eta)
            c2 = character_of_pair(g @ xi @ gi, g @ eta @ gi)
            for a, b in zip(c1.as_tuple(), c2.as_tuple()):
                assert abs(a - b) <= 1e-10 * (1 + abs(a))

    def test_random_round_trip(self):
        for _ in range(300):
            x, y, z = (
                complex(RND.uniform(-3, 3), RND.uniform(-3, 3)) for _ in range(3)
            )
            c = character_of_pair(*normal_form_pair(x, y, z))
            assert abs(c.x - x) <= 1e-10
            assert abs(c.y - y) <= 1e-10
            assert abs(c.z - z) <= 1e-10


class TestIrreducibility:
    def test_reducible_character(self):
        assert not is_irreducible(CharacterF2(2, 2, 2))

    def test_quaternion_character(self):
        assert is_irreducible(CharacterF2(0, 0, 0))

    def test_float_input_uses_tolerance(self):
        # kappa(3, 3, 7) = 2; the float point lies about 5e-13 off it
        assert not is_irreducible(CharacterF2(3.0, 3.0, 7.0 + 1e-13))
        assert not is_irreducible(CharacterF2(3 + 0j, 3 + 0j, 7.0 + 1e-13 + 0j))
        assert is_irreducible(CharacterF2(Fraction(3), Fraction(3), 7 + Fraction(1, 10**13)))
        assert not is_irreducible(CharacterF2(Fraction(3), Fraction(3), Fraction(7)))

    def test_modulus_beyond_the_float_range(self):
        # kappa is finite, but |kappa - 2| leaves the float range: irreducible
        c = CharacterF2(-1.0161487477133847e+134, -2.1623109034270505e+123,
                        7.483025421959379e+50 - 8.012300058726012e+50j)
        assert cmath.isfinite(c.kappa())
        assert is_irreducible(c)
        big = 1.5e308 + 1.5e308j
        triple = CharacterF3(0, 0, 0, 0, 0, 0, big, 0)
        assert triple.sum_product_residuals() == (math.inf, 4)
        assert not triple.is_valid()
        report = IrreducibilityReport(kappa=big, commutator_trace=big, lie_determinant=2 - big,
                                      basis_determinant=2 - big, irreducible=True)
        assert report.witnesses_agree()
        # the tolerance, 1e-8 (1 + |kappa|), is about 2.1e300 here
        assert replace(report, commutator_trace=big - 1e300).witnesses_agree()
        assert not replace(report, commutator_trace=big - 1e301).witnesses_agree()
        assert not replace(report, basis_determinant=big).witnesses_agree()

    def test_upper_triangular_witnesses(self):
        xi = mat2.mat2(2, 1, 0, 0.5)
        eta = mat2.mat2(3, -1, 0, 1 / 3)
        report = irreducibility_witnesses(xi, eta)
        assert not report.irreducible
        assert abs(report.lie_determinant) <= 1e-9
        assert abs(report.basis_determinant) <= 1e-9
        assert report.witnesses_agree()

    def test_witnesses_agree_random(self):
        for _ in range(100):
            xi, eta = random_unimodular(RND), random_unimodular(RND)
            report = irreducibility_witnesses(xi, eta)
            assert report.witnesses_agree()

    def test_equal_characters_equal_traces(self):
        # computable surrogate of injectivity: equal irreducible
        # characters give equal trace polynomials on sample words
        for _ in range(20):
            x, y, z = (
                complex(RND.uniform(-2, 2), RND.uniform(-2, 2)) for _ in range(3)
            )
            if not is_irreducible(CharacterF2(x, y, z)):
                continue
            p1 = normal_form_pair(x, y, z)
            g = random_unimodular(RND)
            p2 = (g @ p1[0] @ mat2.adjoint(g), g @ p1[1] @ mat2.adjoint(g))
            from slchar.sampling import random_reduced_word

            for _ in range(20):
                w = random_reduced_word(RND, 2, 8)
                t1 = mat2.trace(mat2.evaluate_word(w, p1))
                t2 = mat2.trace(mat2.evaluate_word(w, p2))
                assert abs(t1 - t2) <= 1e-8 * (1 + abs(t1))


class TestClassifyReal:
    def test_su2(self):
        assert classify_real_character(1, 1, 1) is RealCharClass.SU2_FIXED_POINT

    def test_sl2r(self):
        assert classify_real_character(3, 3, 3) is RealCharClass.SL2R_PLANE

    def test_quaternion(self):
        assert classify_real_character(0, 0, 0) is RealCharClass.SU2_FIXED_POINT

    def test_so2(self):
        # kappa(1, 1, 1.2599...) == 2 inside the cube: reducible elliptic pair
        x = y = 1.0
        z = (x * y + np.sqrt(x * x * y * y - 4 * (x * x + y * y - 4))) / 2
        assert classify_real_character(x, y, z) is RealCharClass.REDUCIBLE_SO2

    def test_so11(self):
        x = y = 3.0
        z = (x * y + np.sqrt(x * x * y * y - 4 * (x * x + y * y - 4))) / 2
        assert classify_real_character(x, y, z) is RealCharClass.REDUCIBLE_SO11

    def test_boundary_undetermined(self):
        assert (
            classify_real_character(2, 2, 2)
            is RealCharClass.REDUCIBLE_UNDETERMINED
        )

    def test_hermitian_form_definite_iff_su2(self):
        for _ in range(200):
            x, y, z = (RND.uniform(-1.99, 1.99) for _ in range(3))
            k = x * x + y * y + z * z - x * y * z - 2
            if abs(k - 2) < 1e-6:
                continue
            H = hermitian_invariant_form(x, y, z)
            assert abs(np.linalg.det(H).real - (2 - k)) <= 1e-10
            if classify_real_character(x, y, z) is RealCharClass.SU2_FIXED_POINT:
                assert np.linalg.det(H).real > 0

    def test_hermitian_form_is_invariant(self):
        for _ in range(100):
            x, y, z = (RND.uniform(-1.99, 1.99) for _ in range(3))
            H = hermitian_invariant_form(x, y, z)
            xi, eta = normal_form_pair(x, y, z)
            assert np.abs(np.conj(xi.T) @ H @ xi - H).max() <= 1e-9
            assert np.abs(np.conj(eta.T) @ H @ eta - H).max() <= 1e-9


class TestAxesCross:
    def test_symmetric_slice_point(self):
        assert axes_cross(3, 3, 3)

    def test_larger(self):
        assert axes_cross(5, 5, 5)  # kappa = -52

    def test_quaternion_excluded(self):
        with pytest.raises(GeometryError):
            axes_cross(0, 0, 0)

    def test_domain_violation(self):
        with pytest.raises(GeometryError):
            axes_cross(1, 1, 1)  # kappa = 0 > -2

    def test_exact_traces_past_the_float_range(self):
        for name, point in (("x", (Fraction(10**400), 3, 3)), ("y", (3, -10**400, 3))):
            with pytest.raises(GeometryError,
                               match=f"axes_cross needs finite traces, got {name} past"):
                axes_cross(*point)

    @pytest.mark.parametrize("point", [
        (4575261.631960612, 2.004335101334511, 4509978.176695907),  # exact kappa about -8.5e10
        (1e17, 2e17, 3e17),
        (1e200, 1e200, 1e200),  # kappa reads inf - inf = NaN in floats, exactly about -1e600
    ])
    def test_axes_cross_on_the_whole_domain(self, point):
        # far from the slice, where a Lie product of real matrices rounds badly
        assert axes_cross(*point) is True

    def test_kappa_that_overflows_is_decided_exactly(self):
        # kappa reads inf - inf = NaN in floats; exactly it is 1e400 - 1 > -2
        with pytest.raises(GeometryError,
                           match="axes_cross requires kappa <= -2, got one past the float range"):
            axes_cross(1e200, 1e200, 1)

    def test_orbit_patterns(self):
        # sign-flipped images of the slice still have crossing axes
        for _ in range(50):
            x = RND.uniform(2.5, 6)
            y = RND.uniform(2.5, 6)
            k = x * x + y * y - 4
            lo = (x * y - np.sqrt(max(x * x * y * y - 4 * (x * x + y * y), 0))) / 2
            hi = (x * y + np.sqrt(max(x * x * y * y - 4 * (x * x + y * y), 0))) / 2
            if lo >= hi:
                continue
            z = RND.uniform(lo, hi)
            if x * x + y * y + z * z - x * y * z > 0:
                continue
            assert axes_cross(x, y, z)
            assert axes_cross(x, -y, -z)
            assert axes_cross(-x, -y, z)


class TestTripleTraceRoots:
    def test_trivial_character(self):
        r1, r2 = triple_trace_roots(2, 2, 2, 2, 2, 2)
        assert abs(r1 - 2) < 1e-12 and abs(r2 - 2) < 1e-12

    def test_roots_contain_actual_triple_traces(self):
        for _ in range(100):
            ms = [random_unimodular(RND) for _ in range(3)]
            c = character_of_triple(*ms)
            roots = triple_trace_roots(c.t1, c.t2, c.t3, c.t12, c.t13, c.t23)
            assert min(abs(c.t123 - r) for r in roots) <= 1e-8 * (1 + abs(c.t123))
            assert min(abs(c.t132 - r) for r in roots) <= 1e-8 * (1 + abs(c.t132))

    def test_branch_ordering(self):
        r1, r2 = triple_trace_roots(0, 0, 5, 0, 7, 7)
        assert (r1.real, r1.imag) >= (r2.real, r2.imag)

    def test_exact_traces_round_f_sigma_once(self):
        # f_Sigma = 68/15 and the discriminant is negative: the real part
        # is the float of f_Sigma / 2
        r1, r2 = triple_trace_roots(Fraction(33, 10), 3, 4, Fraction(7, 3), 5, 6)
        assert r1.real == r2.real == 2.2666666666666666 == float(Fraction(34, 15))

    @pytest.mark.parametrize("t2, name", [(3, "discriminant"), (10**200, "f_Sigma")])
    def test_exact_values_past_the_float_range(self, t2, name):
        with pytest.raises(GeometryError, match=f"got {name} past the float range"):
            triple_trace_roots(10**200, t2, 3, 3, 3, 3)

    @pytest.mark.parametrize("t1, t2, name", [
        (1e160, 3.0, "discriminant"), (1e160j, 3.0, "discriminant"),
        (1e200, 1e200, "f_Sigma"), (complex(1e200, 1e200), 1e200, "f_Sigma")])
    def test_float_values_past_the_float_range(self, t1, t2, name):
        # as for exact traces, where the roots read (nan+nanj) before
        with pytest.raises(GeometryError, match=f"got {name} past the float range"):
            triple_trace_roots(t1, t2, 3.0, 3.0, 3.0, 3.0)

    @pytest.mark.parametrize("traces, named", [
        ((math.inf, 3.0, 3.0, 3.0, 3.0, 3.0), "t1 = inf"),
        ((3.0, 3.0, 3.0, math.nan, 3.0, 3.0), "t12 = nan"),
        ((3, Fraction(1, 3), 3, 3, 3, complex(1, -math.inf)), "t23 = (1-infj)")])
    def test_non_finite_traces_are_named(self, traces, named):
        # as hexagon_certificate does, where the roots read (nan+nanj) before
        with pytest.raises(GeometryError, match=re.escape(f"needs finite traces, got {named}")):
            triple_trace_roots(*traces)

    def test_construct_triple_with_an_infinite_trace_is_degenerate(self):
        # refused by name at the intake
        with pytest.raises(GeometryError, match="needs finite traces, got t3 = inf"):
            construct_triple(3.0, 3.0, math.inf, 3.0, 3.0, 3.0)


class TestConstructTriple:
    def test_trivial(self):
        tri = construct_triple(2, 2, 2, 2, 2, 2, "+")
        c = character_of_triple(*tri)
        for v in c.as_tuple():
            assert abs(v - 2) <= 1e-8

    def test_random_irreducible(self):
        for _ in range(200):
            t = [complex(RND.uniform(-3, 3), RND.uniform(-3, 3)) for _ in range(6)]
            t1, t2, t3, t12, t23, t13 = t
            tri = construct_triple(t1, t2, t3, t12, t23, t13, "+")
            for m in tri:
                assert abs(mat2.det(m) - 1) <= 1e-8
            c = character_of_triple(*tri)
            got = (c.t1, c.t2, c.t3, c.t12, c.t23, c.t13)
            for g, w in zip(got, (t1, t2, t3, t12, t23, t13)):
                assert abs(g - w) <= 1e-8 * (1 + abs(w))
            # the character satisfies the hypersurface relation
            phi_val = evaluate_at_character(PHI, tri)
            assert abs(phi_val) <= 1e-7 * (1 + abs(c.t123) ** 2)

    def test_branch_selection(self):
        for _ in range(100):
            t = [complex(RND.uniform(-2, 2), RND.uniform(-2, 2)) for _ in range(6)]
            t1, t2, t3, t12, t23, t13 = t
            k = t1 * t1 + t2 * t2 + t12 * t12 - t1 * t2 * t12 - 2
            if abs(k - 2) < 1e-3:
                continue
            roots = triple_trace_roots(t1, t2, t3, t12, t13, t23)
            for branch, want in zip("+-", roots):
                tri = construct_triple(t1, t2, t3, t12, t23, t13, branch)
                got = mat2.trace(tri[0] @ tri[1] @ tri[2])
                assert abs(got - want) <= 1e-7 * (1 + abs(want))

    def test_reducible_case(self):
        tri = construct_triple(2, 2, 5, 2, 7, 7, "+")
        c = character_of_triple(*tri)
        want = (2, 2, 5, 2, 7, 7)
        got = (c.t1, c.t2, c.t3, c.t12, c.t23, c.t13)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-8

    def test_reducible_minus_pattern(self):
        # t12 on the a1/a2 branch: t1 = 3, t2 = 3, t12 = 2 gives kappa = 2
        a = (3 + np.sqrt(5)) / 2
        t12 = a / a + a / a  # = 2: the mixed eigenvalue pattern
        tri = construct_triple(3, 3, 1, t12, 4, -2, "+")
        c = character_of_triple(*tri)
        got = (c.t1, c.t2, c.t3, c.t12, c.t23, c.t13)
        for g, w in zip(got, (3, 3, 1, 2, 4, -2)):
            assert abs(g - w) <= 1e-8

    def test_reducible_large_negative_eigenvalue_sum(self):
        # t2 = 2 and t12 = t1 make the base pair reducible; the eigenvalue
        # a1 of xi1 (a1 + 1/a1 = t1) must not cancel for t1 < 0
        t1 = -1e4
        tri = construct_triple(t1, 2, 3, t1, 4, 5, "+")
        assert abs(mat2.trace(tri[0]) - t1) <= 1e-12 * abs(t1)

    def test_invalid_branch(self):
        with pytest.raises(ValueError):
            construct_triple(1, 2, 3, 4, 5, 6, "plus")

    @pytest.mark.parametrize("traces", [
        (1e300, 2, 2, 2, 2, 2),
        (3, 0, 0, 1e-300, -1e154, 0),
        (3, 3, 3, 1e300, 1e300, 1e300),
        # kappa(t1, t2, t12) = inf - inf is NaN, which must not read as
        # reducible (that branch built a finite triple with t12 = 2)
        (1e154,) * 6,
    ])
    def test_non_finite_triple_is_refused_without_warnings(self, traces):
        # the determinant quadratic overflows to NaN; no RuntimeWarning
        # may escape on the way to the error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match="degenerate branch value"):
                construct_triple(*traces)


    def test_triple_that_misses_its_traces_is_refused(self):
        # t13 = 1e43 beside O(1) traces: xi3 has entries near 1e43, which
        # its trace must cancel down to t3 = -0.98; the floats cannot
        with pytest.raises(GeometryError, match="misses the prescribed t3"):
            construct_triple(-1.727585853128668, 0.44225414182184153, -0.9822634553665281,
                             1.353820935630572, 18.540068704306236, 1e43)
        # 1e80 beside O(1) traces: f_Sigma^2 overflows, so the branch root
        # t123 is not finite and no triple is built
        with pytest.raises(GeometryError, match="degenerate branch value"):
            construct_triple(1e80, 3, 1e80, 2, 1e80, 5)

    @pytest.mark.parametrize("scale", [1e2, 1e3])
    def test_large_random_traces_are_realized(self, scale):
        rnd = random.Random(int(scale))
        for _ in range(200):
            t = [scale * complex(rnd.uniform(-1, 1), rnd.uniform(-1, 1)) for _ in range(6)]
            c = character_of_triple(*construct_triple(*t))
            got = (c.t1, c.t2, c.t3, c.t12, c.t23, c.t13)
            assert all(abs(g - w) <= 1e-6 * (1 + abs(w)) for g, w in zip(got, t))


def _traces(part):
    """Six traces, each real or complex with parts drawn from ``part``,
    +-2 and 0 included."""
    part = st.one_of(st.sampled_from([2.0, -2.0, 0.0]), part)
    return st.lists(st.one_of(part, st.builds(complex, part, part)), min_size=6, max_size=6)


#: Magnitudes 1e5 to 1e150 of either sign.
_EXTREME = st.builds(lambda sign, exponent: sign * 10.0 ** exponent,
                     st.sampled_from([1, -1]), st.floats(5, 150))


def _term_scale(six, branch):
    """The largest entry of xi1, xi2 times the largest entry of xi3, with
    xi3 from numpy's solve of the trace equations tr(B xi3) = t3, t13,
    t23, t123 for B = I, xi1, xi2, xi1 xi2: the size of the terms that
    a realized trace sums."""
    t1, t2, t3, t12, t23, t13 = six
    xi1, xi2 = normal_form_pair(t1, t2, t12)
    t123 = triple_trace_roots(t1, t2, t3, t12, t13, t23)["+-".index(branch)]
    rows = [[b[0, 0], b[1, 0], b[0, 1], b[1, 1]] for b in (mat2.I2, xi1, xi2, xi1 @ xi2)]
    xi3 = np.linalg.solve(np.array(rows), np.array([t3, t13, t23, t123]))
    return max(1, np.abs(xi1).max(), np.abs(xi2).max()) * np.abs(xi3).max()


class TestConstructTripleProperties:
    @settings(max_examples=300, deadline=None)
    @given(_traces(st.floats(-1e3, 1e3)), st.sampled_from("+-"))
    # two points that the solve without its refinement step refuses
    @example([-613.6573751733412, -2.0, -837.4963748210839, 617.9878802065455,
              208.0905820357509, -323.5569879435476 + 782.499823216099j], "+")
    @example([0.0, -662.0, 307.0, 662j, 2.0, 0.0], "+")
    def test_moderate_traces_are_realized(self, traces, branch):
        t1, t2, t3, t12, t23, t13 = six = [complex(t) for t in traces]
        irreducible = is_irreducible(CharacterF2(t1, t2, t12))
        try:
            tri = construct_triple(*traces, branch)
        except GeometryError as exc:
            name = str(exc).rsplit(" ", 1)[-1]
            if irreducible:
                # only where the terms summing to the missed trace are so
                # large that rounding them alone misses it
                t = six[("t1", "t2", "t3", "t12", "t23", "t13").index(name)]
                assert 10 * 2**-52 * _term_scale(six, branch) >= 1e-6 * (1 + abs(t)), exc
            else:
                # within IRREDUCIBILITY_TOL of kappa = 2 but off it, as at
                # (2, 1e-5, 0): the upper-triangular pair may miss t12
                assert kappa_value(t1, t2, t12) != 2 and name == "t12", exc
            return
        m1, m2, m3 = (tuple(m.ravel()) for m in tri)
        realized = (m1, m2, m3, _mul(m1, m2), _mul(m2, m3), _mul(m1, m3))
        for m, t in zip(realized, six):
            assert abs(m[0] + m[3] - t) <= 1e-6 * (1 + abs(t))
        if irreducible:
            want = triple_trace_roots(t1, t2, t3, t12, t13, t23)["+-".index(branch)]
            got = mat2.trace(tri[0] @ tri[1] @ tri[2])
            assert abs(got - want) <= 1e-6 * (1 + abs(want))

    @settings(max_examples=300, deadline=None)
    @given(_traces(st.one_of(st.floats(-10, 10), _EXTREME)), st.sampled_from("+-"))
    # kappa(t1, t2, t12) rounds to -2, but the 2x2 determinant to exactly 0
    @example([2.627485498975235e+35j, 0.0, 1.0, -2.627485498975235e+35, 1.0, 1.0], "+")
    # a finite kappa(t1, t2, t12) whose modulus abs() cannot return
    @example([-1.0161487477133847e+134, -2.1623109034270505e+123,
              1.411075327685987 - 76707020551.98409j, 7.483025421959379e+50 - 8.012300058726012e+50j,
              8.798131358364261e+35 + 1.1909159945612767e+58j, -8.932589100141898], "+")
    def test_extreme_traces_fail_only_as_geometry_errors(self, traces, branch):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                construct_triple(*traces, branch)
            except GeometryError:
                pass


class TestCharacterOfTriple:
    def test_invariants_hold(self):
        for _ in range(100):
            ms = [random_unimodular(RND) for _ in range(3)]
            c = character_of_triple(*ms)
            r1, r2 = c.sum_product_residuals()
            bound = 1e-9 * (1 + max(abs(v) for v in c.as_tuple()) ** 3)
            assert r1 <= bound and r2 <= bound

    def test_identity_triple(self):
        c = character_of_triple(mat2.I2, mat2.I2, mat2.I2)
        assert c.as_tuple() == (2,) * 8

    def test_stacked_triples_bit_for_bit(self):
        # numpy matrices give each triple the bits of its 4-tuples, and those
        # are the textbook products of tuple2x2.matmul, t132 = tr((m1 m3) m2)
        rnd = random.Random(2860)
        stack = np.array([[random_unimodular(rnd) for _ in range(3)] for _ in range(200)])
        for as_numpy in stack:
            trial = [tuple(m.ravel().tolist()) for m in as_numpy]
            c = character_of_triple(*as_numpy)
            assert _bits(c) == _bits(character_of_triple(*trial))
            m1, m2, m3 = ((m[:2], m[2:]) for m in trial)
            m12, m13 = matmul(m1, m2), matmul(m1, m3)
            want = [trace(m) for m in (m1, m2, m3, m12, m13, matmul(m2, m3),
                                       matmul(m12, m3), matmul(m13, m2))]
            assert _bits(c) == [(complex(v).real.hex(), complex(v).imag.hex()) for v in want]

    def test_exact_pairs_give_fractions(self):
        # the denominators 12, 1, 12 must divide the traces of the numerators:
        # tr N1 = 6, where t1 = 1/2
        rnd = rng_for(5)
        triple = [random_rational_unimodular(rnd) for _ in range(3)]
        assert [d for _, d in triple] == [12, 1, 12]
        c = character_of_triple(*triple)
        assert all(type(v) is Fraction for v in c.as_tuple())
        assert c.t1 == Fraction(1, 2)
        assert c.as_tuple()[:7] == tuple(coordinate_traces(F3_VARS, triple).values())
        m1, m2, m3 = map(from_pair, triple)
        assert c.t132 == trace(matmul(matmul(m1, m3), m2))
        assert c.sum_product_residuals() == (0, 0)


def _bits(c):
    """The bits of the parts of a character's eight traces."""
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in c.as_tuple()]
