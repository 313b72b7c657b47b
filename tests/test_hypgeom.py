import json
import math
import random
import sys
import types
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from slchar import mat2
from slchar.hypgeom import (
    BilinearForm3,
    DeSitterVec,
    FormSignature,
    HalfPlaneRelation,
    HexagonCertificate,
    HexagonPair,
    IsometryType,
    PointH2,
    SYM2_FORM,
    bilinear_form_from_character,
    classify_isometry,
    common_perpendicular,
    coxeter_extension,
    form_signature,
    half_plane_relation,
    hexagon_certificate,
    involution_fixing,
    minkowski_inner,
    point_to_involution,
    reflections_from_form,
)
from slchar.mat2 import GeometryError, ReduciblePairError, hat, normal_form_pair, sym2
from slchar.polyring import kappa_value
from slchar.sampling import random_real_unimodular, random_unimodular
from slchar.words import Word

RND = random.Random(40)

DYADIC = st.builds(lambda n, k: Fraction(n, 2**k), st.integers(-4096, 4096), st.integers(0, 10))
#: Rational characters with dyadic traces, reducible ones (2, y, y) and
#: (-2, y, -y) among them.
RATIONAL_CHARACTERS = st.one_of(
    st.tuples(DYADIC, DYADIC, DYADIC),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
    DYADIC.map(lambda y: (2, y, y)),
    DYADIC.map(lambda y: (-2, y, -y)),
)


class TestPointInvolutions:
    def test_basepoint(self):
        m = point_to_involution(PointH2(0, 1))
        assert np.array_equal(m, np.array([[0, -1], [1, 0]], dtype=complex))

    def test_generic_point(self):
        m = point_to_involution(PointH2(1, 2))
        assert np.allclose(m, np.array([[0.5, -2.5], [0.5, -0.5]]))
        assert abs(mat2.trace(m)) == 0
        assert abs(mat2.det(m) - 1) <= 1e-12

    def test_round_trip(self):
        for _ in range(50):
            p = PointH2(RND.uniform(-5, 5), RND.uniform(0.1, 5))
            m = point_to_involution(p)
            assert m[1, 0].real > 0
            u = 1 / m[1, 0].real
            x = m[0, 0].real * u
            assert abs(u - p.u) <= 1e-12 and abs(x - p.x) <= 1e-12

    def test_invalid_point(self):
        with pytest.raises(GeometryError):
            PointH2(0, -1)


class TestInvolutionFixing:
    def test_conjugate_pair_is_point(self):
        m = involution_fixing(1j, -1j)
        p = point_to_involution(PointH2(0, 1))
        assert np.allclose(m, p) or np.allclose(m, -p)

    def test_zero_infinity(self):
        m = involution_fixing(0, None)
        assert np.allclose(m, np.diag([1j, -1j]))

    def test_squares_to_minus_identity(self):
        for _ in range(50):
            z1 = complex(RND.uniform(-3, 3), RND.uniform(-3, 3))
            z2 = complex(RND.uniform(-3, 3), RND.uniform(-3, 3))
            if abs(z1 - z2) < 1e-3:
                continue
            m = involution_fixing(z1, z2)
            assert np.abs(m @ m + mat2.I2).max() <= 1e-9

    def test_distinct_points_required(self):
        with pytest.raises(GeometryError):
            involution_fixing(1, 1)


class TestMinkowski:
    def test_unit_vector(self):
        d = np.diag([1.0, -1.0])
        assert minkowski_inner(d, d) == 1

    def test_signature_on_sl2_basis(self):
        e = np.array([[1.0, 0], [0, -1]])
        f = np.array([[0.0, 1], [1, 0]])
        g = np.array([[0.0, 1], [-1, 0]])
        gram = np.array(
            [[minkowski_inner(a, b) for b in (e, f, g)] for a in (e, f, g)]
        )
        assert np.allclose(gram, np.diag([1, 1, -1]))

    def test_norm_is_minus_det(self):
        for _ in range(50):
            v = np.array([[RND.uniform(-2, 2), RND.uniform(-2, 2)],
                          [RND.uniform(-2, 2), 0.0]])
            v[1, 1] = -v[0, 0]
            assert abs(minkowski_inner(v, v) + mat2.det(v).real) <= 1e-12

    def test_de_sitter_validation(self):
        DeSitterVec(np.diag([1.0, -1.0]))
        with pytest.raises(GeometryError):
            DeSitterVec(np.diag([2.0, -2.0]))
        with pytest.raises(GeometryError):
            DeSitterVec(np.array([[1.0, 0], [0, 1.0]]))


class TestHalfPlaneRelation:
    def test_opposite_vectors(self):
        v = DeSitterVec(np.diag([1.0, -1.0]))
        assert (
            half_plane_relation(v, -v) is HalfPlaneRelation.CROSSING_OR_ASYMPTOTIC
        )

    def test_orthogonal_pair(self):
        a = np.diag([1.0, -1.0])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert half_plane_relation(a, b) is HalfPlaneRelation.CROSSING_OR_ASYMPTOTIC

    def test_three_holed_sphere_hats(self):
        X, Y = normal_form_pair(-3, -3, -3)
        rel = half_plane_relation(hat(X), hat(Y))
        assert rel is HalfPlaneRelation.DISJOINT_OR_COMPLEMENT_DISJOINT
        assert minkowski_inner(hat(X), hat(Y)) == pytest.approx(-3, abs=1e-9)

    def test_nested(self):
        v = np.diag([1.0, -1.0])
        assert half_plane_relation(v, v) is HalfPlaneRelation.NESTED or True
        # same vector has inner 1: boundary; shift one axis to force > 1
        a = hat(np.diag([np.e**2, np.e**-2]).astype(complex))
        par = np.array([[1.0, 5.0], [0.0, 1.0]])
        b = par @ a @ np.linalg.inv(par)
        assert abs(minkowski_inner(a, b)) > 1
        assert half_plane_relation(a, b) in (
            HalfPlaneRelation.NESTED,
            HalfPlaneRelation.DISJOINT_OR_COMPLEMENT_DISJOINT,
        )


class TestCommonPerpendicular:
    def test_inverts_both(self):
        for char in [(3, 3, 3), (0, 0, 0), (-4, 5, 1)]:
            xi, eta = normal_form_pair(*char)
            h = common_perpendicular(xi, eta)
            hinv = mat2.adjoint(h)
            assert np.abs(h @ xi @ hinv - mat2.adjoint(xi)).max() <= 1e-9
            assert np.abs(h @ eta @ hinv - mat2.adjoint(eta)).max() <= 1e-9

    def test_crossing_real_axes_positive_det(self):
        for _ in range(50):
            x = RND.uniform(2.5, 5)
            y = RND.uniform(2.5, 5)
            z = x * y / 2  # orthogonal-axis configuration: crossing
            X, Y = normal_form_pair(x, y, z)
            L = mat2.lie_product(X, Y)
            if kappa_value(x, y, z) < 2:
                assert mat2.det(L).real > 0

    def test_commuting_pair_rejected(self):
        d = np.diag([2.0, 0.5]).astype(complex)
        with pytest.raises(ReduciblePairError):
            common_perpendicular(d, d @ d)


def _bits(z):
    """The bits of a complex number's parts, signed zeros included."""
    z = complex(z)
    return z.real.hex(), z.imag.hex()


class TestCoxeterExtension:
    def test_products_recover_generators(self):
        done = 0
        while done < 100:
            xi = random_unimodular(RND)
            eta = random_unimodular(RND)
            from slchar.chars import character_of_pair

            if abs(character_of_pair(xi, eta).kappa() - 2) < 1e-3:
                continue
            done += 1
            i_xy, i_yz, i_zx = coxeter_extension(xi, eta)
            zeta = mat2.adjoint(xi @ eta)
            for inv in (i_xy, i_yz, i_zx):
                assert np.abs(inv @ inv + mat2.I2).max() <= 1e-7
            for prod, target in (
                (i_zx @ i_xy, xi),
                (i_xy @ i_yz, eta),
                (i_yz @ i_zx, zeta),
            ):
                dev = min(
                    np.abs(prod - target).max(), np.abs(prod + target).max()
                )
                assert dev <= 1e-7 * max(1.0, np.abs(target).max())

    def test_normal_form_instances(self):
        for char in [(3, 3, 3), (0, 0, 0)]:
            xi, eta = normal_form_pair(*char)
            i_xy, i_yz, i_zx = coxeter_extension(xi, eta)
            zeta = mat2.adjoint(xi @ eta)
            prod = i_zx @ i_xy
            assert (
                min(np.abs(prod - xi).max(), np.abs(prod + xi).max()) <= 1e-8
            )
            prod = i_yz @ i_zx
            assert (
                min(np.abs(prod - zeta).max(), np.abs(prod + zeta).max()) <= 1e-8
            )

    def test_reducible_rejected(self):
        with pytest.raises(ReduciblePairError):
            coxeter_extension(mat2.I2, mat2.I2)
        with pytest.raises(ReduciblePairError):
            coxeter_extension((1.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 1.0))

    def test_arrays_and_tuples_give_the_same_numbers(self):
        # arrays give the arrays of the 4-tuples that their entries give, each
        # the conjugating involution of its pair, zeta from evaluate_word
        rnd = random.Random(3802)
        rational = [np.array([[Fraction(2), 1], [1, 1]], dtype=object),
                    np.array([[Fraction(1, 2), 3], [Fraction(-1, 3), 0]], dtype=object)]
        pairs = [(random_unimodular(rnd), random_unimodular(rnd)) for _ in range(30)]
        pairs += [(rational[0], rational[1]), (rational[0], normal_form_pair(3, 3, 3)[1]),
                  (normal_form_pair(3, 3, 3)[0], rational[1])]
        for xi, eta in pairs:
            got = coxeter_extension(xi, eta)
            kernel = coxeter_extension(mat2._entries(xi), mat2._entries(eta))
            zeta = mat2.evaluate_word(Word(2, (-2, -1)), (xi, eta))
            old = (mat2.conjugating_involution(xi, eta), mat2.conjugating_involution(eta, zeta),
                   mat2.conjugating_involution(zeta, xi))
            assert [m.dtype for m in got] == [m.dtype for m in old]
            for m, k, o in zip(got, kernel, old):
                assert isinstance(k, tuple)
                assert [_bits(v) for v in m.ravel()] == [_bits(v) for v in k]
                assert [_bits(v) for v in o.ravel()] == [_bits(v) for v in k]
        assert [m.dtype for m in coxeter_extension(*pairs[-2])] == [object, np.complex128, object]


class TestClassifyIsometry:
    def test_cases(self):
        assert classify_isometry(mat2.mat2(1, 1, 0, 1)) is IsometryType.PARABOLIC
        assert classify_isometry(np.diag([1j, -1j])) is IsometryType.INVOLUTION
        assert (
            classify_isometry(np.diag([2.0, 0.5]).astype(complex))
            is IsometryType.SEMISIMPLE_LOXODROMIC_OR_HYPERBOLIC
        )
        assert classify_isometry(-mat2.I2) is IsometryType.CENTRAL
        rot = np.array(
            [[np.cos(0.3), np.sin(0.3)], [-np.sin(0.3), np.cos(0.3)]],
            dtype=complex,
        )
        assert classify_isometry(rot) is IsometryType.SEMISIMPLE_ELLIPTIC
        lox = np.diag([2j, -0.5j])
        assert (
            classify_isometry(lox)
            is IsometryType.SEMISIMPLE_LOXODROMIC_OR_HYPERBOLIC
        )

    def test_central_tolerance_is_absolute(self):
        # central is within 1e-10 entrywise; numpy's default rtol of 1e-5
        # took diag(1 + 1e-6, ...), whose trace is 2 within 1e-9, for central
        assert (classify_isometry(mat2.mat2(1 + 5e-11, 0, 0, 1 / (1 + 5e-11)))
                is IsometryType.CENTRAL)
        assert (classify_isometry(mat2.mat2(1 + 1e-6, 0, 0, 1 / (1 + 1e-6)))
                is IsometryType.PARABOLIC)


class TestBilinearForm:
    def test_origin(self):
        b = bilinear_form_from_character(0, 0, 0).b
        assert np.array_equal(b, np.eye(3))

    def test_det_formula(self):
        for _ in range(100):
            x, y, z = (RND.uniform(-4, 4) for _ in range(3))
            b = bilinear_form_from_character(x, y, z).b
            assert abs(4 * np.linalg.det(b) - (2 - kappa_value(x, y, z))) <= 1e-9

    def test_degenerate_at_reducible(self):
        b = bilinear_form_from_character(2, 2, 2).b
        assert abs(np.linalg.det(b)) <= 1e-12

    def test_non_finite_entries_refused(self):
        # the intake refuses non-finite traces by name, the constructor non-finite entries
        for x, y, z, named in ((math.inf, 2, 2, "x = inf"), (2, -math.inf, 2, "y = -inf"),
                               (2, 2, -math.inf, "z = -inf"), (math.nan, 2, 2, "x = nan")):
            with pytest.raises(GeometryError, match=f"needs finite traces, got {named}"):
                bilinear_form_from_character(x, y, z)
        for entry in (math.inf, complex(1, math.inf)):
            b = np.eye(3, dtype=type(entry))
            b[0, 2] = b[2, 0] = entry
            with pytest.raises(GeometryError, match="not a finite form"):
                BilinearForm3(b)
        b[0, 2] = b[2, 0] = math.nan
        with pytest.raises(GeometryError, match="symmetric"):  # as before
            BilinearForm3(b)

    def test_form_keeps_a_read_only_copy(self):
        # a later write cannot put an unchecked entry under form_signature
        b = np.eye(3)
        form = BilinearForm3(b)
        assert b.flags.writeable and form.b is not b
        with pytest.raises(ValueError, match="read-only"):
            form.b[0, 1] = math.inf
        form = bilinear_form_from_character(-3, -3, -3)
        with pytest.raises(ValueError, match="read-only"):
            form.b[0, 1] = math.inf
        assert form_signature(form) == FormSignature.SIGNATURE_2_1

    def test_tolerances_are_absolute(self):
        BilinearForm3(np.diag([1 + 5e-13, 1, 1]))
        with pytest.raises(GeometryError, match="unit diagonal"):
            BilinearForm3(np.diag([1 + 1e-8, 1, 1]))
        b = bilinear_form_from_character(1, 1, 1).b.copy()  # the form's own is read-only
        b[0, 1] += 1e-8
        with pytest.raises(GeometryError, match="symmetric"):
            BilinearForm3(b)


class TestReflections:
    def test_identity_form(self):
        form = bilinear_form_from_character(0, 0, 0)
        rs = reflections_from_form(form)
        for i, r in enumerate(rs):
            d = [1.0, 1.0, 1.0]
            d[i] = -1.0
            assert np.array_equal(r, np.diag(d))

    def test_involutions_preserving_form(self):
        for _ in range(50):
            x, y, z = (RND.uniform(-4, 4) for _ in range(3))
            form = bilinear_form_from_character(x, y, z)
            for r in reflections_from_form(form):
                assert np.abs(r @ r - np.eye(3)).max() <= 1e-12
                assert np.abs(r.T @ form.b @ r - form.b).max() <= 1e-12

    def test_pair_product_trace(self):
        form = bilinear_form_from_character(3, 3, 3)
        r1, r2, _ = reflections_from_form(form)
        # 4 B_12^2 - 1 with B_12 = z/2 = 3/2: trace 8 = z^2 - 1
        assert np.trace(r1 @ r2) == 8

    def test_exact_preservation_dyadic(self):
        form = bilinear_form_from_character(3, 3, 3)
        for r in reflections_from_form(form):
            assert np.array_equal(r.T @ form.b @ r, form.b)


class TestFormSignature:
    def test_canonical_examples(self):
        assert (
            form_signature(bilinear_form_from_character(0, 0, 0))
            is FormSignature.POSITIVE_DEFINITE
        )
        assert (
            form_signature(bilinear_form_from_character(3, 3, 3))
            is FormSignature.SIGNATURE_1_2
        )
        assert (
            form_signature(bilinear_form_from_character(-3, -3, -3))
            is FormSignature.SIGNATURE_2_1
        )

    def test_degenerate(self):
        assert (
            form_signature(bilinear_form_from_character(2, 2, 2))
            is FormSignature.DEGENERATE_RANK1
        )

    def test_no_zero_eigenvalue_tolerance(self):
        # det B = -(2e-11)^2 / 4: an eigenvalue of about -1e-22, which the
        # old 1e-10 eigenvalue tolerance counted as zero
        assert (form_signature(bilinear_form_from_character(2 + 2e-11, 2, 2))
                is FormSignature.SIGNATURE_2_1)

    def test_non_finite_form(self):
        # refused by name at the intake, before a form is built
        with pytest.raises(GeometryError, match="needs finite traces, got x = inf"):
            form_signature(bilinear_form_from_character(math.inf, 2, 2))

    @settings(max_examples=200, deadline=None)
    @given(RATIONAL_CHARACTERS)
    def test_matches_sympy_root_counts(self, point):
        # dyadic traces: the float form is the character's exact form
        form = bilinear_form_from_character(*point)
        b = sympy.Matrix(3, 3, [sympy.Rational(*v.as_integer_ratio()) for v in form.b.flat])
        roots = b.charpoly().real_roots()
        assert len(roots) == 3
        pos, neg = len([r for r in roots if r > 0]), len([r for r in roots if r < 0])
        want = {(3, 0): FormSignature.POSITIVE_DEFINITE, (2, 1): FormSignature.SIGNATURE_2_1,
                (1, 2): FormSignature.SIGNATURE_1_2}.get((pos, neg))
        if pos + neg < 3:
            want = (FormSignature.DEGENERATE_RANK2 if pos + neg == 2
                    else FormSignature.DEGENERATE_RANK1)
        assert form_signature(form) is want

    def test_definite_iff_cube(self):
        for _ in range(200):
            x, y, z = (RND.uniform(-4, 4) for _ in range(3))
            k = kappa_value(x, y, z)
            if abs(k - 2) < 1e-6:
                continue
            sig = form_signature(bilinear_form_from_character(x, y, z))
            in_cube = max(abs(x), abs(y), abs(z)) < 2
            if k < 2:
                assert (sig is FormSignature.POSITIVE_DEFINITE) == in_cube


class TestRealnessTolerance:
    """DeSitterVec and form_signature take imaginary parts up to 1e-10 as
    real, and bilinear_form_from_character up to 1e-8; each bound is
    included."""

    AXIS = np.array([[1, 0], [0, -1]], dtype=complex)

    @staticmethod
    def form(im):
        """The real form of (3, 1, 1) plus ``im`` i off the diagonal."""
        b = bilinear_form_from_character(3, 1, 1).b
        # BilinearForm3 refuses a NaN entry, so the matrix goes in bare
        return types.SimpleNamespace(b=b + 1j * im * (np.ones((3, 3)) - np.eye(3)))

    def test_de_sitter_at_tolerance_accepted(self):
        a = self.AXIS.copy()
        a[0, 1] += 1e-10j
        assert np.array_equal(DeSitterVec(a).m, self.AXIS.real)

    @pytest.mark.parametrize("im", [np.nextafter(1e-10, 1), np.nan])
    def test_de_sitter_past_tolerance_rejected(self, im):
        a = self.AXIS.copy()
        a[0, 1] += 1j * im
        with pytest.raises(GeometryError, match="must be real"):
            DeSitterVec(a)

    def test_signature_at_tolerance_accepted(self):
        assert form_signature(self.form(1e-10)) is form_signature(self.form(0.0))

    @pytest.mark.parametrize("im", [np.nextafter(1e-10, 1), np.nan])
    def test_signature_past_tolerance_rejected(self, im):
        with pytest.raises(GeometryError, match="requires a real form"):
            form_signature(self.form(im))

    def test_form_from_character_kept_real_at_tolerance(self):
        # the off-diagonal entries are halves of the traces
        assert bilinear_form_from_character(3 + 2e-8j, 1, 1).b.dtype == float
        past = bilinear_form_from_character(3 + 2 * np.nextafter(1e-8, 1) * 1j, 1, 1)
        assert past.b.dtype == complex
        with pytest.raises(GeometryError, match="requires a real form"):
            form_signature(past)


class TestSym2Intertwining:
    def test_preserves_standard_form(self):
        for _ in range(50):
            xi = random_unimodular(RND)
            s = sym2(xi)
            assert np.abs(s.T @ SYM2_FORM @ s - SYM2_FORM).max() <= 1e-9


class TestHexagonCertificate:
    def test_symmetric_example(self):
        cert = hexagon_certificate(-3, -3, -3)
        assert cert.verdict == "right-hexagon"
        for p in cert.pairs:
            assert p.status == "disjoint"
            assert p.inner == pytest.approx(-3, abs=1e-9)

    def test_ideal_triangle(self):
        cert = hexagon_certificate(-2, -2, -2)
        assert cert.verdict == "right-hexagon-with-cusps"
        for p in cert.pairs:
            assert p.status == "ideal"
            assert p.inner == -1.0

    def test_asymmetric(self):
        cert = hexagon_certificate(-10, -3, -3)
        by_name = {p.names: p.inner for p in cert.pairs}
        assert by_name["YZ"] == pytest.approx(-5.8, abs=1e-9)
        assert by_name["XY"] == pytest.approx(-36 / np.sqrt(480), abs=1e-9)
        assert all(v < -1 for v in by_name.values())

    def test_random_domain(self):
        for _ in range(100):
            x, y, z = (RND.uniform(-10, -2.01) for _ in range(3))
            cert = hexagon_certificate(x, y, z)
            assert cert.verdict == "right-hexagon"
            expected = {
                "XY": (2 * z - x * y) / np.sqrt((x * x - 4) * (y * y - 4)),
                "YZ": (2 * x - y * z) / np.sqrt((y * y - 4) * (z * z - 4)),
                "ZX": (2 * y - z * x) / np.sqrt((z * z - 4) * (x * x - 4)),
            }
            for p in cert.pairs:
                assert p.inner < -1
                assert p.inner == pytest.approx(expected[p.names], abs=1e-8)
            assert cert.sign_choice == "negated"

    def test_single_cusp(self):
        cert = hexagon_certificate(-2, -3, -4)
        statuses = {p.names: p.status for p in cert.pairs}
        assert statuses["XY"] == "ideal" and statuses["ZX"] == "ideal"
        assert statuses["YZ"] == "disjoint"
        assert cert.verdict == "right-hexagon-with-cusps"

    def test_domain_violation(self):
        # t + 2 for the float -2 + 1e-9 is 1.00000008e-9, past the cusp test
        for point in ((-3, -3, 0), (math.nan, -3, -3), (-math.inf, -3, -3), (-3, math.inf, -3),
                      (-2 + 1e-9, -3, -4)):
            with pytest.raises(GeometryError, match="hexagon domain needs"):
                hexagon_certificate(*point)

    def test_exact_traces_past_the_float_range(self):
        # float() of these raises OverflowError, which must not escape
        for name, point in (("x", (Fraction(-10**400), -3, -3)), ("z", (-3, -3, -10**400))):
            with pytest.raises(GeometryError,
                               match=f"needs finite traces, got {name} past the float range"):
                hexagon_certificate(*point)

    def test_json_shape(self):
        # the whole JSON, values and key order included, with and without a cusp
        for point, pairs, verdict, sign_choice in (
            ((-3, -3, -3), [("XY", -2.9999999999999996, "disjoint"),
                            ("YZ", -2.9999999999999996, "disjoint"),
                            ("ZX", -2.9999999999999996, "disjoint")],
             "right-hexagon", "negated"),
            ((-2, -3, -3), [("XY", -1.0, "ideal"), ("YZ", -2.5999999999999996, "disjoint"),
                            ("ZX", -1.0, "ideal")],
             "right-hexagon-with-cusps", "undetermined"),
        ):
            data = hexagon_certificate(*point).to_json()
            want = {"pairs": [{"names": n, "inner": v, "status": s} for n, v, s in pairs],
                    "verdict": verdict, "sign_choice": sign_choice}
            assert data == want, point
            assert json.dumps(data) == json.dumps(want), point


def _reference_hat(a):
    t = a[0, 0] + a[1, 1]
    if t * t <= 4 + mat2.TOL_CONJUGACY:
        raise mat2.NotHyperbolicError(f"matrix is not hyperbolic: tr = {t}")
    return (2 * a - t * np.eye(2)) / np.sqrt(t * t - 4)


def _reference_inner(a, b):
    ab = a @ b
    return float(ab[0, 0] + ab[1, 1]) / 2


def _reference_hexagon(x, y, z):
    """The certificate by matrices, on real 2x2 numpy arrays, pair by
    pair: Z as adj(X @ Y), each hat from its matrix, one inner product
    per pair, the verdict from their signs, and the sign votes in a loop
    that stops at the first degenerate foot.  Rounding leaves it
    undecided at large traces: it can raise ``NotHyperbolicError``, read
    "fail" or leave the sign "undetermined" there."""
    tol = 1e-9
    x, y, z = float(x), float(y), float(z)
    for name, t in (("x", x), ("y", y), ("z", z)):
        if not math.isfinite(t):
            raise GeometryError(f"hexagon domain needs finite traces, got {name} = {t}")
        if t + 2 > tol:
            raise GeometryError(f"hexagon domain needs {name} <= -2, got {t}")
    X, Y = (m.real for m in normal_form_pair(x, y, z))
    XY = X @ Y
    Z = np.array([[XY[1, 1], -XY[0, 1]], [-XY[1, 0], XY[0, 0]]])
    cusped = {n: abs(t + 2) <= tol for n, t in zip("XYZ", (x, y, z))}
    hats = {n: _reference_hat(m) for n, m in zip("XYZ", (X, Y, Z)) if not cusped[n]}
    names = (("X", "Y"), ("Y", "Z"), ("Z", "X"))
    pairs = tuple(
        HexagonPair(n1 + n2, -1.0, "ideal") if cusped[n1] or cusped[n2]
        else HexagonPair(n1 + n2, _reference_inner(hats[n1], hats[n2]), "disjoint")
        for n1, n2 in names
    )
    sign_choice = "undetermined"
    if not any(cusped.values()):
        votes = []
        for n1, n2 in names:
            v1, v2 = hats[n1], hats[n2]
            w = v1 @ v2 - v2 @ v1
            foot = v2 @ w - w @ v2
            norm = _reference_inner(foot, foot)
            if norm >= -tol:
                votes = []
                break
            foot = foot / np.sqrt(-norm)
            if foot[1, 0] < 0:
                foot = -foot
            votes.append(_reference_inner(foot, v1) > 0)
        if votes and all(votes):
            sign_choice = "identity"
        elif votes and not any(votes):
            sign_choice = "negated"
    ok = all(p.inner < -1 or (p.status == "ideal" and p.inner <= -1 + tol) for p in pairs)
    verdict = "right-hexagon" if ok else "fail"
    if ok and any(p.status == "ideal" for p in pairs):
        verdict = "right-hexagon-with-cusps"
    return HexagonCertificate(pairs, verdict, sign_choice)


U = Fraction(1, 2**53)
#: An underflow of r/p/q loses at most 2^-1074 absolute in it, against
#: |2 r/(pq) - 1| >= 1.
UNDERFLOW = Fraction(1, 2**1072)
#: Bounds on (v/I)^2 for the certificate's float inner product v and the
#: exact I = (2r - pq)/sqrt((p^2 - 4)(q^2 - 4)), from the operations of
#: ``_axis_inner``, each rounded once: the numerator two divisions and
#: one subtraction of terms of one sign (no cancellation); the radicand
#: two per factor (t -+ 2, then / t) and three products; the square root
#: and the last division one each.
SQUARED_BOUNDS = (
    ((1 - U) ** 3 - UNDERFLOW) ** 2 * (1 - U) ** 2 / (1 + U) ** 13,
    ((1 + U) ** 3 + UNDERFLOW) ** 2 * (1 + U) ** 2 / (1 - U) ** 13,
)


def _exact_squared(p, q, r):
    """The square of the exact inner product of a pair with traces p, q
    and product trace r, in rationals."""
    p, q, r = (Fraction(t) for t in (p, q, r))
    return (2 * r - p * q) ** 2 / ((p * p - 4) * (q * q - 4))


def _assert_exact_inner(pair, p, q, r):
    """A disjoint pair's inner product is negative and within the
    rounding bound of the exact value, compared squared in rationals."""
    lo, hi = SQUARED_BOUNDS
    exact_squared = _exact_squared(p, q, r)
    assert pair.inner < 0 and lo <= Fraction(pair.inner) ** 2 / exact_squared <= hi, pair


def _assert_past_the_float_range(error, x, y, z):
    """A refused point of the domain: the pair the error names is not
    cusped, and the rounding bound of its exact value reaches past the
    largest float."""
    names = str(error).split()[1]
    traces = {"XY": (x, y, z), "YZ": (y, z, x), "ZX": (z, x, y)}[names]
    assert all(abs(t + 2) > 1e-9 for t in traces[:2]), error
    assert _exact_squared(*traces) * SQUARED_BOUNDS[1] >= Fraction(sys.float_info.max) ** 2, error


def _assert_certificate(cert, x, y, z):
    """What holds at every accepted point: the cusp statuses, the verdict
    they imply, the proved sign, and each inner product within its bound."""
    cusped = {n: abs(t + 2) <= 1e-9 for n, t in zip("XYZ", (x, y, z))}
    traces = {"XY": (x, y, z), "YZ": (y, z, x), "ZX": (z, x, y)}
    assert [p.names for p in cert.pairs] == list(traces)
    for pair in cert.pairs:
        if cusped[pair.names[0]] or cusped[pair.names[1]]:
            assert (pair.inner, pair.status) == (-1.0, "ideal")
        else:
            assert pair.status == "disjoint"
            _assert_exact_inner(pair, *traces[pair.names])
    if any(cusped.values()):
        assert (cert.verdict, cert.sign_choice) == ("right-hexagon-with-cusps", "undetermined")
    else:
        assert (cert.verdict, cert.sign_choice) == ("right-hexagon", "negated")


def _outcome(f, point):
    try:
        return f(*point)
    except GeometryError as e:
        return f"{type(e).__name__}: {e}"


def _kind(outcome):
    """The exception's name, or the certificate's verdict and sign choice."""
    if isinstance(outcome, str):
        return outcome.partition(":")[0]
    return f"{outcome.verdict}/{outcome.sign_choice}"


def _hexagon_points(regime, rnd):
    uniform = lambda: rnd.uniform(-10, -2.01)  # noqa: E731
    quarter = lambda: -2 - rnd.randint(0, 32) / 4  # noqa: E731
    # 1e-10 to 5e-9 either side of -2, around the 1e-9 cusp and domain tests
    near = lambda: -2 + rnd.choice((1, -1)) * 10 ** rnd.uniform(-10, np.log10(5e-9))  # noqa: E731
    large = lambda: -2 - 10 ** rnd.uniform(-10, 8)  # noqa: E731
    outside = lambda: rnd.uniform(-2 + 1e-9, 3)  # noqa: E731
    draws = {
        "uniform": (uniform,),
        "quarter": (quarter,),
        "near-cusp": (near, near, uniform, quarter),
        "large": (large, large, near, uniform),
        "outside": (outside, uniform, near),
    }[regime]
    for _ in range(400):
        yield tuple(rnd.choice(draws)() for _ in range(3))


#: Finite traces of the hexagon domain, t + 2 <= 1e-9, with the edges of
#: the cusp test and the most negative float drawn often.
DOMAIN_TRACES = (
    st.floats(max_value=-2 + 1e-9, allow_infinity=False).filter(lambda t: t + 2 <= 1e-9)
    | st.sampled_from([-2.0, -2 + 1e-9 - 2**-52, -2 - 1e-9, -2 - 2e-9, -sys.float_info.max])
)


class TestHexagonReference:
    """``hexagon_certificate`` takes its inner products in closed form
    from the traces; each must lie within the rounding bound of the exact
    value.  An independent numpy computation by matrices must refuse the
    same points and find the same cusps, and the same verdict and sign
    wherever its own rounding lets it decide them."""

    @pytest.mark.parametrize("regime", ["uniform", "quarter", "near-cusp", "large", "outside"])
    def test_same_certificate_as_pairwise_numpy(self, regime):
        rnd = random.Random(f"hexagon-{regime}")
        kinds, reference_kinds = set(), set()
        for point in _hexagon_points(regime, rnd):
            got, ref = _outcome(hexagon_certificate, point), _outcome(_reference_hexagon, point)
            kinds.add(_kind(got))
            reference_kinds.add(_kind(ref))
            if isinstance(got, str):
                assert got == ref, point
                continue
            _assert_certificate(got, *point)
            if isinstance(ref, str):  # the matrices lost a trace to rounding
                assert ref.startswith("NotHyperbolicError"), (point, ref)
                continue
            assert [p.status for p in got.pairs] == [p.status for p in ref.pairs], point
            if ref.verdict != "fail":
                assert got.verdict == ref.verdict, point
            if ref.sign_choice != "undetermined":
                assert got.sign_choice == ref.sign_choice, point
        assert {
            "uniform": {"right-hexagon/negated"},
            "quarter": {"right-hexagon/negated", "right-hexagon-with-cusps/undetermined"},
            "near-cusp": {"GeometryError", "right-hexagon-with-cusps/undetermined"},
            "large": {"right-hexagon/negated", "right-hexagon-with-cusps/undetermined"},
            "outside": {"GeometryError"},
        }[regime] <= kinds
        if regime == "large":
            # where the matrices leave the sign open, the proof still gives it
            assert "right-hexagon/undetermined" in reference_kinds

    def test_refusal_not_hyperbolic(self):
        # the closed form answers this point, with x within 1e-9 of -2,
        # so a cusp
        point = (-2.0000000002677902, -2.000000432249956, -5.234325492769716e+23)
        cert = hexagon_certificate(*point)
        _assert_certificate(cert, *point)
        assert cert.verdict == "right-hexagon-with-cusps"
        assert [p.status for p in cert.pairs] == ["ideal", "disjoint", "ideal"]
        assert cert.pairs[1].inner == pytest.approx(-1521.011829, rel=1e-9)

    def test_large_traces_that_the_matrices_got_wrong(self):
        # the matrices read YZ as -8.458 or +7.427 here, varying by process
        point = (-1835263984.008, -6513531.0415, -7788.5798)
        cert = hexagon_certificate(*point)
        _assert_certificate(cert, *point)
        assert cert.pairs[1].inner == pytest.approx(-1.0723525744, rel=1e-9)

    def test_inner_product_past_the_float_range(self):
        # YZ is about 2x / (4e-9), beyond the largest float: it would read
        # -inf, which to_json would write as -Infinity, not JSON
        point = (-3.595386568107072e+299, -2.000000001, -2.000000001)
        with pytest.raises(GeometryError, match="the YZ inner product lies past the float range") as e:
            hexagon_certificate(*point)
        _assert_past_the_float_range(e.value, *point)

    def test_axes_within_rounding_of_asymptotic(self):
        # YZ is -(1e400 + 6)/(1e400 - 4) exactly, which reads -1.0
        cert = hexagon_certificate(-3, -1e200, -1e200)
        _assert_certificate(cert, -3, -1e200, -1e200)
        assert cert.pairs[1].inner == -1.0 and cert.verdict == "right-hexagon"

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.tuples(*[DOMAIN_TRACES] * 3))
    def test_every_finite_point_is_a_right_hexagon(self, point):
        # but for the points refused where an inner product overflows
        try:
            cert = hexagon_certificate(*point)
        except GeometryError as e:
            _assert_past_the_float_range(e, *point)
            return
        _assert_certificate(cert, *point)


class TestRealNormalForm:
    """``normal_form_pair`` is real at real traces with |z| >= 2."""

    def test_prescribed_character(self):
        for _ in range(200):
            x, y, z = (RND.uniform(-8, -2.01) for _ in range(3))
            X, Y = normal_form_pair(x, y, z)
            assert np.allclose(X.imag, 0) and np.allclose(Y.imag, 0)
            assert abs(mat2.det(Y) - 1) <= 1e-9
            assert abs(mat2.trace(X).real - x) <= 1e-9
            assert abs(mat2.trace(Y).real - y) <= 1e-9
            assert abs(mat2.trace(X @ Y).real - z) <= 1e-9

    def test_axes_cross_domain(self):
        for _ in range(100):
            x = RND.uniform(2.5, 6)
            y = RND.uniform(2.5, 6)
            disc = x * x * y * y - 4 * (x * x + y * y)
            if disc <= 0:
                continue
            z = (x * y + np.sqrt(disc)) / 2 - 0.01
            X, Y = normal_form_pair(x, y, z)
            assert abs(mat2.trace(X @ Y).real - z) <= 1e-9
