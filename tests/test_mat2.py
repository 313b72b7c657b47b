import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from slchar import mat2
from slchar.mat2 import (
    GeometryError,
    I2,
    NotHyperbolicError,
    NotSemisimpleError,
    ReduciblePairError,
    conjugating_involution,
    evaluate_word,
    glide_reflection_sqrt,
    hat,
    involution_of,
    lie_product,
    normal_form_pair,
    sym2,
    traceless_projection,
)
from slchar.sampling import (
    exact_evaluate_word,
    exact_trace,
    random_rational_unimodular,
    random_real_unimodular,
    random_reduced_word,
    random_unimodular,
    random_unimodular_entries,
)
from slchar.words import Word, parse_word
from tuple2x2 import (RATIONAL, as_pair, as_tuple, from_pair, inverse, matmul, product, trace,
                      word_product)

RND = random.Random(10)


def test_trace_det_identity():
    assert mat2.trace(I2) == 2
    m = np.diag([3.0, 1 / 3]).astype(complex)
    assert abs(mat2.trace(m) - (3 + 1 / 3)) < 1e-15
    assert abs(mat2.det(m) - 1) < 1e-15


def test_inverse_cofactor():
    for _ in range(50):
        xi = random_unimodular(RND)
        assert np.abs(xi @ mat2.inverse(xi) - I2).max() <= 1e-12


def test_inverse_rejects_nonunimodular():
    with pytest.raises(GeometryError):
        mat2.inverse(2 * I2)


def test_cayley_hamilton():
    for _ in range(100):
        xi = random_unimodular(RND)
        residual = xi @ xi - mat2.trace(xi) * xi + mat2.det(xi) * I2
        assert np.abs(residual).max() <= 1e-12


def test_basic_identity():
    for _ in range(100):
        xi, eta = random_unimodular(RND), random_unimodular(RND)
        lhs = mat2.trace(xi @ eta) + mat2.trace(xi @ mat2.adjoint(eta))
        assert abs(lhs - mat2.trace(xi) * mat2.trace(eta)) <= 1e-10


def test_trace_of_inverse():
    for _ in range(100):
        xi = random_unimodular(RND)
        assert abs(mat2.trace(xi) - mat2.trace(mat2.adjoint(xi))) <= 1e-12


def test_commutator_vs_lie_det():
    for _ in range(100):
        xi, eta = random_unimodular(RND), random_unimodular(RND)
        comm = mat2.trace(xi @ eta @ mat2.adjoint(xi) @ mat2.adjoint(eta))
        assert abs(comm + mat2.det(lie_product(xi, eta)) - 2) <= 1e-10


class TestEvaluateWord:
    def test_commutator_example(self):
        xi = mat2.mat2(1, 1, 0, 1)
        eta = mat2.mat2(1, 0, 1, 1)
        w = parse_word("X Y x y", 2)
        assert abs(mat2.trace(evaluate_word(w, [xi, eta])) - 3) < 1e-12

    def test_identity_word(self):
        assert np.array_equal(evaluate_word(Word(2, ()), [I2, I2]), I2)

    def test_square_of_diagonal(self):
        d = np.diag([2.0, 0.5]).astype(complex)
        out = evaluate_word(Word(1, (1, 1)), [d])
        assert np.allclose(out, np.diag([4, 0.25]))
        assert abs(mat2.trace(out) - 17 / 4) < 1e-15

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_word(Word(2, (1,)), [I2])


def _fraction_draw(rnd):
    """A rational draw as an object array of Fractions."""
    return np.array(from_pair(random_rational_unimodular(rnd)), dtype=object)


class TestExactMatrices:
    """Exact pairs (N, d) multiply exactly along words, and object arrays
    of Fractions go through the same functions exactly."""

    def test_adjoint_keeps_object_dtype(self):
        for _ in range(20):
            m = _fraction_draw(RND)
            adj = mat2.adjoint(m)
            assert adj.dtype == object
            assert as_tuple(adj) == ((m[1, 1], -m[0, 1]), (-m[1, 0], m[0, 0]))
            assert as_tuple(m @ adj) == ((1, 0), (0, 1))
            assert mat2.det(m) == 1 and isinstance(mat2.det(m), Fraction)

    def test_evaluate_word_matches_naive_product(self):
        for rank in (1, 2, 3):
            for _ in range(15):
                w = random_reduced_word(RND, rank, 10)
                mats = [random_rational_unimodular(RND) for _ in range(rank)]
                out = evaluate_word(w, mats)
                assert out.dtype == object
                want = word_product(w, [from_pair(m) for m in mats])
                assert as_tuple(out) == want
                assert all(isinstance(v, (int, Fraction)) for v in out.flat)
                assert mat2.det(out) == 1

    def test_exact_evaluate_word_accepts_tuples(self):
        w = parse_word("X Y^2 x z Y", 3)
        tuples = [from_pair(random_rational_unimodular(RND)) for _ in range(3)]
        out = exact_evaluate_word(w, tuples)
        assert as_tuple(out) == word_product(w, tuples)

    def test_exact_trace_of_array_and_tuples(self):
        for _ in range(10):
            m = _fraction_draw(RND)
            t = exact_trace(m)
            assert type(t) is Fraction and t == m[0, 0] + m[1, 1] == mat2.trace(m)
            assert exact_trace(as_tuple(m)) == t
        assert exact_trace(((Fraction(1, 2), 5), (7, Fraction(-3, 4)))) == Fraction(-1, 4)

    def test_rational_draw_keeps_its_stream(self):
        # the draw as first written: three Fraction(randint, randint), then
        # d = (1 + b c) / a; seeded exact output depends on this stream
        for seed in range(300):
            rnd, old = random.Random(seed), random.Random(seed)
            for _ in range(5):
                n, d = random_rational_unimodular(rnd)
                while True:
                    a = Fraction(old.randint(-8, 8), old.randint(1, 3))
                    b = Fraction(old.randint(-8, 8), old.randint(1, 3))
                    c = Fraction(old.randint(-8, 8), old.randint(1, 3))
                    if a != 0:
                        break
                assert all(type(v) is int for v in n) and type(d) is int and d > 0
                assert from_pair((n, d)) == ((a, b), (c, (1 + b * c) / a))
                assert n[0] * n[3] - n[1] * n[2] == d * d
            assert rnd.getstate() == old.getstate()

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_evaluate_word_on_any_rational_matrices(self, rank, data):
        # ints and Fractions mixed, any determinant: inverse letters take the
        # adjugate, so the product is the tuple product with adjugates
        mats = [data.draw(RATIONAL) for _ in range(rank)]
        letters = data.draw(st.lists(st.sampled_from(
            [g for k in range(1, rank + 1) for g in (k, -k)]), max_size=8))
        w = Word(rank, tuple(letters))
        out = evaluate_word(w, [as_pair(m) for m in mats])
        assert out.dtype == object and out.shape == (2, 2)
        assert all(type(v) is Fraction for v in out.flat)
        assert as_tuple(out) == word_product(w, mats)

    def test_evaluate_word_on_int_matrices_with_zero_entries(self):
        # int matrices only (every d is 1), singular ones included
        mats = [((0, 1), (-1, 0)), ((2, 0), (3, 0)), ((0, 4), (0, 5))]
        for w in (parse_word("X Y^-1 Z x", 3), parse_word("Y^2 z X Z^-2", 3), Word(3, ())):
            out = evaluate_word(w, [as_pair(m) for m in mats])
            assert out.dtype == object and out.shape == (2, 2)
            assert all(type(v) is Fraction for v in out.flat)
            assert as_tuple(out) == word_product(w, mats)

    def test_evaluate_word_inverse_letters_scale_by_denominator(self):
        # det m = 1/4: the adjugate of m = N/2 is adj(N)/2, not adj(N)/4 or adj(N)
        half, eighth = Fraction(1, 2), Fraction(1, 8)
        m = as_pair(((half, 0), (0, half)))
        assert as_tuple(evaluate_word(Word(1, (-1,)), [m])) == ((half, 0), (0, half))
        assert as_tuple(evaluate_word(Word(1, (1, -1, -1)), [m])) == ((eighth, 0), (0, eighth))

    def test_numeric_input_gives_complex128(self):
        real = np.array([[2.0, 1.0], [1.0, 1.0]])
        assert mat2.adjoint(real).dtype == np.complex128
        assert evaluate_word(parse_word("X Y x", 2), [real, real]).dtype == np.complex128
        ms = [random_unimodular(RND) for _ in range(2)]
        assert evaluate_word(parse_word("X Y x", 2), ms).dtype == np.complex128
        assert evaluate_word(Word(2, ()), ms).dtype == np.complex128


def _bits(z):
    """The bits of a complex number's parts, signed zeros included."""
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def _batch_words(rnd, rank, trials=240):
    """Seeded reduced words of up to 12 letters, led by the empty word,
    one-letter words and a word of inverse letters only."""
    lead = [Word(rank, ()), Word(rank, (1,)), Word(rank, (-rank,)), Word(rank, (-1, -1))]
    return lead + [random_reduced_word(rnd, rank, 12) for _ in range(trials - len(lead))]


class TestWordTraces:
    """``word_trace`` gives each trial the bits of the textbook products of
    ``tuple2x2.matmul``, and of ``evaluate_word``; a trial given as numpy
    matrices gets the bits of its 4-tuples; exact trials give Fractions."""

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_float_bit_for_bit(self, rank):
        rnd = random.Random(2840 + rank)
        words = _batch_words(rnd, rank)
        draws = [[random_unimodular_entries(rnd) for _ in range(rank)] for _ in words]
        stack = np.array(draws, dtype=complex).reshape(len(words), rank, 2, 2)
        for w, trial, as_numpy in zip(words, draws, stack):
            value = mat2.word_trace(w, trial)
            assert type(value) is complex
            assert _bits(value) == _bits(mat2.word_trace(w, as_numpy))
            assert _bits(value) == _bits(mat2.word_trace(w, list(as_numpy)))
            assert _bits(value) == _bits(mat2.trace(evaluate_word(w, trial)))
            assert _bits(value) == _bits(trace(word_product(w, [(m[:2], m[2:]) for m in trial])))

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_exact(self, rank):
        rnd = random.Random(2850 + rank)
        words = _batch_words(rnd, rank)
        batch = [tuple(random_rational_unimodular(rnd) for _ in range(rank)) for _ in words]
        for w, trial in zip(words, batch):
            value = mat2.word_trace(w, trial)
            assert type(value) is Fraction
            assert value == mat2.trace(evaluate_word(w, trial))
            assert value == trace(word_product(w, [from_pair(m) for m in trial]))

    def test_adjugates_negate_signed_zeros(self):
        # negation, not a product with -1, so that -0.0 and 0.0 swap as adjoint's do
        m = np.array([[1, complex(0.0, -0.0)], [complex(-0.0, 0.0), 1]])
        assert ([_bits(v) for v in mat2._adjugate(tuple(m.ravel().tolist()))]
                == [_bits(v) for v in mat2.adjoint(m).flat])

    def test_empty_word_is_the_identity(self):
        # the one product that starts at I: trace 2, complex or exact
        value = mat2.word_trace(Word(2, ()), [random_unimodular_entries(RND) for _ in range(2)])
        assert type(value) is complex and value == 2
        value = mat2.word_trace(Word(2, ()), [random_rational_unimodular(RND) for _ in range(2)])
        assert type(value) is Fraction and value == 2

    def test_one_letter_word_is_the_letter(self):
        # a product from the first letter, not from I: I m would add 0 * entries
        # to each entry and lose the signed zeros
        m = np.array([[complex(-0.0, 1.5), complex(0.0, -0.0)],
                      [complex(-0.0, -0.0), complex(2.0, -0.0)]])
        for trial in ([m], [tuple(m.ravel().tolist())]):
            got = evaluate_word(Word(1, (1,)), trial)
            assert [_bits(v) for v in got.flat] == [_bits(v) for v in m.flat]
        got = evaluate_word(Word(1, (-1,)), [m])
        assert [_bits(v) for v in got.flat] == [_bits(v) for v in mat2.adjoint(m).flat]


#: Integer 2x2 matrices of any determinant, singular and zero ones included.
INTEGERS = st.integers(-30, 30)
INT_MATRICES = st.tuples(st.tuples(INTEGERS, INTEGERS), st.tuples(INTEGERS, INTEGERS))


def _det(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _flat(m):
    return (*m[0], *m[1])


class TestHomogenisedIdentities:
    """With inverses written as adjugates, the identities of ``verify
    identities`` hold for integer matrices of any determinant, which is
    what lets the exact suite run on the numerators N = d m."""

    @settings(max_examples=150, deadline=None)
    @given(INT_MATRICES, INT_MATRICES)
    @example(((0, 0), (0, 0)), ((1, 2), (2, 4)))
    @example(((0, 3), (0, 0)), ((0, 0), (-5, 0)))
    def test_identities_hold_exactly(self, n, m):
        # tuple reference: inverse() is the adjugate for any determinant
        nn, tn = matmul(n, n), trace(n)
        assert all(nn[i][j] - tn * n[i][j] + _det(n) * (i == j) == 0
                   for i in range(2) for j in range(2))
        assert trace(matmul(n, m)) + trace(matmul(n, inverse(m))) == tn * trace(m)
        assert trace(inverse(n)) == tn
        nm, mn = matmul(n, m), matmul(m, n)
        lie = tuple(tuple(nm[i][j] - mn[i][j] for j in range(2)) for i in range(2))
        assert (trace(product(n, m, inverse(n), inverse(m))) + _det(lie)
                == 2 * _det(n) * _det(m))
        # the library's arithmetic on object arrays of ints, as the suite uses it
        xi, eta = np.array(n, dtype=object), np.array(m, dtype=object)
        adj_xi, adj_eta = mat2.adjoint(xi), mat2.adjoint(eta)
        ch = xi @ xi - mat2.trace(xi) * xi + mat2.det(xi) * np.eye(2, dtype=object)
        assert not ch.any()
        assert mat2.trace(xi @ eta) + mat2.trace(xi @ adj_eta) == mat2.trace(xi) * mat2.trace(eta)
        assert mat2.trace(adj_xi) == mat2.trace(xi)
        comm = mat2.trace(xi @ eta @ adj_xi @ adj_eta) + mat2.det(lie_product(xi, eta))
        assert type(comm) is int and comm == 2 * _det(n) * _det(m)
        # the private int 4-tuple helpers of the exact word products
        assert mat2._mul(_flat(n), _flat(m)) == _flat(nm)
        assert mat2._adjugate(_flat(n)) == _flat(inverse(n))


class TestLieProduct:
    def test_commuting_pair(self):
        d1 = np.diag([2.0, 0.5]).astype(complex)
        d2 = np.diag([3.0, 1 / 3]).astype(complex)
        assert np.abs(lie_product(d1, d2)).max() == 0

    def test_parabolic_pair_value(self):
        xi = mat2.mat2(1, 1, 0, 1)
        eta = mat2.mat2(1, 0, 1, 1)
        L = lie_product(xi, eta)
        assert np.array_equal(L, np.array([[1, 0], [0, -1]], dtype=complex))
        assert mat2.trace(L) == 0


class TestNormalFormPair:
    def test_prescribed_traces(self):
        for x, y, z in [(1, 1, 1), (0, 0, 0), (2, 2, 2), (1 + 1j, -2, 0.5j)]:
            xi, eta = normal_form_pair(x, y, z)
            assert abs(mat2.trace(xi) - x) <= 1e-12
            assert abs(mat2.trace(eta) - y) <= 1e-12
            assert abs(mat2.trace(xi @ eta) - z) <= 1e-12
            assert abs(mat2.det(xi) - 1) <= 1e-12
            assert abs(mat2.det(eta) - 1) <= 1e-12

    def test_commutator_trace_values(self):
        xi, eta = normal_form_pair(0, 0, 0)
        comm = xi @ eta @ mat2.adjoint(xi) @ mat2.adjoint(eta)
        assert abs(mat2.trace(comm) + 2) <= 1e-12  # kappa(0,0,0) = -2
        xi, eta = normal_form_pair(2, 2, 2)
        comm = xi @ eta @ mat2.adjoint(xi) @ mat2.adjoint(eta)
        assert abs(mat2.trace(comm) - 2) <= 1e-12  # reducible

    def test_boundary_z(self):
        xi, eta = normal_form_pair(1, 1, 2)
        assert abs(mat2.trace(xi @ eta) - 2) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.floats(2, 1e15).flatmap(lambda t: st.sampled_from((t, -t))),
        st.complex_numbers(max_magnitude=1e15, allow_nan=False, allow_infinity=False),
    ))
    def test_product_trace_has_no_cancellation(self, z):
        # f + 1/f = z with f computed without cancelling for Re z < 0 too
        xi, eta = normal_form_pair(1, 2, z)
        assert abs(mat2.trace(xi @ eta) - z) <= 1e-12 * (1 + abs(z))

    @pytest.mark.parametrize("z", [1e200, -1e200, 1e155j])
    def test_overflowing_square_rejected(self, z):
        with pytest.raises(GeometryError, match="degenerate branch value"):
            normal_form_pair(1, 2, z)


class TestConjugatingInvolution:
    @pytest.mark.parametrize("char", [(0, 0, 0), (3, 3, 3)])
    def test_conjugates_to_inverses(self, char):
        xi, eta = normal_form_pair(*char)
        h = conjugating_involution(xi, eta)
        assert np.abs(h @ h + I2).max() <= 1e-9
        hinv = mat2.adjoint(h)
        assert np.abs(h @ xi @ hinv - mat2.adjoint(xi)).max() <= 1e-9
        assert np.abs(h @ eta @ hinv - mat2.adjoint(eta)).max() <= 1e-9

    def test_reducible_pair_rejected(self):
        xi = mat2.mat2(2, 1, 0, 0.5)
        eta = mat2.mat2(3, 2, 0, 1 / 3)
        assert abs(mat2.det(lie_product(xi, eta))) <= 1e-12
        with pytest.raises(ReduciblePairError):
            conjugating_involution(xi, eta)


class TestInvolutionOf:
    def test_diagonal(self):
        out = involution_of(np.diag([2.0, 0.5]).astype(complex))
        assert np.allclose(out, np.diag([1j, -1j]))

    def test_already_traceless(self):
        m = mat2.mat2(0, -1, 1, 0)
        out = involution_of(m)
        assert np.allclose(out, m) or np.allclose(out, -m)

    def test_parabolic_rejected(self):
        with pytest.raises(NotSemisimpleError):
            involution_of(mat2.mat2(1, 1, 0, 1))

    def test_commutes_and_unimodular(self):
        for _ in range(50):
            xi = random_unimodular(RND)
            if abs(mat2.trace(xi) ** 2 - 4) < 1e-6:
                continue
            h = involution_of(xi)
            assert abs(mat2.trace(h)) <= 1e-10
            assert abs(mat2.det(h) - 1) <= 1e-10
            assert np.abs(h @ xi - xi @ h).max() <= 1e-9

    def test_traceless_projection(self):
        for _ in range(20):
            xi = random_unimodular(RND)
            assert abs(mat2.trace(traceless_projection(xi))) <= 1e-12


class TestHat:
    def test_translation_axis(self):
        a = np.diag([np.e, 1 / np.e]).astype(complex)  # l = 2
        assert np.allclose(hat(a), np.diag([1, -1]))

    def test_inverse_flips(self):
        for _ in range(50):
            a = random_real_unimodular(RND)
            if abs(mat2.trace(a).real) <= 2.05:
                continue
            assert np.abs(hat(mat2.adjoint(a)) + hat(a)).max() <= 1e-10

    def test_de_sitter_normalization(self):
        for _ in range(50):
            a = random_real_unimodular(RND)
            if abs(mat2.trace(a).real) <= 2.05:
                continue
            h = hat(a)
            assert abs(mat2.trace(h)) <= 1e-12
            assert abs(mat2.det(h) + 1) <= 1e-10
            assert np.abs(h @ h - I2).max() <= 1e-10

    def test_tracesdot(self):
        n = 0
        while n < 50:
            a = random_real_unimodular(RND)
            b = random_real_unimodular(RND)
            x, y = mat2.trace(a).real, mat2.trace(b).real
            if abs(x) <= 2.05 or abs(y) <= 2.05:
                continue
            n += 1
            z = mat2.trace(a @ b).real
            lhs = ((hat(a) @ hat(b))[0, 0] + (hat(a) @ hat(b))[1, 1]).real / 2
            rhs = (2 * z - x * y) / np.sqrt((x * x - 4) * (y * y - 4))
            assert abs(lhs - rhs) <= 1e-8

    def test_not_hyperbolic(self):
        with pytest.raises(NotHyperbolicError):
            hat(mat2.mat2(1, 1, 0, 1))
        with pytest.raises(GeometryError):
            hat(np.diag([1j, -1j]))


class TestSym2:
    def test_diagonal(self):
        lam = 1.7
        out = sym2(np.diag([lam, 1 / lam]).astype(complex))
        assert np.allclose(out, np.diag([lam**2, 1, lam**-2]))

    def test_identity(self):
        assert np.allclose(sym2(I2), np.eye(3))

    def test_trace_formula(self):
        for _ in range(50):
            xi = random_unimodular(RND)
            assert abs(mat2.trace(xi) ** 2 - 1 - np.trace(sym2(xi))) <= 1e-10

    def test_multiplicative(self):
        for _ in range(50):
            xi, eta = random_unimodular(RND), random_unimodular(RND)
            assert np.abs(sym2(xi @ eta) - sym2(xi) @ sym2(eta)).max() <= 1e-9


class TestGlideReflection:
    def test_diagonal_example(self):
        xi = np.diag([4.0, 0.25]).astype(complex)
        g = glide_reflection_sqrt(xi)
        assert np.allclose(g, np.diag([2, -0.5]))
        assert np.allclose(g @ g, xi)

    def test_square_and_det(self):
        n = 0
        while n < 50:
            a = random_real_unimodular(RND)
            if mat2.trace(a).real <= 2.05:
                continue
            n += 1
            g = glide_reflection_sqrt(a)
            assert np.abs(g @ g - a).max() <= 1e-10
            assert abs(mat2.det(g) + 1) <= 1e-10

    def test_trace_two_rejected(self):
        with pytest.raises(NotHyperbolicError):
            glide_reflection_sqrt(I2)


class TestRealnessTolerance:
    """hat and glide_reflection_sqrt take a matrix as real when every
    imaginary part is at most TOL_CONJUGACY, the bound included."""

    A = mat2.mat2(3, 1, 2, 1)  # trace 4: hyperbolic

    def with_imag(self, im):
        """A with an imaginary part off the diagonal, so its trace stays real."""
        a = self.A.copy()
        a[0, 1] += 1j * im
        return a

    @pytest.mark.parametrize("f", [hat, glide_reflection_sqrt])
    def test_imaginary_part_at_tolerance_accepted(self, f):
        got = f(self.with_imag(mat2.TOL_CONJUGACY))
        assert np.abs(got - f(self.A)).max() <= 2 * mat2.TOL_CONJUGACY

    @pytest.mark.parametrize("f", [hat, glide_reflection_sqrt])
    @pytest.mark.parametrize("im", [np.nextafter(mat2.TOL_CONJUGACY, 1), -1e-6, np.nan])
    def test_imaginary_part_past_tolerance_rejected(self, f, im):
        with pytest.raises(GeometryError, match="requires a real matrix"):
            f(self.with_imag(im))


class TestJson:
    def test_round_trip(self):
        m = random_unimodular(RND)
        again = mat2.matrix_from_json(mat2.matrix_to_json(m))
        assert np.abs(m - again).max() == 0

    def test_format_complex(self):
        assert mat2.format_complex(1 + 2j) == "1+2i"
        assert mat2.format_complex(-0.5 - 1.25j) == "-0.5-1.25i"


def _numpy_sign_normalize(m):
    """``sign_normalize`` as it was written on numpy arrays: the reference
    for arrays and 4-tuples, NaN moduli and overflowing ones included."""
    with np.errstate(over="ignore"):
        eps = 1e-13 * max(1.0, float(np.abs(m).max()))
        for v in m.reshape(-1):
            if abs(v) > eps:
                if v.real > eps or (abs(v.real) <= eps and v.imag > 0):
                    return m
                return -m
    return m


def _numpy_det(m):
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def _numpy_inverse(m):
    if not abs(_numpy_det(m) - 1) <= mat2.TOL_CONJUGACY:
        raise GeometryError(f"matrix is not unimodular: det = {_numpy_det(m)}")
    return mat2.adjoint(m)


def _numpy_traceless_projection(m):
    return m - ((m[0, 0] + m[1, 1]) / 2) * np.eye(2, dtype=complex)


def _numpy_involution_of(m):
    t = m[0, 0] + m[1, 1]
    if abs(t * t - 4) <= mat2.TOL_CONJUGACY:
        raise NotSemisimpleError(f"parabolic or central input: tr = {t}")
    return _numpy_sign_normalize(_numpy_traceless_projection(m) * (2 / mat2.principal_sqrt(4 - t * t)))


def _numpy_glide_reflection_sqrt(m):
    t = m[0, 0] + m[1, 1]
    if abs(t.imag) > mat2.TOL_CONJUGACY or not np.abs(m.imag).max() <= mat2.TOL_CONJUGACY:
        raise GeometryError("glide_reflection_sqrt() requires a real matrix")
    if t.real <= 2 + mat2.TOL_CONJUGACY:
        raise NotHyperbolicError(f"trace must exceed 2, got {t.real}")
    return (m - np.eye(2, dtype=complex)) / np.sqrt(t.real - 2)


def _numpy_sym2(m):
    (a, b), (c, d) = m
    return np.array([[a * a, a * b, b * b], [2 * a * c, a * d + b * c, 2 * b * d],
                     [c * c, c * d, d * d]], dtype=complex)


#: The one-matrix functions as they were written on numpy arrays: the
#: reference, signed zeros and NaNs included, for arrays and 4-tuples.
_NUMPY_ONE_MATRIX = {
    mat2.trace: lambda m: m[0, 0] + m[1, 1], mat2.det: _numpy_det, mat2.inverse: _numpy_inverse,
    traceless_projection: _numpy_traceless_projection, involution_of: _numpy_involution_of,
    glide_reflection_sqrt: _numpy_glide_reflection_sqrt, sym2: _numpy_sym2,
}


def _outcome(f, *args):
    """The bits of each entry of f(*args), or of the scalar it returns, or
    the error it raises."""
    try:
        out = f(*args)
    except GeometryError as exc:
        return type(exc).__name__, str(exc)
    entries = mat2._entries(out)
    return [_bits(v) for v in (entries if isinstance(entries, tuple) else (entries,))]


def _kernel_matrices():
    """Seeded arrays and the inputs the golden predicate corpus feeds
    ``hat`` and ``sign_normalize``: near-zero first entries, imaginary
    parts at and past the realness tolerance, NaN, moduli past the float
    range, and signed zeros."""
    rnd = random.Random(38)
    mats = [I2, -I2, mat2.mat2(1, 1, 0, 1), mat2.mat2(0, -1, 1, 0), mat2.mat2(2, 1, 1, 1),
            mat2.mat2(1 + 1e-10, 0, 0, 1 / (1 + 1e-10)), mat2.mat2(1, 2, 3, 4)]
    mats += [random_unimodular(rnd) for _ in range(20)]
    mats += [random_real_unimodular(rnd) for _ in range(20)]
    mats += [mat2.mat2(first, 1, -1, 0) for first in (-5e-13, -5e-14, 5e-14 + 1e-13j,
                                                      -2e-13 - 1j, 0.0, -0.0)]
    for im in (0.0, 5e-10, mat2.TOL_CONJUGACY, np.nextafter(mat2.TOL_CONJUGACY, 1), 1e-6,
               np.nan):
        mats.append(mat2.mat2(3 + 1j * im, 1, 2, 1))
    mats += [mat2.mat2(np.nan, -1, 1, 0), mat2.mat2(-5e-13, np.nan, 10, 0),
             mat2.mat2(0, 1e-14, complex(np.nan, 1), -1),
             mat2.mat2(complex(1e308, 1e308), -1, 0, 1), mat2.mat2(-1e-300, 1e308, 1, 0)]
    mats += [mat2.mat2(3, -0.0, 1, 1), mat2.mat2(-3, -0.0, complex(0.0, -0.0), -1),
             mat2.mat2(complex(-0.0, -1), complex(-0.0, -0.0), 0.0, complex(-0.0, -1)),
             mat2.mat2(-0.0, 1, -1, complex(-0.0, -0.0))]
    return mats


def _agree(f, *mats):
    """f on the arrays ``mats`` and on their 4-tuples gives the same bits,
    or the same error; where the arrays give a 2x2 array the 4-tuples give
    a tuple, and otherwise what the arrays give (a 3x3 array, a scalar)."""
    rows = [mat2._entries(m) for m in mats]
    assert _outcome(f, *mats) == _outcome(f, *rows)
    if not isinstance(_outcome(f, *rows)[0], str):
        want = f(*mats)
        assert type(f(*rows)) is (tuple if getattr(want, "shape", None) == (2, 2) else type(want))


class TestArrayWrappersMatchKernels:
    """Every 2x2 function of ``mat2`` gives an array the bits it gives its
    4-tuple, and a 4-tuple a 4-tuple where an array gives a 2x2 array."""

    @pytest.mark.parametrize("m", _kernel_matrices())
    def test_hat(self, m):
        _agree(hat, m)
        if not isinstance(_outcome(hat, m)[0], str):
            assert hat(m).dtype == np.complex128

    @pytest.mark.parametrize("m", _kernel_matrices())
    def test_sign_normalize(self, m):
        _agree(mat2.sign_normalize, m)
        got, want = mat2.sign_normalize(m), _numpy_sign_normalize(m)
        assert got.dtype == m.dtype and _outcome(lambda a: a, got) == _outcome(lambda a: a, want)

    def test_sign_normalize_keeps_dtype_and_identity(self):
        for m in (np.array([[0, -1], [1, 0]]), np.array([[Fraction(-1, 3), 1], [-1, 0]],
                                                        dtype=object)):
            got = mat2.sign_normalize(m)
            assert got.dtype == m.dtype and got.tolist() == (-m).tolist()
            n = mat2._entries(m)
            assert mat2.sign_normalize(n) == tuple(got.flat)
        m = mat2.mat2(2, 1, 1, 1)
        assert mat2.sign_normalize(m) is m
        n = mat2._entries(m)
        assert mat2.sign_normalize(n) is n

    def test_conjugating_involution(self):
        rnd = random.Random(3801)
        pairs = [(random_unimodular(rnd), random_unimodular(rnd)) for _ in range(30)]
        pairs.append((mat2.mat2(2, 1, 0, 0.5), mat2.mat2(3, 0, 0, 1 / 3)))  # reducible
        for xi, eta in pairs:
            _agree(conjugating_involution, xi, eta)

    @pytest.mark.parametrize("f", [mat2.trace, mat2.det, mat2.inverse, traceless_projection,
                                   involution_of, glide_reflection_sqrt, sym2])
    def test_one_matrix_functions(self, f):
        for m in _kernel_matrices():
            _agree(f, m)
            if f in (mat2.trace, mat2.det):  # a plain scalar, not numpy's
                assert type(f(m)) is complex
            with np.errstate(all="ignore"):
                got, want = _outcome(f, m), _outcome(_NUMPY_ONE_MATRIX[f], m)
                if f is not involution_of or isinstance(want[0], str):
                    assert got == want, m
                    continue
                # numpy's complex product may fuse a multiply-add, by CPU
                new, old = f(m).ravel(), _NUMPY_ONE_MATRIX[f](m).ravel()
            assert (np.isnan(new) == np.isnan(old)).all(), m
            ok = ~np.isnan(old)
            assert np.abs(new - old)[ok].max(initial=0) <= 4e-16 * np.abs(old[ok]).max(initial=0)

    def test_one_matrix_functions_on_exact_4_tuples(self):
        rnd = random.Random(4101)
        for _ in range(30):
            n, d = random_rational_unimodular(rnd)
            m = tuple(Fraction(v, d) for v in n)
            array = np.array(m, dtype=object).reshape(2, 2)
            assert mat2.trace(m) == mat2.trace(array) == m[0] + m[3]
            assert mat2.det(m) == mat2.det(array) == 1
            for f in (mat2.inverse, traceless_projection):
                got = f(m)
                assert type(got) is tuple and got == tuple(f(array).flat)
                assert all(type(v) is Fraction for v in got)

    def test_lie_product_and_adjoint(self):
        rnd = random.Random(3802)
        for xi, eta in [(random_unimodular(rnd), random_unimodular(rnd)) for _ in range(30)]:
            _agree(lie_product, xi, eta)
            _agree(mat2.adjoint, xi)
        for _ in range(30):  # int numerators N, and the Fractions N / d
            (n, d), (k, e) = random_rational_unimodular(rnd), random_rational_unimodular(rnd)
            for xi, eta in ((n, k), (tuple(Fraction(v, d) for v in n),
                                     tuple(Fraction(v, e) for v in k))):
                arrays = [np.array(m, dtype=object).reshape(2, 2) for m in (xi, eta)]
                lie, adj = lie_product(xi, eta), mat2.adjoint(xi)
                assert type(lie) is tuple and lie == tuple(lie_product(*arrays).flat)
                assert type(adj) is tuple and adj == tuple(mat2.adjoint(arrays[0]).flat)
                assert all(type(v) is type(xi[0]) for v in lie + adj)
                ab, ba = (matmul((p[:2], p[2:]), (q[:2], q[2:])) for p, q in ((xi, eta), (eta, xi)))
                assert lie == tuple(u - v for r, s in zip(ab, ba) for u, v in zip(r, s))
                det = xi[0] * xi[3] - xi[1] * xi[2]
                assert mat2._mul(xi, adj) == (det, 0, 0, det)
