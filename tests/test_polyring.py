import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from slchar import covers, polyring, tracepoly
from slchar.polyring import (
    F2_VARS,
    F3_VARS,
    PHI,
    PRODUCT_RELATION,
    S12_VARS,
    SUM_RELATION,
    WIDTH,
    _SHARED_TUPLES,
    Polynomial,
    VariableSet,
    reduce_mod_phi,
    sum_product,
)
from slchar.words import MAX_WORD_LETTERS, Word
from tuple2x2 import SL2, product, trace


def V(name, vars_=F2_VARS):
    return Polynomial.variable(vars_, name)


def rand_poly(rnd, vars_, nterms=6, maxdeg=3):
    terms = {}
    for _ in range(rnd.randint(1, nterms)):
        e = tuple(rnd.randint(0, maxdeg) for _ in vars_)
        terms[e] = Fraction(rnd.randint(-9, 9), rnd.choice([1, 1, 2, 3]))
    return Polynomial(vars_, terms)


class TestArithmetic:
    def test_product_of_conjugates(self):
        x, y = V("x"), V("y")
        assert (x + y) * (x - y) == x * x - y * y

    def test_kappa_at_origin(self):
        x, y, z = V("x"), V("y"), V("z")
        kappa = x * x + y * y + z * z - x * y * z - 2
        assert kappa.evaluate({"x": 0, "y": 0, "z": 0}) == -2

    def test_substitute_basic_identity_flip(self):
        # substituting z -> xy - z' into xy - z leaves z'
        target = VariableSet(("x", "y", "zp"))
        x, y, z = V("x"), V("y"), V("z")
        xt, yt, zpt = (Polynomial.variable(target, n) for n in target)
        image = (x * y - z).substitute({"z": xt * yt - zpt}, target=target)
        assert image == zpt

    def test_substitute_cancels_one_term_images(self):
        # source terms that land on one key: the sum is kept in normal form
        x, y, z = V("x"), V("y"), V("z")
        one, zero = Polynomial.constant(F2_VARS, 1), Polynomial.zero(F2_VARS)
        assert (x - y).substitute({"x": y}).is_zero()
        assert (x * z + y * z - 2 * z).substitute({"x": one, "y": one}).is_zero()
        assert (x * z - Fraction(1, 2) * y**2 * z).substitute(
            {"x": y**2 * Fraction(1, 2)}).is_zero()
        image = (x * y + x**2 * z + z - 3).substitute({"x": zero, "y": -x})
        assert image == z - 3 and all(image._terms.values())

    def test_ring_axioms_random(self):
        rnd = random.Random(3)
        for _ in range(60):
            a, b, c = (rand_poly(rnd, F2_VARS) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a

    def test_pow(self):
        x = V("x")
        assert x**0 == Polynomial.constant(F2_VARS, 1)
        assert (x + 1) ** 3 == x**3 + 3 * x * x + 3 * x + 1

    def test_scale_keeps_exactness(self):
        p = V("x").scale(Fraction(1, 2))
        assert p.coefficient((1, 0, 0)) == Fraction(1, 2)

    def test_incompatible_varsets(self):
        with pytest.raises(ValueError):
            V("x") + V("x1", F3_VARS)

    def test_unbound_variable(self):
        # a declared variable that does not occur must be bound too
        p = V("x") * V("y") - 2
        for point in ({"y": 1, "z": 1}, {"x": 1, "y": 2}):
            missing = ({"x", "y", "z"} - set(point)).pop()
            for evaluate in (V("x").evaluate, p.evaluate, p.evaluate_exact):
                with pytest.raises(KeyError, match=f"variable '{missing}' not bound in assignment"):
                    evaluate(point)


class TestEvaluation:
    def test_substitute_evaluate_consistency(self):
        rnd = random.Random(4)
        for _ in range(40):
            p = rand_poly(rnd, F2_VARS, nterms=4, maxdeg=2)
            target = VariableSet(("u", "v"))
            mapping = {
                n: rand_poly(rnd, target, nterms=3, maxdeg=2) for n in F2_VARS
            }
            q = p.substitute(mapping, target=target)
            point = {"u": complex(rnd.uniform(-1, 1), rnd.uniform(-1, 1)),
                     "v": complex(rnd.uniform(-1, 1), rnd.uniform(-1, 1))}
            through = {n: mapping[n].evaluate(point) for n in F2_VARS}
            lhs = q.evaluate(point)
            rhs = p.evaluate(through)
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))

    def test_evaluate_exact(self):
        p = V("x") * V("y") - 2
        val = p.evaluate_exact({"x": Fraction(1, 3), "y": Fraction(3, 5), "z": 0})
        assert val == Fraction(1, 5) - 2


class TestCanonicalForm:
    def test_text_form(self):
        x, y, z = V("x"), V("y"), V("z")
        p = x * x * y * Fraction(3, 2) - z + 1
        assert p.to_text() == "3/2*x^2*y - z + 1"

    def test_zero(self):
        assert Polynomial.zero(F2_VARS).to_text() == "0"

    def test_graded_lex_order(self):
        x, y = V("x"), V("y")
        p = x + y * y
        exps = [e for e, _ in p.terms()]
        assert exps == [(0, 2, 0), (1, 0, 0)]

    def test_json_round_trip(self):
        rnd = random.Random(5)
        for _ in range(20):
            p = rand_poly(rnd, F3_VARS)
            assert Polynomial.from_json(p.to_json()) == p


class TestReduceModPhi:
    def test_phi_reduces_to_zero(self):
        assert reduce_mod_phi(PHI).is_zero()

    def test_x123_squared(self):
        x123 = Polynomial.variable(F3_VARS, "x123")
        reduced = reduce_mod_phi(x123 * x123)
        assert reduced == SUM_RELATION * x123 - PRODUCT_RELATION
        assert reduced.degree_in("x123") <= 1

    def test_low_degree_unchanged(self):
        rnd = random.Random(6)
        for _ in range(30):
            p = rand_poly(rnd, F3_VARS, maxdeg=1)
            if p.degree_in("x123") <= 1:
                assert reduce_mod_phi(p) == p

    def test_ideal_membership(self):
        rnd = random.Random(7)
        for _ in range(30):
            p = rand_poly(rnd, F3_VARS, nterms=4, maxdeg=2)
            q = rand_poly(rnd, F3_VARS, nterms=4, maxdeg=1)
            assert reduce_mod_phi(p * PHI + q) == reduce_mod_phi(q)

    def test_wrong_varset_rejected(self):
        with pytest.raises(ValueError):
            reduce_mod_phi(V("x"))


class TestVariableSet:
    def test_distinct_names(self):
        with pytest.raises(ValueError):
            VariableSet(("x", "x"))

    def test_unknown_variable(self):
        with pytest.raises(KeyError):
            F2_VARS.index("q")


# -- normal-form invariant and independent oracles (hypothesis, sympy) ------

COEFFS = st.fractions(min_value=-9, max_value=9, max_denominator=4)
TARGET = VariableSet(("u", "v", "w"))


def polys(vars_, max_terms=6, max_deg=3, degrees=None):
    degrees = degrees or {}
    exps = st.tuples(*[st.integers(0, degrees.get(n, max_deg)) for n in vars_])
    return st.dictionaries(exps, COEFFS, max_size=max_terms).map(
        lambda terms: Polynomial(vars_, terms)
    )


def one_term_images(target):
    """Images of at most one term: a variable times 1, a negative int or a
    Fraction, a monomial, a constant, or zero."""
    scaled = st.tuples(st.sampled_from(target.names),
                       st.sampled_from((1, -1, -3, Fraction(2, 3), Fraction(-5, 2))))
    return st.one_of(
        scaled.map(lambda t: Polynomial.variable(target, t[0]).scale(t[1])),
        polys(target, max_terms=1, max_deg=2),
        COEFFS.map(lambda c: Polynomial.constant(target, c)),
        st.just(Polynomial.zero(target)),
    )


def assert_normal_form(p):
    n = len(p.variables)
    for e, c in p._terms.items():
        assert type(e) is int
        exp = p.variables._unpack(e)
        assert len(exp) == n and p.variables._pack(exp) == e
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


def naive_mul(a, b):
    """Product of two tuple-keyed term dicts, one pair of terms at a time."""
    prod = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            prod[key] = prod.get(key, 0) + ca * cb
    return prod


def naive_add(a, b):
    total = dict(a)
    for key, v in b.items():
        total[key] = total.get(key, 0) + v
    return total


def naive_pow(a, k, nvars):
    out = {(0,) * nvars: 1}
    for _ in range(k):
        out = naive_mul(out, a)
    return out


def naive_substitute(p, mapping, target):
    """Term-by-term expansion on plain dicts, one factor at a time."""
    total = {}
    for e, c in p.terms():
        term = {(0,) * len(target): c}
        for name, k in zip(p.variables, e):
            img = mapping[name] if name in mapping else Polynomial.variable(target, name)
            term = naive_mul(term, naive_pow(dict(img.terms()), k, len(target)))
        total = naive_add(total, term)
    return Polynomial(target, total)


def naive_reduce_mod_phi(p):
    """Replace x123^2 (the last exponent) by SUM_RELATION*x123 - PRODUCT_RELATION
    until no term has x123-degree above one."""
    x123 = {(0,) * 6 + (1,): 1}
    square = naive_add(naive_mul(dict(SUM_RELATION.terms()), x123),
                       {e: -c for e, c in PRODUCT_RELATION.terms()})
    terms = dict(p.terms())
    while any(e[-1] > 1 for e in terms):
        high = {e[:-1] + (e[-1] - 2,): c for e, c in terms.items() if e[-1] > 1}
        terms = naive_add({e: c for e, c in terms.items() if e[-1] <= 1},
                          naive_mul(high, square))
    return Polynomial(F3_VARS, terms)


def naive_evaluate_exact(p, point):
    """Term by term in Fractions, one power at a time."""
    total = Fraction(0)
    for e, c in p.terms():
        term = c
        for name, k in zip(p.variables, e):
            term *= Fraction(point[name]) ** k
        total += term
    return total


def reference_evaluate(p, point):
    """``evaluate`` as first written: per term in canonical order, complex(c)
    times v**k for each nonzero exponent in declared variable order, summed
    from 0j."""
    vals = [complex(point[n]) for n in p.variables]
    total = 0j
    for e, c in p.terms():
        term = complex(c)
        for v, k in zip(vals, e):
            if k:
                term *= v**k
        total += term
    return total


def same_complex(a, b):
    """Equal part by part, NaN to NaN, with the signs of zeros."""
    return all((x == y or math.isnan(x) and math.isnan(y))
               and math.copysign(1, x) == math.copysign(1, y)
               for x, y in ((a.real, b.real), (a.imag, b.imag)))


#: Complex values: signed zeros, negative reals, values whose powers
#: overflow, and non-finite ones.
COMPLEX_VALUES = st.one_of(
    st.sampled_from((0, 0.0, -0.0, complex(-0.0, -1.0), complex(0.0, -0.0), complex(-0.0, 0.0),
                     -1.5, -2, 1e200, complex(1e-200, -1e200), complex("inf"),
                     complex("nan"), complex(float("inf"), float("inf")))),
    st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
)

#: Rational values: zero and negative ints, Fractions with denominators up to 10**9.
VALUES = st.one_of(st.integers(-3, 3),
                   st.fractions(min_value=-20, max_value=20, max_denominator=10**9))


def to_sympy(p, gens=None):
    """``p`` as a sympy Poly over QQ in ``gens`` (default: its own variables)."""
    names = p.variables.names
    gens = gens or sympy.symbols(names)
    order = [names.index(str(g)) for g in gens]
    terms = {tuple(e[i] for i in order): sympy.QQ(c.numerator, c.denominator)
             for e, c in p.terms()}
    return sympy.Poly.from_dict(terms, *gens, domain=sympy.QQ)


class TestNormalForm:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((F2_VARS, F3_VARS)), st.data())
    def test_arithmetic_results(self, vars_, data):
        a, b = data.draw(polys(vars_)), data.draw(polys(vars_))
        c, k = data.draw(COEFFS), data.draw(st.integers(0, 3))
        renamed = VariableSet(f"t{i}" for i in range(len(vars_)))
        for r in (a + b, a - b, -a, a * b, a.scale(c), a * c, a + c, c - a, a**k,
                  a + (-a), a.rename_variables(renamed)):
            assert_normal_form(r)
        assert (a + (-a)).is_zero()

    @settings(max_examples=40, deadline=None)
    @given(polys(F3_VARS, max_deg=2, degrees={"x123": 4}), polys(F3_VARS, max_deg=1))
    def test_reduce_mod_phi_result(self, a, b):
        assert_normal_form(reduce_mod_phi(a * b))
        assert_normal_form(reduce_mod_phi(a))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((F2_VARS, F3_VARS)), st.data())
    def test_substitute_matches_naive_reference(self, source, data):
        p = data.draw(polys(source, max_terms=5, max_deg=3 if source is F2_VARS else 1))
        target = data.draw(st.sampled_from((source, TARGET)))
        if target is TARGET:
            names = set(source.names)
        else:  # unmapped variables are carried over by name
            names = data.draw(st.sets(st.sampled_from(source.names), min_size=1))
        mapping = {n: data.draw(polys(target, max_terms=3, max_deg=2)) for n in names}
        q = p.substitute(mapping, target=target)
        assert_normal_form(q)
        assert q == naive_substitute(p, mapping, target)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((F3_VARS, TARGET)), st.data())
    def test_substitute_one_term_images_match_naive_reference(self, target, data):
        # rank-3 sources of higher degree, under images that mix one-term
        # ones (keys added, coefficients raised) with several-term ones
        p = data.draw(polys(F3_VARS, max_terms=6, max_deg=4))
        names = F3_VARS.names if target is TARGET else data.draw(
            st.sets(st.sampled_from(F3_VARS.names), min_size=1))
        mapping = {n: data.draw(st.one_of(one_term_images(target),
                                          polys(target, max_terms=3, max_deg=1)))
                   for n in names}
        q = p.substitute(mapping, target=target)
        assert_normal_form(q)
        assert q == naive_substitute(p, mapping, target)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_substitute_power_lists_match_naive_reference(self, data):
        # two or three several-term images, whose exponents 0-6 the groups
        # need in mixed order, so that each power list grows across groups
        several = data.draw(st.sets(st.sampled_from(F3_VARS.names), min_size=2, max_size=3))
        image = st.dictionaries(st.tuples(*[st.integers(0, 1)] * 3), COEFFS.filter(bool),
                                min_size=2, max_size=3).map(lambda t: Polynomial(TARGET, t))
        mapping = {n: data.draw(image if n in several else one_term_images(TARGET))
                   for n in F3_VARS}
        exps = st.tuples(*[st.integers(0, 6 if n in several else 1) for n in F3_VARS])
        p = Polynomial(F3_VARS, data.draw(st.dictionaries(exps, COEFFS, max_size=8)))
        q = p.substitute(mapping, target=TARGET)
        assert_normal_form(q)
        assert q == naive_substitute(p, mapping, TARGET)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((F2_VARS, F3_VARS)), st.data())
    def test_packed_arithmetic_matches_tuple_reference(self, vars_, data):
        a, b = data.draw(polys(vars_)), data.draw(polys(vars_))
        k = data.draw(st.integers(0, 4))
        ta, tb = dict(a.terms()), dict(b.terms())
        assert a * b == Polynomial(vars_, naive_mul(ta, tb))
        assert a + b == Polynomial(vars_, naive_add(ta, tb))
        assert a**k == Polynomial(vars_, naive_pow(ta, k, len(vars_)))

    @settings(max_examples=40, deadline=None)
    @given(polys(F3_VARS, max_deg=2, degrees={"x123": 6}))
    def test_reduce_mod_phi_matches_tuple_reference(self, p):
        assert reduce_mod_phi(p) == naive_reduce_mod_phi(p)

    @settings(max_examples=10, deadline=None)
    @given(polys(F3_VARS, max_terms=3, max_deg=1, degrees={"x123": 10}))
    @example(Polynomial(F3_VARS, {(0, 0, 0, 0, 0, 0, 10): 1, (1, 0, 0, 0, 1, 0, 9): -2}))
    def test_reduce_mod_phi_to_deck_squared_degree(self, p):
        # deck(deck(p)) reaches x123 degree 10 before its last reduction (the
        # reference needs about a second for x123^10, hence few examples)
        q = reduce_mod_phi(p)
        assert_normal_form(q)
        assert q == naive_reduce_mod_phi(p)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((F2_VARS, F3_VARS, S12_VARS)), st.data())
    def test_terms_in_graded_lex_order(self, vars_, data):
        # exponents up to 30000 keep the degree of 8 variables inside a field
        p = data.draw(polys(vars_, max_terms=8, max_deg=data.draw(st.sampled_from((2, 30000)))))
        exps = [e for e, _ in p.terms()]
        assert exps == sorted(exps, key=lambda e: (sum(e), e), reverse=True)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from((F2_VARS, F3_VARS, S12_VARS)), st.data())
    def test_evaluate_exact_matches_term_by_term_sum(self, vars_, data):
        p = data.draw(polys(vars_, max_terms=8, max_deg=5))
        point = {n: data.draw(VALUES) for n in vars_}
        got = p.evaluate_exact(point)
        assert type(got) is Fraction and got == naive_evaluate_exact(p, point)

    def test_evaluate_exact_powers_per_variable(self):
        # equal exponents of different variables must not share a cached power
        x, y, z = V("x"), V("y"), V("z")
        p = x**2 * y**2 + 3 * x * y - Fraction(1, 2) * z**2 + x**3
        point = {"x": Fraction(-2, 3), "y": Fraction(5, 7), "z": 0}
        assert p.evaluate_exact(point) == naive_evaluate_exact(p, point)
        assert Polynomial.zero(F2_VARS).evaluate_exact(point) == 0
        assert Polynomial.constant(F2_VARS, Fraction(3, 4)).evaluate_exact(point) == Fraction(3, 4)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((F2_VARS, F3_VARS, S12_VARS)), st.data())
    def test_evaluate_exact_with_missing_variables(self, vars_, data):
        # every denominator above one, so a term that lacks a variable must
        # still carry that variable's d^top
        p = data.draw(polys(vars_, max_terms=6, max_deg=4)) + data.draw(COEFFS)
        point = {n: data.draw(VALUES.map(lambda v: v + Fraction(1, 2)
                                         if Fraction(v).denominator == 1 else v))
                 for n in vars_}
        assert p.evaluate_exact(point) == naive_evaluate_exact(p, point)
        # unreduced numerators and denominators give the same value
        g = data.draw(st.integers(2, 9))
        nums = [Fraction(point[n]).numerator * g for n in vars_]
        dens = [Fraction(point[n]).denominator * g for n in vars_]
        assert Fraction(*p._evaluate_ratio(nums, dens)) == naive_evaluate_exact(p, point)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from((F2_VARS, F3_VARS, S12_VARS)), st.data())
    def test_evaluate_ratio_is_the_exact_value_over_a_positive_denominator(self, vars_, data):
        p = data.draw(st.one_of(
            st.just(Polynomial.zero(vars_)),
            st.one_of(st.integers(-9, 9), COEFFS).map(lambda c: Polynomial.constant(vars_, c)),
            polys(vars_, max_terms=6, max_deg=4),
        ))
        point = {n: Fraction(data.draw(VALUES)) for n in vars_}
        # each numerator and denominator scaled by its own factor: not reduced
        gs = [data.draw(st.integers(1, 9)) for _ in vars_]
        nums = [point[n].numerator * g for n, g in zip(vars_, gs)]
        dens = [point[n].denominator * g for n, g in zip(vars_, gs)]
        num, den = p._evaluate_ratio(nums, dens)
        assert type(den) is int and den > 0
        assert Fraction(num, den) == p.evaluate_exact(point) == naive_evaluate_exact(p, point)

    def test_evaluate_ratio_of_zero_and_constants(self):
        nums, dens = [3, -4, 0], [6, 10, 7]
        assert Polynomial.zero(F2_VARS)._evaluate_ratio(nums, dens) == (0, 1)
        assert Polynomial.constant(F2_VARS, -5)._evaluate_ratio(nums, dens) == (-5, 1)
        x = Polynomial.variable(F2_VARS, "x")
        assert (x * x - 1)._evaluate_ratio(nums, dens) == (9 - 36, 36)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from((F2_VARS, F3_VARS, S12_VARS)), st.data())
    def test_evaluate_matches_reference_bit_for_bit(self, vars_, data):
        p = data.draw(polys(vars_, max_terms=8, max_deg=4))
        point = {n: data.draw(COMPLEX_VALUES) for n in vars_}
        try:
            want = reference_evaluate(p, point)
        except OverflowError as exc:
            with pytest.raises(OverflowError, match=str(exc)):
                p.evaluate(point)
            return
        for _ in range(2):  # building the plan, then reading it
            got = p.evaluate(point)
            assert type(got) is complex and same_complex(got, want), (got, want)

    def test_shared_tuples_bounded(self):
        vars_ = VariableSet(("a", "b"))
        for n in range(_SHARED_TUPLES + 10):
            p = Polynomial(vars_, {(n + 1, 1): 1, (0, 0): 2})
            assert p.evaluate({"a": 1, "b": 2}) == 4
            assert len(vars_._tuples) <= _SHARED_TUPLES

    def test_largest_product_that_fits(self):
        top = (1 << WIDTH) - 1  # the largest degree a field holds
        a = Polynomial(F2_VARS, {(top // 2, 0, 0): 3, (0, 1, 0): -1})
        b = Polynomial(F2_VARS, {(top - top // 2 - 1, 0, 1): Fraction(1, 2), (0, 0, 0): 2})
        assert a * b == Polynomial(F2_VARS, naive_mul(dict(a.terms()), dict(b.terms())))
        assert (a * b).coefficient((top // 2, 0, 0)) == 6
        assert V("x") ** top == Polynomial(F2_VARS, {(top, 0, 0): 1})
        over = b * V("y")
        with pytest.raises(OverflowError):
            a * over
        with pytest.raises(OverflowError):
            V("x") ** (top + 1)
        with pytest.raises(OverflowError):
            (V("x") ** 2).substitute({"x": V("x") ** (top // 2 + 1)}, target=F2_VARS)
        with pytest.raises(OverflowError):
            reduce_mod_phi(Polynomial(F3_VARS, {(top - 2, 0, 0, 0, 0, 0, 2): 1}))
        with pytest.raises(OverflowError):
            tracepoly.trace_poly(Word(1, (1,) * (1 << WIDTH)))

    def test_summed_one_term_keys_overflow(self):
        # each image fits its field alone, but the key they sum to does not
        top = (1 << WIDTH) - 1
        x, y = V("x"), V("y")
        fits = (x * y).substitute({"x": x ** (top // 2), "y": x ** (top // 2 + 1)}, F2_VARS)
        assert fits == x**top
        too_high = {"x": x ** (top // 2 + 1), "y": x ** (top // 2 + 1)}
        with pytest.raises(OverflowError, match="product degree exceeds"):
            (x * y).substitute(too_high, target=F2_VARS)
        with pytest.raises(OverflowError, match="product degree exceeds"):
            (x * y - x**2).substitute(too_high, target=F2_VARS)  # even if the terms cancel

    def test_product_through_several_term_images_overflows(self):
        # Horner's rule multiplies by the several-term images: a product
        # reaching degree 2**WIDTH - 1 fits, one degree more does not
        top = (1 << WIDTH) - 1
        h = top // 2
        x, y = V("x"), V("y")
        for low in (y, 0):  # y's image of two terms, then of one
            fits = {"x": x**h + 1, "y": x ** (h + 1) + low}
            got = (x * y + y).substitute(fits, target=F2_VARS)
            assert got == (x**h + 1) * (x ** (h + 1) + low) + x ** (h + 1) + low
            assert max(sum(e) for e, _ in got.terms()) == top
            too_high = {"x": x**h + 1, "y": x ** (h + 2) + low}
            with pytest.raises(OverflowError, match="product degree exceeds"):
                (x * y + y).substitute(too_high, target=F2_VARS)
        # a group whose terms cancel is multiplied by nothing, so it cannot overflow
        cancels = x**2 * y - x**2 * V("z")
        assert cancels.substitute({"x": x ** (h + 1) + 1, "z": y}, F2_VARS).is_zero()

    def test_zero_and_negative_fraction_images(self):
        x, y, z = V("x"), V("y"), V("z")
        c = Fraction(-3, 2)
        p = x * y**2 * z + 2 * y**3 + x**2 - 5
        mapping = {"x": Polynomial.zero(F2_VARS), "y": (z * x).scale(c), "z": x + z}
        got = p.substitute(mapping, target=F2_VARS)
        assert_normal_form(got)
        assert got == 2 * c**3 * (z * x) ** 3 - 5
        assert got == naive_substitute(p, mapping, F2_VARS)
        mapping["x"] = y.scale(c)  # now every image but z's is one scaled term
        got = p.substitute(mapping, target=F2_VARS)
        assert got == c**3 * y * (z * x) ** 2 * (x + z) + 2 * c**3 * (z * x) ** 3 + c**2 * y**2 - 5
        assert got == naive_substitute(p, mapping, F2_VARS)

    def test_fields_read_in_full(self):
        k = 1 << WIDTH - 1  # only the top bit of the field is set
        p = Polynomial(F2_VARS, {(k, 1, 0): 1})
        assert p.degree_in("x") == k and p.degree_in("y") == 1
        assert p.evaluate_exact({"x": 2, "y": 3, "z": 5}) == 3 * 2**k
        value = p.evaluate({"x": 1 + 1e-6, "y": 1, "z": 1})
        assert value == pytest.approx(math.exp(k * math.log1p(1e-6)), rel=1e-9)

    @pytest.mark.parametrize("exp", [(1 << WIDTH, 0, 0), (1 << WIDTH - 1, 1 << WIDTH - 1, 0),
                                     (-1, 0, 0), (2, -1, 0)])
    def test_exponent_that_does_not_fit_rejected(self, exp):
        with pytest.raises(ValueError):
            Polynomial(F2_VARS, {exp: 1})
        with pytest.raises(ValueError):
            Polynomial.from_json({"variables": ["x", "y", "z"],
                                  "terms": [{"exp": list(exp), "num": 1}]})

    def test_field_width_covers_word_traces(self):
        # a word's trace has total degree at most its length, so a product of
        # two traces of the longest accepted words must still fit a field
        assert 2 * MAX_WORD_LETTERS < 1 << WIDTH
        rnd = random.Random(8)
        for rank in (1, 2, 3):
            for length in (1, 5, 12):
                letters = [rnd.choice([g for g in range(-rank, rank + 1) if g])
                           for _ in range(length)]
                p = tracepoly.trace_poly(Word(rank, tuple(letters)))
                assert max((sum(e) for e, _ in p.terms()), default=0) <= length

    def test_wrong_exponent_length_rejected(self):
        with pytest.raises(ValueError):
            Polynomial(F2_VARS, {(1, 0): 1})
        with pytest.raises(ValueError):
            Polynomial.from_json({"variables": ["x", "y", "z"],
                                  "terms": [{"exp": [1, 2, 3, 4], "num": 1}]})


class TestCoversAgainstReference:
    @pytest.mark.parametrize("key", sorted(covers.COVERS))
    @settings(max_examples=10, deadline=None)  # the reference needs up to a second
    @given(data=st.data())
    def test_apply_poly_matches_naive_reference(self, key, data):
        # exponents 0-6 on the variables whose images have several terms, so
        # that substitute's Horner's rule recurses over up to six images
        rm = covers.COVERS[key]
        degrees = {n: 6 if len(img._terms) > 1 else 2 for n, img in rm.images.items()}
        p = data.draw(polys(rm.source, max_terms=2, degrees=degrees))
        want = naive_substitute(p, rm.images, rm.target)
        if rm.target == F3_VARS:
            want = naive_reduce_mod_phi(want)
        got = rm.apply_poly(p)
        assert_normal_form(got)
        assert got == want

    @settings(max_examples=30, deadline=None)
    @given(polys(F3_VARS, max_terms=4, max_deg=2, degrees={"x13": 6}))
    def test_deck_squares_to_reduction(self, p):
        deck = covers.deck_ring_map()
        assert deck.apply_poly(deck.apply_poly(p)) == reduce_mod_phi(p)


class TestSympyOracle:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(polys(F3_VARS, max_terms=5, max_deg=1, degrees={"x123": 6}))
    def test_reduce_mod_phi_is_remainder(self, p):
        # x123 first: sympy divides by the leading coefficient in the first generator
        gens = sympy.symbols(("x123",) + F3_VARS.names[:-1])
        assert to_sympy(reduce_mod_phi(p), gens) == to_sympy(p, gens).rem(to_sympy(PHI, gens))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(polys(F2_VARS, max_terms=5), st.data())
    def test_substitute_matches_subs(self, p, data):
        mapping = {n: data.draw(polys(TARGET, max_terms=3, max_deg=2)) for n in F2_VARS}
        q = p.substitute(mapping, target=TARGET)
        subs = {sympy.Symbol(n): to_sympy(img).as_expr() for n, img in mapping.items()}
        substituted = to_sympy(p).as_expr().subs(subs, simultaneous=True)
        # Poly() expands the substituted expression, much faster than .expand()
        expected = sympy.Poly(substituted, *sympy.symbols(TARGET.names), domain=sympy.QQ)
        assert to_sympy(q) == expected


class TestSumProduct:
    @settings(max_examples=60, deadline=None)
    @given(SL2, SL2, SL2)
    def test_sum_and_product_of_the_two_triple_traces(self, m1, m2, m3):
        # the reference roots tr(m1 m2 m3) and tr(m1 m3 m2) come from
        # tuple products, independent of the formula under test
        point = (trace(m1), trace(m2), trace(m3), trace(product(m1, m2)),
                 trace(product(m1, m3)), trace(product(m2, m3)))
        x123, x132 = trace(product(m1, m2, m3)), trace(product(m1, m3, m2))
        assert sum_product(*point) == (x123 + x132, x123 * x132)
        assignment = dict(zip(F3_VARS, point + (x123,)))
        assert SUM_RELATION.evaluate_exact(assignment) == x123 + x132
        assert PRODUCT_RELATION.evaluate_exact(assignment) == x123 * x132
        assert PHI.evaluate_exact(assignment) == 0


#: A bound on the ``_addmul_into`` calls of deck(deck(p)) for DECK_GUARD_POLY,
#: which needs no timing: 28 calls when substitute sums the groups of terms
#: that share an x13 exponent by Horner's rule in x13's image, and
#: reduce_mod_phi lowers x123 in one pass; 34 when each group was multiplied
#: by a power of that image read from one list; 40 when each power was
#: squared up from the unit; 2466 when both did one product per term.
DECK_GUARD_POLY = Polynomial(F3_VARS, {
    (1, 2, 0, 1, 2, 0, 1): 3, (0, 1, 1, 0, 2, 1, 0): -2, (2, 0, 1, 1, 1, 0, 2): 1,
    (0, 2, 2, 0, 0, 1, 1): 5, (1, 1, 0, 2, 1, 1, 0): -4, (0, 0, 1, 1, 2, 2, 1): 2,
})
DECK_GUARD_CALLS = 40


def test_deck_squared_kernel_calls(monkeypatch):
    covers.deck_ring_map()  # built (and traced) before counting
    calls = []
    kernel = polyring._addmul_into

    def counting(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(polyring, "_addmul_into", counting)
    twice = covers.deck_involution_f3(covers.deck_involution_f3(DECK_GUARD_POLY))
    assert len(calls) < DECK_GUARD_CALLS, len(calls)
    assert twice == reduce_mod_phi(DECK_GUARD_POLY)
