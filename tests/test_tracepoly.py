import functools
import itertools
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slchar import mat2, tracepoly
from slchar.mat2 import evaluate_at_character, quadruple_trace_check
from slchar.polyring import (
    F2_VARS,
    F3_VARS,
    PHI,
    PRODUCT_RELATION,
    SUM_RELATION,
    Polynomial,
    VariableSet,
    _addmul_into,
    reduce_mod_phi,
)
from slchar.sampling import (
    random_rational_unimodular,
    random_reduced_word,
    random_unimodular,
    random_unimodular_entries,
)
from slchar.tracepoly import (
    generator_count,
    kappa,
    trace_poly,
)
from slchar.words import Word, parse_word
from tuple2x2 import (RATIONAL, SL2, as_pair, as_tuple, from_pair, inverse, matmul, product,
                      trace, word_product)

RND = random.Random(20)


def P(text_terms):
    """Build a rank-2 polynomial from {(ex,ey,ez): coeff}."""
    return Polynomial(F2_VARS, {e: Fraction(c) for e, c in text_terms.items()})


class TestRank2BaseValues:
    def test_commutator(self):
        expected = P({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1,
                      (1, 1, 1): -1, (0, 0, 0): -2})
        assert trace_poly(parse_word("X Y x y", 2)) == expected

    def test_xy_inverse(self):
        assert trace_poly(parse_word("X y", 2)) == P({(1, 1, 0): 1, (0, 0, 1): -1})

    def test_xyxinvy(self):
        expected = P({(0, 0, 0): 2, (2, 0, 0): -1, (0, 0, 2): -1, (1, 1, 1): 1})
        assert trace_poly(parse_word("X Y x Y", 2)) == expected

    def test_square(self):
        assert trace_poly(parse_word("X X", 2)) == P({(2, 0, 0): 1, (0, 0, 0): -2})

    def test_identity(self):
        assert trace_poly(Word(2, ())) == P({(0, 0, 0): 2})

    def test_triple_basic(self):
        # tr(eta xi eta) = yz - x and tr(zeta xi^-1) relatives
        assert trace_poly(parse_word("Y X Y", 2)) == P(
            {(0, 1, 1): 1, (1, 0, 0): -1}
        )

    def test_kappa(self):
        assert kappa() == trace_poly(Word(2, (1, 2, -1, -2)))
        assert kappa().evaluate({"x": 0, "y": 0, "z": 0}) == -2
        assert kappa().evaluate({"x": 2, "y": 2, "z": 2}) == 2
        assert kappa().evaluate({"x": 3, "y": 3, "z": 3}) == -2


class TestRank3BaseValues:
    def test_cyclic_rotation(self):
        assert trace_poly(parse_word("X2 X3 X1", 3)) == Polynomial.variable(
            F3_VARS, "x123"
        )

    def test_reversed_triple(self):
        got = trace_poly(parse_word("X1 X3 X2", 3))
        fsum = SUM_RELATION
        assert got == fsum - Polynomial.variable(F3_VARS, "x123")

    def test_pair_variables(self):
        assert trace_poly(parse_word("X3 X2", 3)) == Polynomial.variable(
            F3_VARS, "x23"
        )


class TestInvariance:
    def test_conjugation(self):
        for _ in range(150):
            w = random_reduced_word(RND, 2, 10)
            g = random_reduced_word(RND, 2, 4)
            assert trace_poly(w) == trace_poly(g * w * g.inverse())

    def test_inversion(self):
        for _ in range(150):
            w = random_reduced_word(RND, 2, 10)
            assert trace_poly(w) == trace_poly(w.inverse())

    def test_rank3_conjugation(self):
        for _ in range(60):
            w = random_reduced_word(RND, 3, 7)
            g = random_reduced_word(RND, 3, 3)
            assert trace_poly(w) == trace_poly(g * w * g.inverse())

    def test_canonical_mod_phi(self):
        for _ in range(60):
            w = random_reduced_word(RND, 3, 8)
            p = trace_poly(w)
            assert p.degree_in("x123") <= 1
            assert reduce_mod_phi(p) == p


def _exact_length_word(rnd, rank, length):
    letters = []
    while len(letters) < length:
        g = rnd.choice([k * s for k in range(1, rank + 1) for s in (1, -1)])
        if not letters or letters[-1] != -g:
            letters.append(g)
    return Word(rank, tuple(letters))


def _reduced_letters(rank, picks):
    """Freely reduced letters, one per pick: each pick chooses among the
    letters that do not cancel the one before."""
    letters = []
    for p in picks:
        choices = [g for k in range(1, rank + 1) for g in (k, -k)
                   if not letters or g != -letters[-1]]
        letters.append(choices[p % len(choices)])
    return tuple(letters)


def _times_letter(table, element, g):
    """``element``, a coefficient term dict per basis element, times the
    letter g, entry by entry of the table: no flat keys and no rows."""
    out = {}
    for b, c in element.items():
        for b2, c2 in table[b, g].items():
            _addmul_into(out.setdefault(b2, {}), c, c2)
    return out


def _one_pass(rank, letters):
    """The trace by one pass of right multiplications over the whole
    word, then tr 1 = 2 and tr X_b = x_b: the oracle for the split."""
    table = tracepoly._table(rank)
    element = {(): {0: 1}}
    for g in letters:
        element = _times_letter(table, element, g)
    terms = {}
    for b, c in element.items():
        _addmul_into(terms, c, tracepoly._var(rank, b)._terms if b else {0: 2})
    return Polynomial._trusted(tracepoly._VARSETS[rank], terms)


#: Letters per row of a pass, by rank, as ``tracepoly._pass`` steps.
_ROW_WIDTH = {1: 4, 2: 4, 3: 2}


def _reduced_tuples(rank, width):
    """The freely reduced letter tuples of 1 to ``width`` letters."""
    alphabet = [g for k in range(1, rank + 1) for g in (k, -k)]
    return [t for n in range(1, width + 1) for t in itertools.product(alphabet, repeat=n)
            if all(g != -h for g, h in zip(t, t[1:]))]


def _cyclic_words(seed, strata, count):
    """``count`` cyclically reduced words per (rank, length) stratum."""
    rnd = random.Random(seed)
    words = []
    for rank, length in strata:
        for _ in range(count):
            w = _exact_length_word(rnd, rank, length)
            while w.letters[0] == -w.letters[-1]:
                w = _exact_length_word(rnd, rank, length)
            words.append(w)
    return words


#: The shapes of ``perfbench``'s trace_cold words from a seed of their own.
_COUNTED_WORDS = _cyclic_words("multiply-adds", [(2, n) for n in range(12, 25)]
                               + [(3, n) for n in range(8, 13)], 4)
#: The multiply-adds of tracing ``_COUNTED_WORDS`` (``_counted_work``).
MULTIPLY_ADDS = 55_674


def _counted_work(words):
    """The engine's work in tracing ``words`` with the memo cleared, once
    their rows are built, counted by wrappers around its one multiply-add
    loop and its row builder: the multiply-adds of ``tracepoly._step``,
    the keys it visits (each a dict lookup, whatever its row), the pairs
    that ``tracepoly._as_rows`` writes for the join, and the ``_step``
    calls (each a fresh dict and a Python call)."""
    for w in words:
        trace_poly(w)
    tracepoly.clear_cache()
    multiply_adds = keys = pairs = calls = 0
    step, as_rows = tracepoly._step, tracepoly._as_rows

    def counting_step(element, rows, layout):
        nonlocal multiply_adds, keys, calls
        multiply_adds += sum(len(rows[key >> layout.shift]) for key in element)
        keys += len(element)
        calls += 1
        return step(element, rows, layout)

    def counting_rows(elements, layout):
        nonlocal pairs
        rows = as_rows(elements, layout)
        pairs += sum(map(len, rows))
        return rows

    with mock.patch.object(tracepoly, "_step", counting_step), \
            mock.patch.object(tracepoly, "_as_rows", counting_rows):
        for w in words:
            trace_poly(w)
    tracepoly.clear_cache()
    return multiply_adds, keys, pairs, calls


class TestEngine:
    """The right-multiplication table and the pass built on it."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(SL2, SL2, SL2)
    def test_table_entries_are_exact_products(self, m1, m2, m3):
        for rank in (1, 2, 3):
            mats = (m1, m2, m3)[:rank]

            def basis_matrix(b):
                return product(*(mats[i - 1] for i in b))

            variables = tracepoly._VARSETS[rank]
            character = {name: trace(basis_matrix(b))
                         for b, name in tracepoly._GEN_NAMES[rank].items()}
            table = tracepoly._table(rank)
            assert len(table) == 2 * rank * (len(tracepoly._GEN_NAMES[rank]) + 1)
            for (b, g), element in table.items():
                letter = mats[g - 1] if g > 0 else inverse(mats[-g - 1])
                want = matmul(basis_matrix(b), letter)
                got = ((0, 0), (0, 0))
                for b2, terms in element.items():
                    coeff = Polynomial._trusted(variables, terms)
                    assert rank != 3 or coeff.degree_in("x123") == 0
                    c = coeff.evaluate_exact(character)
                    m = basis_matrix(b2)
                    got = tuple(tuple(got[i][j] + c * m[i][j] for j in range(2))
                                for i in range(2))
                assert got == want, (rank, b, g)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(SL2, SL2, SL2)
    def test_pairing_is_the_trace_form(self, m1, m2, m3):
        for rank in (1, 2, 3):
            mats = (m1, m2, m3)[:rank]

            def basis_matrix(b):
                return product(*(mats[i - 1] for i in b))

            character = {name: trace(basis_matrix(b))
                         for b, name in tracepoly._GEN_NAMES[rank].items()}
            basis = [(), *tracepoly._GEN_NAMES[rank]]
            layout = tracepoly._layout(rank, 5)
            for b in basis:
                for c in basis:
                    tau = layout.polynomial(tracepoly._pairing(layout, b, c))
                    assert rank != 3 or tau.degree_in("x123") <= 1
                    assert tau.evaluate_exact(character) == trace(
                        matmul(basis_matrix(b), basis_matrix(c))), (rank, b, c)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 3), st.lists(st.integers(0, 6), max_size=40))
    def test_split_equals_one_pass(self, rank, picks):
        letters = _reduced_letters(rank, picks)
        assert tracepoly._trace(rank, letters) == _one_pass(rank, letters), letters

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_split_shapes_equal_one_pass(self, rank):
        # the split is empty below 9 letters (8 at rank 3) and at its cap of
        # 8 from 20 letters on (24 at rank 3); lengths 0-25 give u and v every residue
        # modulo the row width (four letters, two at rank 3), so that a pass
        # starts with a row of 1, 2 or 3 letters or with none, on both sides
        # of the cap
        rnd = random.Random(rank)
        for length in range(26):
            for _ in range(3):
                letters = _exact_length_word(rnd, rank, length).letters
                assert tracepoly._trace(rank, letters) == _one_pass(rank, letters), letters

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_rows_are_steps_of_their_letters(self, rank):
        # every row of reduced letters the engine steps by, from every slot,
        # is the first letter's step and then each next letter's, which are
        # in turn the table's products
        layout = tracepoly._layout(rank, 5)
        shift = layout.shift
        basis = tracepoly._BASIS[rank]
        table = tracepoly._table(rank)
        for letters in _reduced_tuples(rank, _ROW_WIDTH[rank]):
            rows = tracepoly._rows(layout, letters)
            assert len(rows) == len(basis)
            for slot, b in enumerate(basis):
                steps, nested = {slot << shift: 1}, {b: {0: 1}}
                for g in letters:
                    steps = tracepoly._step(steps, tracepoly._rows(layout, (g,)), layout)
                    nested = _times_letter(table, nested, g)
                assert dict(rows[slot]) == {key - (slot << shift): c for key, c in steps.items()}
                assert steps == {(basis.index(b2) << shift) + m: c for b2, terms in nested.items()
                                 for m, c in layout.compact(terms).items()}

    def test_counted_work_and_bounded_rows(self):
        # the engine's multiply-adds on a seeded word set stay at most the
        # count recorded for its split and row widths (min(n // 2, 8) and
        # two-letter rows took 59,686); the rows built for the set are at
        # most one per reduced letter tuple a pass can ask for or basis
        # product a pairing multiplies by, which bounds their memory
        tracepoly._rows.cache_clear()
        tracepoly._pairing_rows.cache_clear()
        assert _counted_work(_COUNTED_WORDS)[0] <= MULTIPLY_ADDS
        built = {(rank, t) for rank in (2, 3)
                 for t in (*_reduced_tuples(rank, _ROW_WIDTH[rank]), *tracepoly._BASIS[rank][1:])}
        assert tracepoly._rows.cache_info().currsize <= len(built)

    def test_short_words_build_no_pairings(self):
        # below 9 letters (8 at rank 3) a word is one pass with no join,
        # which times faster there, so no pairing is built for it; the
        # first word at the threshold builds them
        tracepoly.clear_cache()
        tracepoly._pairing_rows.cache_clear()
        rnd = random.Random(104)
        for rank, below in ((1, 9), (2, 9), (3, 8)):
            for length in range(below):
                for _ in range(3):
                    trace_poly(_exact_length_word(rnd, rank, length))
        assert tracepoly._pairing_rows.cache_info().currsize == 0
        for rank, threshold in ((2, 9), (3, 8)):
            trace_poly(_cyclic_words(104, [(rank, threshold)], 1)[0])
            assert tracepoly._pairing_rows.cache_info().currsize == rank - 1
        tracepoly.clear_cache()

    # a layout's fields are 5 bits wide below 32 letters and one bit wider
    # from 32, where rank 2 leaves the dense accumulator for the dict loop
    @pytest.mark.parametrize("rank, length", [(2, 40), (3, 16), (2, 64), (3, 24), (1, 32),
                                              (2, 31), (2, 32), (3, 31), (3, 32)])
    def test_long_words_exact(self, rank, length):
        layout = tracepoly._layout(rank, max(length.bit_length(), 5))
        assert layout.dense == (rank == 1 or rank == 2 and length < 32)
        rnd = random.Random(length)
        for _ in range(3):
            w = _exact_length_word(rnd, rank, length)
            mats = [random_rational_unimodular(rnd) for _ in range(rank)]
            p = trace_poly(w)
            assert rank < 3 or p.degree_in("x123") <= 1
            assert evaluate_at_character(p, mats) == trace(
                word_product(w, [from_pair(m) for m in mats]))

    def test_threads_trace_alike(self):
        # each thread steps in a scratch list of its own: rank-2 words of
        # 20-28 letters take the dense accumulator and rank-3 words the
        # dict loop, with threads switching every microsecond
        words = _cyclic_words("threads", [(2, n) for n in range(20, 29)]
                              + [(3, n) for n in range(8, 13)], 8)
        want = [trace_poly(w) for w in words]
        tracepoly.clear_cache()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                got = list(pool.map(trace_poly, words, timeout=120))
        finally:
            sys.setswitchinterval(interval)
            tracepoly.clear_cache()
        assert [w for w, p, q in zip(words, got, want) if p != q] == []

    def test_interrupted_step_leaves_no_sums(self):
        # a dense step left by an exception has written to its scratch list;
        # the next step starts a fresh one
        class Interrupt(Exception):
            pass

        class Raising:
            def __rmul__(self, k):
                raise Interrupt

        layout = tracepoly._layout(2, 5)
        assert layout.dense
        rows = (tuple((key, 1) for key in range(tracepoly._DENSE_KEYS)) + ((0, Raising()),),)
        with pytest.raises(Interrupt):
            tracepoly._step({0: 1}, rows, layout)
        letters = _cyclic_words("interrupted", [(2, 20)], 1)[0].letters
        tracepoly.clear_cache()
        assert tracepoly._trace(2, letters) == _one_pass(2, letters)
        tracepoly.clear_cache()

    def test_rank4_is_not_public(self):
        with pytest.raises(ValueError, match=r"rank <= 3, got 4"):
            trace_poly(Word(4, (1, 2, 3, 4)))

    def test_memo(self):
        tracepoly.clear_cache()
        w = parse_word("X Y X y", 2)
        assert trace_poly(w) is trace_poly(w)
        assert tracepoly._trace.cache_info().currsize == 1
        tracepoly.clear_cache()
        assert tracepoly._trace.cache_info().currsize == 0


def _per_rank_assignment(rank, mats):
    """The coordinates of each rank written out by hand, left-to-right
    ``tuple2x2`` products of nested-tuple matrices, as
    ``evaluate_at_character`` once spelled them."""
    if rank == 1:
        return {"x": trace(mats[0])}
    if rank == 2:
        xi, eta = mats
        return {"x": trace(xi), "y": trace(eta), "z": trace(matmul(xi, eta))}
    m1, m2, m3 = mats
    return {
        "x1": trace(m1), "x2": trace(m2), "x3": trace(m3),
        "x12": trace(matmul(m1, m2)), "x13": trace(matmul(m1, m3)),
        "x23": trace(matmul(m2, m3)), "x123": trace(matmul(matmul(m1, m2), m3)),
    }


class TestEvaluateAtCharacter:
    """One generic body, read from ``tracepoly.COORDINATES``."""

    @pytest.mark.parametrize("rank, count", [(3, 2), (2, 3), (2, 1), (1, 2)])
    def test_wrong_matrix_count(self, rank, count):
        p = trace_poly(Word(rank, tuple(range(1, rank + 1))))
        mats = [random_unimodular(RND) for _ in range(count)]
        with pytest.raises(ValueError):
            evaluate_at_character(p, mats)

    def test_unsupported_variables(self):
        from slchar.fricke import s04_defining_poly

        mats = [random_unimodular(RND) for _ in range(3)]
        with pytest.raises(ValueError):
            evaluate_at_character(s04_defining_poly(), mats)

    def test_bitwise_equal_to_per_rank_formulas(self):
        # numpy matrices and the 4-tuples of their rows give the bits of the
        # textbook products of tuple2x2.matmul
        rnd = random.Random(2009)
        words = {rank: [random_reduced_word(rnd, rank, 8) for _ in range(4)]
                 for rank in (1, 2, 3)}
        for _ in range(200):
            triple = [random_unimodular(rnd) for _ in range(3)]
            for rank in (1, 2, 3):
                mats = triple[:rank]
                rows = [tuple(m.ravel().tolist()) for m in mats]
                assignment = _per_rank_assignment(rank, [as_tuple(m) for m in mats])
                for w in words[rank]:
                    p = trace_poly(w)
                    got = evaluate_at_character(p, mats)
                    assert type(got) is complex
                    assert _bits(got) == _bits(p.evaluate(assignment)), (rank, w)
                    assert _bits(got) == _bits(evaluate_at_character(p, rows)), (rank, w)

    def test_exact_matrices_give_fractions(self):
        rnd = random.Random(2010)
        for rank in (1, 2, 3):
            mats = [random_rational_unimodular(rnd) for _ in range(rank)]
            p = trace_poly(random_reduced_word(rnd, rank, 6))
            got = evaluate_at_character(p, mats)
            assert type(got) is Fraction
            assert got == p.evaluate_exact(_per_rank_assignment(rank, [from_pair(m) for m in mats]))

    def test_equal_variable_sets_evaluate_alike(self):
        # VariableSet compares by value: a copy of a canonical set is the same set
        rnd = random.Random(2011)
        p = trace_poly(random_reduced_word(rnd, 2, 8))
        copy = Polynomial.from_json(p.to_json())
        assert copy.variables == F2_VARS and copy.variables is not F2_VARS
        for mats in ([random_unimodular(rnd) for _ in range(2)],
                     [random_rational_unimodular(rnd) for _ in range(2)]):
            assert evaluate_at_character(copy, mats) == evaluate_at_character(p, mats)
        triple = [random_rational_unimodular(rnd) for _ in range(3)]
        assert (mat2.coordinate_traces(VariableSet(F3_VARS.names), triple)
                == mat2.coordinate_traces(F3_VARS, triple))

    def test_coordinates_name_the_variables(self):
        for variables, words in tracepoly.COORDINATES.items():
            assert tuple(words) == variables.names
            seen = set()
            for w in words.values():
                assert list(w) == sorted(set(w))
                assert len(w) == 1 or w[:-1] in seen  # coordinate_traces reuses it
                seen.add(w)


class TestOracle:
    def test_rank2(self):
        for _ in range(300):
            w = random_reduced_word(RND, 2, 12)
            ms = [random_unimodular(RND) for _ in range(2)]
            val = evaluate_at_character(trace_poly(w), ms)
            tr = mat2.trace(mat2.evaluate_word(w, ms))
            assert abs(val - tr) <= 1e-8 * (1 + abs(tr))

    def test_rank3(self):
        for _ in range(150):
            w = random_reduced_word(RND, 3, 8)
            ms = [random_unimodular(RND) for _ in range(3)]
            val = evaluate_at_character(trace_poly(w), ms)
            tr = mat2.trace(mat2.evaluate_word(w, ms))
            assert abs(val - tr) <= 1e-8 * (1 + abs(tr))

    def test_rank1(self):
        w = Word(1, (1,) * 5)
        m = random_unimodular(RND)
        val = evaluate_at_character(trace_poly(w), [m])
        assert abs(val - mat2.trace(mat2.evaluate_word(w, [m]))) <= 1e-9


class TestExactOracle:
    """Exact pairs (N, d): the same functions evaluate exactly."""

    def test_evaluate_at_character_exact(self):
        for rank, max_len in ((1, 8), (2, 10), (3, 6)):
            for _ in range(20):
                w = random_reduced_word(RND, rank, max_len)
                ms = [random_rational_unimodular(RND) for _ in range(rank)]
                val = evaluate_at_character(trace_poly(w), ms)
                assert type(val) is Fraction
                assert val == trace(word_product(w, [from_pair(m) for m in ms]))

    def test_complex_input_stays_complex(self):
        ms = [random_unimodular(RND) for _ in range(2)]
        val = evaluate_at_character(trace_poly(parse_word("X Y x", 2)), ms)
        assert type(val) is complex
        # integer dtype is numeric, not exact: mat2 computes it in complex128
        ints = [np.array([[1, 1], [0, 1]]), np.array([[2, 1], [1, 1]])]
        val = evaluate_at_character(trace_poly(parse_word("X Y x", 2)), ints)
        assert type(val) is complex
        assert isinstance(quadruple_trace_check([random_unimodular(RND) for _ in range(4)]),
                          float)

    def test_quadruple_trace_exact(self):
        for _ in range(20):
            ms = [random_rational_unimodular(RND) for _ in range(4)]
            res = quadruple_trace_check(ms)
            assert isinstance(res, Fraction) and res == 0


class TestPhiAndRelations:
    def test_phi_monic_quadratic(self):
        phi = PHI
        assert phi.degree_in("x123") == 2
        fsum, fprod = SUM_RELATION, PRODUCT_RELATION
        x123 = Polynomial.variable(F3_VARS, "x123")
        assert phi == x123 * x123 - fsum * x123 + fprod

    def test_phi_at_trivial_rep(self):
        point = {n: 2 for n in F3_VARS}
        assert PHI.evaluate(point) == 0

    def test_phi_vanishes_on_characters(self):
        for _ in range(100):
            ms = [random_unimodular(RND) for _ in range(3)]
            val = evaluate_at_character(PHI, ms)
            assert abs(val) <= 1e-8

    def test_sum_product_on_characters(self):
        fsum, fprod = SUM_RELATION, PRODUCT_RELATION
        for _ in range(100):
            ms = [random_unimodular(RND) for _ in range(3)]
            t123 = mat2.trace(ms[0] @ ms[1] @ ms[2])
            t132 = mat2.trace(ms[0] @ ms[2] @ ms[1])
            s = evaluate_at_character(fsum, ms)
            p = evaluate_at_character(fprod, ms)
            assert abs(t123 + t132 - s) <= 1e-8 * (1 + abs(s))
            assert abs(t123 * t132 - p) <= 1e-8 * (1 + abs(p))

    def test_trivial_rep_roots(self):
        fsum, fprod = SUM_RELATION, PRODUCT_RELATION
        point = {n: 2 for n in F3_VARS}
        assert fsum.evaluate(point) == 4
        assert fprod.evaluate(point) == 4  # roots of t^2 - 4t + 4: (2, 2)

    def test_discriminant_is_branch_locus(self):
        fsum, fprod = SUM_RELATION, PRODUCT_RELATION
        disc = fsum * fsum - fprod * 4
        # on the branch locus the two triple traces coincide
        for _ in range(50):
            ms = [random_unimodular(RND) for _ in range(3)]
            t123 = mat2.trace(ms[0] @ ms[1] @ ms[2])
            t132 = mat2.trace(ms[0] @ ms[2] @ ms[1])
            d = evaluate_at_character(disc, ms)
            assert abs(d - (t123 - t132) ** 2) <= 1e-7 * (1 + abs(d))


def quadruple_residual(ms):
    """The quadruple-trace residual from tuple products, term by term."""
    def t(*idx):
        return trace(product(*(ms[i - 1] for i in idx)))

    return abs(2 * t(1, 2, 3, 4) - (
        t(1) * t(2) * t(3) * t(4) + t(1) * t(2, 3, 4) + t(2) * t(3, 4, 1)
        + t(3) * t(4, 1, 2) + t(4) * t(1, 2, 3) + t(1, 2) * t(3, 4) + t(4, 1) * t(2, 3)
        - t(1, 3) * t(2, 4) - t(1) * t(2) * t(3, 4) - t(1, 2) * t(3) * t(4)
        - t(4) * t(1) * t(2, 3) - t(4, 1) * t(2) * t(3)))


def product_of(mats, word):
    """The product of nested-tuple matrices along index tuple ``word``,
    left to right by ``tuple2x2.matmul``."""
    return functools.reduce(matmul, (mats[i - 1] for i in word))


class TestExactIntegerCore:
    """Exact products run on integer numerators; the results must equal
    Fraction arithmetic on nested tuples, whatever the denominators."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(list(tracepoly.COORDINATES)), st.data())
    def test_coordinate_traces_on_any_rational_matrices(self, variables, data):
        rank = max(map(max, tracepoly.COORDINATES[variables].values()))
        mats = [data.draw(RATIONAL) for _ in range(rank)]
        got = mat2.coordinate_traces(variables, [as_pair(m) for m in mats])
        for name, word in tracepoly.COORDINATES[variables].items():
            assert type(got[name]) is Fraction
            assert got[name] == trace(product(*(mats[i - 1] for i in word)))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(RATIONAL, min_size=4, max_size=4))
    def test_quadruple_trace_holds_on_all_rational_matrices(self, mats):
        # Every term of the identity is linear in each matrix, so it holds on
        # all 2x2 matrices, unimodular or not, and no perturbed input makes
        # the residual nonzero; a denominator power that is wrong for one
        # matrix in every trace would scale every term alike and still give
        # 0.  So the traces themselves are checked below.
        res = quadruple_trace_check([as_pair(m) for m in mats])
        assert type(res) is Fraction and res == 0 == quadruple_residual(mats)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(RATIONAL, min_size=4, max_size=4))
    def test_product_traces_on_any_rational_matrices(self, mats):
        words = ((1,), (2,), (3,), (4,), (1, 2), (1, 2, 3), (1, 2, 3, 4), (2, 3), (2, 3, 4),
                 (3, 4), (3, 4, 1), (4, 1), (4, 1, 2), (1, 3), (2, 4), (2, 4, 2), (2, 4, 2, 2))
        # every word as an extra of the rank-4 coordinates, whose traces come first
        pairs = [as_pair(m) for m in mats]
        got, dens = mat2._character(tracepoly.F4_VARS, pairs, *words)
        got, dens = got[-len(words):], dens[-len(words):]
        for w, t, den in zip(words, got, dens):
            assert type(t) is int and den == math.prod(pairs[i - 1][1] for i in w)
            # tr X_I = tr N_I / prod d_i, i running over the word's letters
            assert Fraction(t, den) == trace(product(*(mats[i - 1] for i in w))), w
        floats = [np.array(m, dtype=complex) for m in mats]
        numeric, dens = mat2._character(tracepoly.F4_VARS, floats, *words)
        assert dens is None
        for w, t in zip(words, numeric[-len(words):]):
            assert t == trace(product_of([as_tuple(m) for m in floats], w))

    def test_product_traces_on_int_matrices_with_zero_entries(self):
        # int matrices only (every d is 1), singular ones included
        mats = [((0, 1), (-1, 0)), ((2, 0), (3, 0)), ((0, 0), (0, 5)), ((0, 0), (0, 0))]
        words = ((1,), (2,), (3,), (4,), (1, 2), (1, 2, 3), (2, 3), (3, 1), (1, 2, 3, 4), (2, 2))
        got, dens = mat2._character(tracepoly.F4_VARS, [as_pair(m) for m in mats], *words)
        assert dens == [1] * len(got)
        for w, t in zip(words, got[-len(words):]):
            assert type(t) is int
            assert t == trace(product(*(mats[i - 1] for i in w))), w

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_exact_character_matches_matrix_trace(self, rank, data):
        alphabet = [g for i in range(1, rank + 1) for g in (i, -i)]
        w = Word(rank, tuple(data.draw(st.lists(st.sampled_from(alphabet), max_size=9))))
        ms = [as_pair(m) for m in data.draw(st.lists(SL2, min_size=rank, max_size=rank))]
        for word in (w, Word(rank, ())):
            got = evaluate_at_character(trace_poly(word), ms)
            assert type(got) is Fraction
            assert got == mat2.trace(mat2.evaluate_word(word, ms)), word

    def test_evaluate_at_character_mixed_entries(self):
        mats = [((Fraction(1, 2), 3), (Fraction(-1, 7), Fraction(8, 7))),
                ((2, 1), (1, 1)), ((1, Fraction(2, 9)), (0, 1))]
        for rank, w in ((2, "X Y^-1 X^2 y"), (3, "X1 X3^-1 X2 X3 X1^-1")):
            p = trace_poly(parse_word(w, rank))
            ms = mats[:rank]
            got = evaluate_at_character(p, [as_pair(m) for m in ms])
            assert type(got) is Fraction
            assert got == trace(word_product(parse_word(w, rank), ms))


class TestQuadrupleTrace:
    def test_random_tuples(self):
        for _ in range(100):
            ms = [random_unimodular(RND) for _ in range(4)]
            assert quadruple_trace_check(ms) <= 1e-8

    def test_identity_tuple(self):
        assert quadruple_trace_check([mat2.I2] * 4) == 0

    def test_degenerate_fourth(self):
        for _ in range(20):
            ms = [random_unimodular(RND) for _ in range(3)] + [mat2.I2]
            assert quadruple_trace_check(ms) <= 1e-10

    def test_arity(self):
        with pytest.raises(ValueError):
            quadruple_trace_check([mat2.I2] * 3)


class TestGeneratorCount:
    def test_values(self):
        assert generator_count(1) == 1
        assert generator_count(2) == 3
        assert generator_count(3) == 7
        assert generator_count(4) == 14

    def test_matches_binomials(self):
        from math import comb

        for n in range(1, 12):
            assert generator_count(n) == n + comb(n, 2) + comb(n, 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            generator_count(0)


def _bits(z):
    """The bits of a complex number's parts, signed zeros included."""
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def _stacked_draws(rnd, rank, trials):
    """``trials`` float draws of ``rank`` matrices, as a list of 4-tuples
    per trial and as a (T, k, 2, 2) numpy stack, whose first axis gives
    each trial as numpy matrices."""
    draws = [[random_unimodular_entries(rnd) for _ in range(rank)] for _ in range(trials)]
    return draws, np.array(draws, dtype=complex).reshape(trials, rank, 2, 2)


def _nested(m):
    """A 4-tuple of rows as nested tuples, for ``tuple2x2``."""
    return m[:2], m[2:]


def _stacked_words(rnd, rank, trials):
    """Seeded reduced words of up to 7 letters, led by the empty word, a
    one-letter word and a one-letter inverse."""
    lead = [Word(rank, ()), Word(rank, (rank,)), Word(rank, (-1,))]
    return lead + [random_reduced_word(rnd, rank, 7) for _ in range(trials - len(lead))]


class TestStackedKernels:
    """The one-trial kernels give each trial the bits of the textbook 2x2
    products of ``tuple2x2.matmul``; a trial given as numpy matrices gets
    the bits of its 4-tuples; exact trials give the same Fractions."""

    TRIALS = 240

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_coordinate_traces_bit_for_bit(self, rank):
        rnd = random.Random(2800 + rank)
        draws, stack = _stacked_draws(rnd, rank, self.TRIALS)
        variables = tracepoly._VARSETS[rank]
        extra = ((1, 2, 3, 4),) if rank == 4 else ()
        words = list(tracepoly.COORDINATES[variables].values()) + list(extra)
        for trial, as_numpy in zip(draws, stack):
            traces, dens = mat2._character(variables, trial, *extra)
            assert dens is None
            assert ([_bits(v) for v in traces]
                    == [_bits(v) for v in mat2._character(variables, as_numpy, *extra)[0]])
            alone = list(mat2.coordinate_traces(variables, trial).values())
            by_2x2 = [trace(product_of([_nested(m) for m in trial], w)) for w in words]
            assert [_bits(v) for v in traces[:len(alone)]] == [_bits(v) for v in alone]
            assert [_bits(v) for v in traces] == [_bits(v) for v in by_2x2]

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_evaluate_at_characters_bit_for_bit(self, rank):
        rnd = random.Random(2810 + rank)
        draws, stack = _stacked_draws(rnd, rank, self.TRIALS)
        polys = [trace_poly(w) for w in _stacked_words(rnd, rank, self.TRIALS)]
        for p, trial, as_numpy in zip(polys, draws, stack):
            value = evaluate_at_character(p, trial)
            assert type(value) is complex
            assert _bits(value) == _bits(evaluate_at_character(p, as_numpy))
            assert _bits(value) == _bits(evaluate_at_character(p, list(as_numpy)))
            by_2x2 = _per_rank_assignment(rank, [_nested(m) for m in trial])
            assert _bits(value) == _bits(p.evaluate(by_2x2))

    def test_quadruple_trace_checks_bit_for_bit(self):
        rnd = random.Random(2814)
        draws, stack = _stacked_draws(rnd, 4, self.TRIALS)
        poly = tracepoly._quadruple_poly()
        names = tracepoly.COORDINATES[tracepoly.F4_VARS]
        for trial, as_numpy in zip(draws, stack):
            value = quadruple_trace_check(trial)
            mats = [_nested(m) for m in trial]
            assert type(value) is float
            assert value.hex() == quadruple_trace_check(as_numpy).hex()
            assert value.hex() == abs(
                2 * trace(product_of(mats, (1, 2, 3, 4)))
                - poly.evaluate({n: trace(product_of(mats, w)) for n, w in names.items()})
            ).hex()

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_exact_batches(self, rank):
        rnd = random.Random(2820 + rank)
        batch = [tuple(random_rational_unimodular(rnd) for _ in range(rank))
                 for _ in range(self.TRIALS)]
        variables = tracepoly._VARSETS[rank]
        for trial in batch:
            traces, dens = mat2._character(variables, trial)
            got = dict(zip(variables, map(Fraction, traces, dens)))
            assert got == mat2.coordinate_traces(variables, trial)
            tuples = [from_pair(m) for m in trial]
            assert got == {n: trace(product(*(tuples[i - 1] for i in w)))
                           for n, w in tracepoly.COORDINATES[variables].items()}
        if rank == 4:
            got = [quadruple_trace_check(trial) for trial in batch]
            assert got == [0] * self.TRIALS
            assert all(type(v) is Fraction for v in got)
            return
        for w, trial in zip(_stacked_words(rnd, rank, self.TRIALS), batch):
            p = trace_poly(w)
            value = evaluate_at_character(p, trial)
            assert type(value) is Fraction
            tuples = [from_pair(m) for m in trial]
            assert value == p.evaluate_exact(_per_rank_assignment(rank, tuples))

    @pytest.mark.parametrize("surplus", [-1, 1])
    def test_wrong_matrix_count_raises(self, surplus):
        # one matrix too few or too many is one ValueError where the traces
        # are taken, at every entry: exact and float, as numpy matrices, as
        # one (k, 2, 2) array and as 4-tuples
        rnd = random.Random(2840 + surplus)
        p = trace_poly(Word(3, (1, 2, 3)))
        entries = {
            3: (lambda ms: mat2.coordinate_traces(F3_VARS, ms),
                lambda ms: evaluate_at_character(p, ms),
                lambda ms: mat2.word_trace(Word(3, (1, -3)), ms),
                lambda ms: mat2.evaluate_word(Word(3, (2,)), ms)),
            4: (quadruple_trace_check, lambda ms: mat2.word_trace(Word(4, (4,)), ms)),
        }
        for rank, on_tuple in entries.items():
            count = rank + surplus
            draws, stack = _stacked_draws(rnd, count, 1)
            exact = [random_rational_unimodular(rnd) for _ in range(count)]
            for f in on_tuple:
                for mats in (list(stack[0]), stack[0], draws[0], exact):
                    with pytest.raises(ValueError, match=f"at {count} matrices"):
                        f(mats)


if __name__ == "__main__":
    multiply_adds, keys, pairs, calls = (c / len(_COUNTED_WORDS)
                                         for c in _counted_work(_COUNTED_WORDS))
    print(f"Trace engine, per word over {len(_COUNTED_WORDS)} seeded words: "
          f"{multiply_adds:.1f} multiply-adds, {keys:.1f} keys visited, {pairs:.1f} row pairs "
          f"written, {calls:.1f} _step calls")
