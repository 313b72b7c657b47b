"""Trace polynomials of free-group words.

For a word w in F_2 this computes the polynomial f_w(x, y, z) with

    tr(w(xi, eta)) = f_w(tr(xi), tr(eta), tr(xi eta))

for all unimodular pairs, and analogously for F_3 in the seven
coordinates (x1, x2, x3, x12, x13, x23, x123), canonical modulo the
hypersurface relation PHI (degree at most one in x123).

The algebra generated by unimodular matrices X_1 ... X_n is spanned
over the trace ring by the increasing products X_I of at most three
letters (Fricke-Vogt; Horowitz 1972, Comm. Pure Appl. Math. 25;
Procesi 1976).  Two rules, from Cayley-Hamilton and the polarised
identity AB + BA = tr(A) B + tr(B) A + (tr AB - tr A tr B) I, rewrite
a basis element times a generator X_g into increasing products:

* X_g X_g = x_g X_g - 1
* X_j X_g = -X_g X_j + x_g X_j + x_j X_g + (x_gj - x_g x_j)   (g < j)

and an inverse letter is X_g^-1 = x_g - X_g.  So right multiplication
by a letter is a fixed table with polynomial entries, built once per
rank, and a word's trace is one pass of right multiplications from 1,
followed by tr 1 = 2 and tr X_I = x_I on the basis.  No table entry
contains x123, so a rank-3 result already has degree at most one in it.

From rank 4 on, the rules also give increasing products X_s of four
letters, which the table keeps as formal keys while it is built.  The
standard polynomial s_4 vanishes on 2x2 matrices (Amitsur-Levitzki
1950), and each of its 24 signed products is X_s plus shorter ones, so
s_4(X_s) = 24 X_s + rest = 0 is substituted into every entry holding
X_s; ranks 1-3 have no such keys.  Rank 4 serves the quadruple-trace
identity only: its coordinates satisfy relations, so its polynomials
are not canonical, and ``trace_poly`` refuses rank-4 words.

``COORDINATES`` names each coordinate by the increasing product whose
trace it is (x_I = tr X_I); the engine's basis and ``coordinate_traces``
(behind ``evaluate_at_character``) both read it.  Results are memoized
on the rank and the cyclically reduced letters.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from . import mat2, polyring
from .polyring import F2_VARS, F3_VARS, WIDTH, Polynomial, VariableSet, _addmul_into
from .words import Word

__all__ = [
    "COORDINATES",
    "coordinate_traces",
    "trace_poly",
    "trace_poly_f2",
    "trace_poly_f3",
    "kappa",
    "phi_polynomial",
    "sum_product_relation_polys",
    "quadruple_trace_check",
    "generator_count",
    "clear_cache",
]


def _subset_coordinates(rank: int) -> dict:
    """x_I for each increasing index tuple I of at most three generators,
    by size and then lexicographically (``F3_VARS`` at rank 3)."""
    return {"x" + "".join(map(str, s)): s
            for k in (1, 2, 3) for s in itertools.combinations(range(1, rank + 1), k)}


F1_VARS = VariableSet(("x",))
F4_VARS = VariableSet(_subset_coordinates(4))

#: The trace coordinates of each rank, by the increasing generator
#: indices of the product whose trace they are.  Rank 4 serves the
#: quadruple-trace identity only (see the module docstring).
COORDINATES = {
    F1_VARS: {"x": (1,)},
    F2_VARS: {"x": (1,), "y": (2,), "z": (1, 2)},
    F3_VARS: _subset_coordinates(3),
    F4_VARS: _subset_coordinates(4),
}

_VARSETS = dict(enumerate(COORDINATES, 1))

#: ``COORDINATES`` by rank and product: the engine's basis elements.
_GEN_NAMES = {
    rank: {word: name for name, word in COORDINATES[variables].items()}
    for rank, variables in _VARSETS.items()
}


@functools.cache
def _var(rank: int, key: tuple[int, ...]) -> Polynomial:
    return Polynomial.variable(_VARSETS[rank], _GEN_NAMES[rank][key])


def _add_elements(*elements: dict) -> dict:
    out: dict = {}
    for el in elements:
        for b, c in el.items():
            out[b] = out[b] + c if b in out else c
    return out


@functools.cache
def _table(rank: int) -> dict:
    """Right multiplication of each basis element by each letter:
    ``{(basis, letter): {basis: coefficient term dict}}``."""
    one = Polynomial.constant(_VARSETS[rank], 1)

    def x(*idx):
        return _var(rank, idx)

    table: dict = {}
    for b in sorted(((),) + tuple(_GEN_NAMES[rank]), key=len):
        for g in range(1, rank + 1):
            if not b or b[-1] < g:  # increasing; four letters stay a formal key
                el = {b + (g,): one}
            elif b[-1] == g:  # X_g X_g = x_g X_g - 1
                el = {b: x(g), b[:-1]: -one}
            else:  # X_j X_g = -X_g X_j + x_g X_j + x_j X_g + (x_gj - x_g x_j)
                h, j = b[:-1], b[-1]
                hg = table[h, g]  # every basis in it is below j
                el = _add_elements(
                    {hb + (j,): -c for hb, c in hg.items()},
                    {b: x(g)},
                    {hb: x(j) * c for hb, c in hg.items()},
                    {h: x(g, j) - x(g) * x(j)},
                )
            table[b, g] = el
            # X_g^-1 = x_g - X_g
            table[b, -g] = _add_elements({b: x(g)}, {hb: -c for hb, c in el.items()})
    for s in itertools.combinations(range(1, rank + 1), 4):
        # s_4(X_s) = 0, and each signed product of the letters of s is X_s
        # plus shorter products
        s4: dict = {}
        for p in itertools.permutations(s):
            el = {(): one}
            for g in p:
                el = _add_elements(*({b2: c * c2 for b2, c2 in table[b, g].items()}
                                     for b, c in el.items()))
            odd = sum(a > b for a, b in itertools.combinations(p, 2)) % 2
            s4 = _add_elements(s4, {b: -c for b, c in el.items()} if odd else el)
        assert s4.pop(s) == one.scale(24), s
        for key, el in table.items():
            if s in el:
                c = el.pop(s).scale(Fraction(-1, 24))
                table[key] = _add_elements(el, {b: c * r for b, r in s4.items()})
    return {k: {b: c._terms for b, c in el.items() if c} for k, el in table.items()}


@functools.lru_cache(maxsize=None)
def _trace(rank: int, letters: tuple[int, ...]) -> Polynomial:
    """Trace polynomial of reduced letters, by one right-multiplication pass.
    Each letter raises the total degree by at most one, so a word shorter
    than 2**WIDTH letters cannot overflow a packed exponent field."""
    if len(letters) >> WIDTH:
        raise OverflowError(f"a word of {len(letters)} letters overflows {WIDTH}-bit exponents")
    table = _table(rank)
    element = {(): {0: 1}}
    for g in letters:
        out: dict = {}
        for b, c in element.items():
            for b2, c2 in table[b, g].items():
                _addmul_into(out.setdefault(b2, {}), c, c2)
        element = out
    terms: dict = {}
    for b, c in element.items():  # tr 1 = 2, tr X_b = x_b
        _addmul_into(terms, c, _var(rank, b)._terms if b else {0: 2})
    return Polynomial._trusted(_VARSETS[rank], terms)


def clear_cache() -> None:
    _trace.cache_clear()


def _cyclic_core(w: Word) -> tuple[int, ...]:
    return w.cyclic_reduce()[0].letters


def trace_poly(w: Word) -> Polynomial:
    """Trace polynomial of a word of rank 1, 2 or 3."""
    if w.rank > 3:
        raise ValueError(f"trace polynomials are implemented for rank <= 3, got {w.rank}")
    return _trace(w.rank, _cyclic_core(w))


def trace_poly_f2(w: Word) -> Polynomial:
    """f_w(x, y, z) for a rank-2 word."""
    if w.rank != 2:
        raise ValueError(f"expected a rank-2 word, got rank {w.rank}")
    return _trace(2, _cyclic_core(w))


def trace_poly_f3(w: Word) -> Polynomial:
    """Trace polynomial of a rank-3 word, canonical modulo PHI."""
    if w.rank != 3:
        raise ValueError(f"expected a rank-3 word, got rank {w.rank}")
    return _trace(3, _cyclic_core(w))


def kappa() -> Polynomial:
    """Commutator trace x^2 + y^2 + z^2 - xyz - 2."""
    return trace_poly_f2(Word(2, (1, 2, -1, -2)))


def kappa_value(x, y, z):
    """kappa evaluated at numbers (exact if the inputs are exact)."""
    return x * x + y * y + z * z - x * y * z - 2


def phi_polynomial() -> Polynomial:
    """Generator of the principal ideal cutting out the rank-3 variety."""
    return polyring.PHI


def sum_product_relation_polys() -> tuple[Polynomial, Polynomial]:
    """(f_Sigma, f_Pi): the triple traces are the roots of
    t^2 - f_Sigma t + f_Pi."""
    return polyring.SUM_RELATION, polyring.PRODUCT_RELATION


@functools.cache
def _quadruple_poly() -> Polynomial:
    """2 tr(X1 X2 X3 X4) in the rank-4 coordinates, with integer
    coefficients; every term is linear in each X_i."""
    return _trace(4, (1, 2, 3, 4)).scale(2)


def quadruple_trace_check(assignment):
    """|2 tr(m1 m2 m3 m4) - f(traces)|, f being the engine's polynomial for
    2 tr(X1 X2 X3 X4); exact (a Fraction) when the matrices are exact.
    Each term is linear in each m_i, so exact matrices are checked on their
    integer numerators N_i = d_i m_i, whose traces the polynomial takes as
    they are, and the residual divided once by the product of the d_i."""
    ms = list(assignment)
    if len(ms) != 4:
        raise ValueError("quadruple_trace_check needs exactly four matrices")
    words = COORDINATES[F4_VARS]
    traces, ds = _numerator_traces(ms, (*words.values(), (1, 2, 3, 4)))
    if ds is None:
        value = _quadruple_poly().evaluate({name: traces[word] for name, word in words.items()})
        return abs(2 * traces[1, 2, 3, 4] - value)
    value = _quadruple_poly()._evaluate_fraction([traces[words[n]] for n in F4_VARS],
                                                 [1] * len(F4_VARS))
    return abs(2 * traces[1, 2, 3, 4] - value) / math.prod(ds)


def generator_count(n: int) -> int:
    """Number of increasing-word trace generators of the rank-n character
    ring: n + C(n,2) + C(n,3) = n(5 + n^2)/6."""
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")
    num = n * (5 + n * n)
    assert num % 6 == 0
    return num // 6


def _numerator_traces(mats, words) -> tuple[dict, tuple | None]:
    """tr X_I for each index tuple I in ``words``, X_I being its prefix's
    product (listed before it) times the last matrix, and None; for exact
    matrices, the traces of the integer numerators N_i = d_i m_i
    (:func:`mat2.clear_denominators`) and the d_i."""
    ds = None
    if all(map(mat2.is_exact, mats)):
        mats, ds = zip(*map(mat2.clear_denominators, mats))
    products, traces = {}, {}
    for word in words:
        last = mats[word[-1] - 1]
        products[word] = p = products[word[:-1]] @ last if len(word) > 1 else last
        traces[word] = mat2.trace(p)
    return traces, ds


def _product_traces(mats, words) -> dict:
    """tr X_I for each index tuple I in ``words`` (see
    :func:`_numerator_traces`); Fractions when the matrices are exact."""
    traces, ds = _numerator_traces(mats, words)
    if ds is None:
        return traces
    return {word: Fraction(t, math.prod(ds[i - 1] for i in word)) for word, t in traces.items()}


def coordinate_traces(variables: VariableSet, mats) -> dict:
    """Each coordinate x_I of ``variables`` as tr X_I at a matrix tuple;
    Fractions when the matrices are exact."""
    traces = _product_traces(mats, COORDINATES[variables].values())
    return {name: traces[word] for name, word in COORDINATES[variables].items()}


def evaluate_at_character(p: Polynomial, mats):
    """Evaluate a trace polynomial at the character of a matrix tuple:
    a complex number, or an exact Fraction when the matrices are exact
    (object arrays of Fractions, see :mod:`slchar.mat2`).  Exact matrices
    go in as integer numerators N_i = d_i m_i: each coordinate x_I is
    tr N_I over the product of the d_i for i in I, which the polynomial's
    exact evaluation takes without building a Fraction per coordinate."""
    mats = list(mats)
    if _VARSETS.get(len(mats)) != p.variables:
        raise ValueError(f"cannot evaluate over {p.variables.names} at {len(mats)} matrices")
    words = COORDINATES[p.variables]
    traces, ds = _numerator_traces(mats, words.values())
    if ds is None:
        return p.evaluate({name: traces[word] for name, word in words.items()})
    return p._evaluate_fraction([traces[words[n]] for n in p.variables],
                                [math.prod(ds[i - 1] for i in words[n]) for n in p.variables])
