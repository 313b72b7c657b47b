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
rank.  A word w = u v of n letters, v its last min(n // 2, 8), is two
passes of right multiplications from 1, which write u = sum c_b X_b and
v = sum d_c X_c in the basis.  The trace form (A, B) -> tr(AB) is
bilinear, so tr(w) = sum c_b d_c tr(X_b X_c); tr(X_b X_c) is X_b times
c's letters, then tr 1 = 2 and tr X_I = x_I, kept one pair at a time.
The last letters of one pass cost the most, each a pass over the
largest coefficients; the pairing multiplies each c_b once, by the small
f_b = sum_c d_c tr(X_b X_c), and the cap on v keeps f_b small.  No
table entry contains x123, so no c_b or d_c does and each tr(X_b X_c)
is linear in it: a rank-3 result has degree at most one in x123.

From rank 4 on, the rules also give increasing products X_s of four
letters, which the table keeps as formal keys while it is built.  The
standard polynomial s_4 vanishes on 2x2 matrices (Amitsur-Levitzki
1950), and each of its 24 signed products, pushed depth first through
the right multiplication that traces words so that they share their
prefixes, is X_s plus shorter ones; so s_4(X_s) = 24 X_s + rest = 0 is
substituted into every entry holding X_s (ranks 1-3 have no such keys).
Rank 4 serves the quadruple-trace identity only: its coordinates
satisfy relations, so its polynomials are not canonical (a normal form
modulo them, Drensky 2003, Algebr. Represent. Theory 6, is out of
scope, and a rank-4 word is one pass), and ``trace_poly`` refuses
rank-4 words.

``COORDINATES`` names each coordinate by the increasing product whose
trace it is (x_I = tr X_I); the engine's basis and ``coordinate_traces``
(behind ``evaluate_at_character``) both read it.  Results are memoized
on the rank and the cyclically reduced letters.  Exact evaluation
multiplies int 4-tuples (``_mul``, which :mod:`slchar.mat2` and
:mod:`slchar.chars` share), so only numpy matrices load ``mat2``; its
complex formatter is ``_format_complex`` here, so that ``slchar cover
map --eval`` prints its images without numpy.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

from .polyring import F2_VARS, F3_VARS, WIDTH, Polynomial, VariableSet, _addmul_into
from .words import Word

__all__ = [
    "COORDINATES",
    "coordinate_traces",
    "trace_poly",
    "trace_poly_f2",
    "trace_poly_f3",
    "kappa",
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


def _combine(*pairs) -> dict:
    """Sum of c * element over ``(c, element)`` pairs, c a coefficient term
    dict; a cancelled coefficient stays as an empty dict."""
    out: dict = {}
    for c, element in pairs:
        for b, c2 in element.items():
            _addmul_into(out.setdefault(b, {}), c, c2)
    return out


def _times_letter(table: dict, element: dict, g: int) -> dict:
    """``element`` times the letter g: the engine's one such product."""
    out: dict = {}
    for b, c in element.items():
        for b2, c2 in table[b, g].items():
            _addmul_into(out.setdefault(b2, {}), c, c2)
    return out


@functools.cache
def _table(rank: int) -> dict:
    """Right multiplication of each basis element by each letter:
    ``{(basis, letter): {basis: coefficient term dict}}``."""
    def x(*idx):
        return _var(rank, idx)._terms

    table: dict = {}
    for b in sorted(((),) + tuple(_GEN_NAMES[rank]), key=len):
        for g in range(1, rank + 1):
            if not b or b[-1] < g:  # increasing; four letters stay a formal key
                el = {b + (g,): {0: 1}}
            elif b[-1] == g:  # X_g X_g = x_g X_g - 1
                el = {b: x(g), b[:-1]: {0: -1}}
            else:  # X_j X_g = -X_g X_j + x_g X_j + x_j X_g + (x_gj - x_g x_j)
                h, j = b[:-1], b[-1]
                hg = table[h, g]  # every basis in it is below j
                k = _var(rank, (g, j)) - _var(rank, (g,)) * _var(rank, (j,))
                el = _combine(({0: -1}, {hb + (j,): c for hb, c in hg.items()}),
                              (x(g), {b: {0: 1}}), (x(j), hg), (k._terms, {h: {0: 1}}))
            table[b, g] = el
            table[b, -g] = _combine((x(g), {b: {0: 1}}), ({0: -1}, el))  # X_g^-1 = x_g - X_g

    def signed_products(el, rest, sign):  # depth first: the products share prefixes
        if not rest:
            yield {0: sign}, el
        for i, g in enumerate(rest):  # g goes before i smaller letters
            yield from signed_products(_times_letter(table, el, g), rest[:i] + rest[i + 1:],
                                       -sign if i % 2 else sign)

    for s in itertools.combinations(range(1, rank + 1), 4):
        # s_4(X_s) = 0, each signed product being X_s plus shorter products
        s4 = _combine(*signed_products({(): {0: 1}}, s, 1))
        assert s4.pop(s) == {0: 24}, s
        for key, el in table.items():
            if s in el:
                c = _addmul_into({}, el.pop(s), {0: Fraction(-1, 24)})
                table[key] = _combine(({0: 1}, el), (c, s4))
    return {k: {b: c for b, c in el.items() if c} for k, el in table.items()}


def _expand(table: dict, element: dict, letters) -> dict:
    """``element`` times each of ``letters`` in turn, in the basis."""
    for g in letters:
        element = _times_letter(table, element, g)
    return element


@functools.cache
def _pairing(rank: int, b: tuple, c: tuple) -> dict:
    """tr(X_b X_c) as a coefficient term dict: X_b times c's letters, then
    tr 1 = 2 and tr X_I = x_I."""
    terms: dict = {}
    for b2, c2 in _expand(_table(rank), {b: {0: 1}}, c).items():
        _addmul_into(terms, c2, _var(rank, b2)._terms if b2 else {0: 2})
    return terms


@functools.lru_cache(maxsize=None)
def _trace(rank: int, letters: tuple[int, ...]) -> Polynomial:
    """Trace polynomial of reduced letters w = u v, by the trace pairing
    tr(w) = sum c_b d_c tr(X_b X_c).  Weighting X_b by |b|,
    deg c_b + |b| <= |u| and deg tr(X_b X_c) <= |b| + |c|, so no product
    exceeds degree len(w) and a word shorter than 2**WIDTH letters cannot
    overflow a packed exponent field.  Rank-4 polynomials are not
    canonical, and the pairing gives other, equally true ones from five
    letters on; so at rank 4 v is empty and w is one pass."""
    if len(letters) >> WIDTH:
        raise OverflowError(f"a word of {len(letters)} letters overflows {WIDTH}-bit exponents")
    table = _table(rank)
    # v is at most 8 letters: on the 1,296 trace_cold words of seeds 1-3 this
    # halves the multiply-adds of one pass (2.55M -> 1.24M), while a midpoint
    # split takes more than one pass at rank 2 from 64 letters (2.5x at 96)
    # and 1.3x the capped split at rank 3 with 36; the fewest multiply-adds
    # come at a v of 6-12 letters at every length from 24 to 96.
    cut = len(letters) - (min(len(letters) // 2, 8) if rank < 4 else 0)
    v = _expand(table, {(): {0: 1}}, letters[cut:])
    terms: dict = {}
    for b, cb in _expand(table, {(): {0: 1}}, letters[:cut]).items():
        f: dict = {}
        for c, dc in v.items():
            _addmul_into(f, dc, _pairing(rank, b, c))
        _addmul_into(terms, cb, f)
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
    traces, dens = _character(F4_VARS, ms, (1, 2, 3, 4))
    top = 2 * traces.pop()
    if dens is None:
        return abs(top - _quadruple_poly().evaluate(dict(zip(F4_VARS, traces))))
    value = Fraction(*_quadruple_poly()._evaluate_ratio(traces, [1] * len(traces)))
    return abs(top - value) / dens[-1]


def generator_count(n: int) -> int:
    """Number of increasing-word trace generators of the rank-n character
    ring: n + C(n,2) + C(n,3) = n(5 + n^2)/6."""
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")
    num = n * (5 + n * n)
    assert num % 6 == 0
    return num // 6


def _mul(n: tuple, k: tuple) -> tuple:
    """The product of two 2x2 matrices given as 4-tuples of their rows."""
    a, b, c, e = n
    p, q, r, s = k
    return (a * p + b * r, a * q + b * s, c * p + e * r, c * q + e * s)


def _format_complex(v: complex) -> str:
    """``a+bi`` with 17 significant digits (``mat2.format_complex``)."""
    re = f"{v.real:.17g}"
    im = f"{abs(v.imag):.17g}"
    sign = "+" if v.imag >= 0 else "-"
    return f"{re}{sign}{im}i"


def _prefix_traces(mats, words) -> tuple[dict, tuple | None]:
    """tr X_I for each index tuple I in ``words``, X_I being its prefix's
    product (listed before it) times the last matrix, and None; for exact
    matrices (N_i, d_i), the int traces of the products of the N_i,
    multiplied as int 4-tuples of their rows, and the d_i."""
    if all(isinstance(m, tuple) for m in mats):
        mats, ds = zip(*mats)
        mul, trace = _mul, lambda n: n[0] + n[3]
    else:
        from . import mat2

        ds, mul, trace = None, operator.matmul, mat2.trace
    products, traces = {}, {}
    for word in words:
        last = mats[word[-1] - 1]
        products[word] = p = mul(products[word[:-1]], last) if len(word) > 1 else last
        traces[word] = trace(p)
    return traces, ds


def _character(variables: VariableSet, mats, *extra) -> tuple[list, list | None]:
    """tr X_I for each coordinate x_I of ``variables`` in declared order,
    then for each I in ``extra``, and None; for exact matrices, tr N_I
    (:func:`_prefix_traces`) and each one's denominator, the product of
    the d_i for i in I.  Evaluation at a character splits here only."""
    words = [COORDINATES[variables][name] for name in variables] + list(extra)
    traces, ds = _prefix_traces(mats, words)
    dens = None if ds is None else [math.prod(ds[i - 1] for i in w) for w in words]
    return [traces[w] for w in words], dens


def coordinate_traces(variables: VariableSet, mats) -> dict:
    """Each coordinate x_I of ``variables`` as tr X_I at a matrix tuple;
    Fractions when the matrices are exact."""
    traces, dens = _character(variables, mats)
    return dict(zip(variables, traces if dens is None else map(Fraction, traces, dens)))


def evaluate_at_character(p: Polynomial, mats):
    """Evaluate a trace polynomial at the character of a matrix tuple:
    a complex number, or an exact Fraction when the matrices are exact
    pairs (N, d) (see :mod:`slchar.mat2`), taken on the integer numerators
    with no Fraction per coordinate (``_character``); numpy arrays are
    numeric."""
    mats = list(mats)
    if _VARSETS.get(len(mats)) != p.variables:
        raise ValueError(f"cannot evaluate over {p.variables.names} at {len(mats)} matrices")
    traces, dens = _character(p.variables, mats)
    if dens is None:
        return p.evaluate(dict(zip(p.variables, traces)))
    return Fraction(*p._evaluate_ratio(traces, dens))
