"""Trace polynomials of free-group words.

For a word w in F_2 this computes the polynomial f_w(x, y, z) with

    tr(w(xi, eta)) = f_w(tr(xi), tr(eta), tr(xi eta))

for all unimodular pairs, and analogously for F_3 in the seven
coordinates (x1, x2, x3, x12, x13, x23, x123), canonical modulo the
hypersurface relation PHI (degree at most one in x123).

The algebra generated by unimodular matrices X_1 ... X_n (n <= 3) is
spanned over the trace ring by the increasing products 1, X_i,
X_i X_j (i < j) and X_1 X_2 X_3 (Fricke-Vogt; Horowitz 1972,
Comm. Pure Appl. Math. 25; Procesi 1976).  Two rules, from
Cayley-Hamilton and the polarised identity
AB + BA = tr(A) B + tr(B) A + (tr AB - tr A tr B) I, rewrite a basis
element times a generator X_g back into the basis:

* X_g X_g = x_g X_g - 1
* X_j X_g = -X_g X_j + x_g X_j + x_j X_g + (x_gj - x_g x_j)   (g < j)

and an inverse letter is X_g^-1 = x_g - X_g.  So right multiplication
by a letter is a fixed table with polynomial entries, built once per
rank, and a word's trace is one pass of right multiplications from 1,
followed by tr 1 = 2 and tr X_I = x_I on the basis.  No table entry
contains x123, so a rank-3 result already has degree at most one in it.

``COORDINATES`` names each coordinate by the increasing product whose
trace it is (x_I = tr X_I); the engine's basis and ``coordinate_traces``
(behind ``evaluate_at_character``) both read it.  Results are memoized
on the rank and the cyclically reduced letters.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from . import mat2, polyring
from .polyring import F2_VARS, F3_VARS, WIDTH, Polynomial, VariableSet, _addmul_into
from .words import Word

__all__ = [
    "COORDINATES",
    "TraceExpression",
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

F1_VARS = VariableSet(("x",))

#: The trace coordinates of each rank, by the increasing generator
#: indices of the product whose trace they are.
COORDINATES = {
    F1_VARS: {"x": (1,)},
    F2_VARS: {"x": (1,), "y": (2,), "z": (1, 2)},
    F3_VARS: {
        "x1": (1,),
        "x2": (2,),
        "x3": (3,),
        "x12": (1, 2),
        "x13": (1, 3),
        "x23": (2, 3),
        "x123": (1, 2, 3),
    },
}

_VARSETS = {1: F1_VARS, 2: F2_VARS, 3: F3_VARS}

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
            if not b or b[-1] < g:
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
    if w.rank not in _VARSETS:
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


class TraceExpression:
    """A formal rational-linear combination of word traces.

    Intermediate currency for linearity-of-trace manipulations; words
    are kept reduced and the combination canonically keyed on cyclic
    class: the least rotation of the cyclically reduced word or of its
    inverse.  ``resolve`` collapses it to a single Polynomial.
    """

    def __init__(self, rank: int):
        self.rank = rank
        self._terms: dict[tuple[int, ...], Fraction] = {}

    def add(self, w: Word, coeff=1) -> "TraceExpression":
        if w.rank != self.rank:
            raise ValueError("rank mismatch")
        core = _cyclic_core(w)
        inverse = tuple(-g for g in reversed(core))
        key = min((s[i:] + s[:i] for s in (core, inverse) for i in range(len(s))), default=())
        c = self._terms.get(key, Fraction(0)) + Fraction(coeff)
        if c:
            self._terms[key] = c
        else:
            self._terms.pop(key, None)
        return self

    def terms(self):
        for key in sorted(self._terms):
            yield Word(self.rank, key), self._terms[key]

    def resolve(self) -> Polynomial:
        out = Polynomial.zero(_VARSETS[self.rank])
        for key, c in self._terms.items():
            out = out + _trace(self.rank, key).scale(c)
        return out


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


def quadruple_trace_check(assignment):
    """Residual of the quadruple-trace identity on four unimodular matrices;
    exact (a Fraction) when the matrices are exact.

    Evaluates |2 t1234 - (t1 t2 t3 t4 + t1 t234 + t2 t341 + t3 t412
    + t4 t123 + t12 t34 + t41 t23 - t13 t24 - t1 t2 t34 - t12 t3 t4
    - t4 t1 t23 - t41 t2 t3)| with the traces of ``_product_traces``, which
    forms each of the 11 products once (on integer numerators if exact).
    """
    ms = list(assignment)
    if len(ms) != 4:
        raise ValueError("quadruple_trace_check needs exactly four matrices")
    traces = _product_traces(ms, ((1,), (2,), (3,), (4,), (1, 2), (1, 2, 3), (1, 2, 3, 4),
        (2, 3), (2, 3, 4), (3, 4), (3, 4, 1), (4, 1), (4, 1, 2), (1, 3), (2, 4)))

    def t(*idx):
        return traces[idx]

    lhs = 2 * t(1, 2, 3, 4)
    rhs = (
        t(1) * t(2) * t(3) * t(4)
        + t(1) * t(2, 3, 4)
        + t(2) * t(3, 4, 1)
        + t(3) * t(4, 1, 2)
        + t(4) * t(1, 2, 3)
        + t(1, 2) * t(3, 4)
        + t(4, 1) * t(2, 3)
        - t(1, 3) * t(2, 4)
        - t(1) * t(2) * t(3, 4)
        - t(1, 2) * t(3) * t(4)
        - t(4) * t(1) * t(2, 3)
        - t(4, 1) * t(2) * t(3)
    )
    return abs(lhs - rhs)


def generator_count(n: int) -> int:
    """Number of increasing-word trace generators of the rank-n character
    ring: n + C(n,2) + C(n,3) = n(5 + n^2)/6."""
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")
    num = n * (5 + n * n)
    assert num % 6 == 0
    return num // 6


def _product_traces(mats, words) -> dict:
    """tr X_I for each index tuple I in ``words``, X_I being its prefix's
    product (listed before it) times the last matrix.  Exact matrices
    multiply as integer numerators (:func:`mat2.clear_denominators`)."""
    exact = all(map(mat2.is_exact, mats))
    if exact:
        mats, ds = zip(*map(mat2.clear_denominators, mats))
    products, traces = {}, {}
    for word in words:
        last = mats[word[-1] - 1]
        products[word] = p = products[word[:-1]] @ last if len(word) > 1 else last
        traces[word] = (Fraction(mat2.trace(p), math.prod(ds[i - 1] for i in word))
                        if exact else mat2.trace(p))
    return traces


def coordinate_traces(variables: VariableSet, mats) -> dict:
    """Each coordinate x_I of ``variables`` as tr X_I at a matrix tuple;
    Fractions when the matrices are exact."""
    traces = _product_traces(mats, COORDINATES[variables].values())
    return {name: traces[word] for name, word in COORDINATES[variables].items()}


def evaluate_at_character(p: Polynomial, mats):
    """Evaluate a trace polynomial at the character of a matrix tuple:
    a complex number, or an exact Fraction when the matrices are exact
    (object arrays of Fractions, see :mod:`slchar.mat2`)."""
    mats = list(mats)
    if _VARSETS.get(len(mats)) != p.variables:
        raise ValueError(f"cannot evaluate over {p.variables.names} at {len(mats)} matrices")
    assignment = coordinate_traces(p.variables, mats)
    if all(mat2.is_exact(m) for m in mats):
        return p.evaluate_exact(assignment)
    return p.evaluate(assignment)
