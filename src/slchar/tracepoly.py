"""Trace polynomials of free-group words.

For a word w in F_2 this computes the polynomial f_w(x, y, z) with

    tr(w(xi, eta)) = f_w(tr(xi), tr(eta), tr(xi eta))

for all unimodular pairs, and analogously for F_3 in the seven
coordinates (x1, x2, x3, x12, x13, x23, x123), canonical modulo the
hypersurface relation PHI.

The reduction uses three rewriting moves, each strictly decreasing the
measure (length, number of inverse letters):

* inverse elimination:   tr(A g^-1 B) = tr(g) tr(AB) - tr(A g B)
* square reduction:      tr(B g g)    = tr(g) tr(Bg) - tr(B)
* splitting at a repeated letter g (Basic Identity):
  for w ~ v1 g v2 g,     tr(w) = tr(v1 g) tr(v2 g) - tr(v1 v2^-1)

applied after cyclic reduction, down to base words of length <= 2
(rank 2) or <= 3 (rank 3); the length-3 class of X1 X3 X2 is
eliminated through the Sum Relation.  Results are memoized on the
lexicographically least cyclic rotation of the word and its inverse.
The memo table is only mutated under the interpreter lock, so
concurrent callers at worst recompute an entry.
"""

from __future__ import annotations

from fractions import Fraction

from . import mat2
from .polyring import (
    F2_VARS,
    F3_VARS,
    PHI,
    PRODUCT_RELATION,
    SUM_RELATION,
    Polynomial,
    VariableSet,
    reduce_mod_phi,
)
from .words import Word, _free_reduce

__all__ = [
    "TraceExpression",
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

_VARSETS = {1: F1_VARS, 2: F2_VARS, 3: F3_VARS}

_GEN_NAMES = {
    1: {(1,): "x"},
    2: {(1,): "x", (2,): "y", (1, 2): "z"},
    3: {
        (1,): "x1",
        (2,): "x2",
        (3,): "x3",
        (1, 2): "x12",
        (1, 3): "x13",
        (2, 3): "x23",
        (1, 2, 3): "x123",
    },
}

_memo: dict[tuple[int, tuple[int, ...]], Polynomial] = {}


def clear_cache() -> None:
    _memo.clear()


def _canonical_forms(w: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(memo key, computation representative) for the cyclic class of w.

    The key is the least rotation among all rotations of w and of its
    inverse.  The representative is the least rotation of whichever of
    the two sides carries fewer inverse letters; computing on it keeps
    the (length, inverse-count) termination measure decreasing, which
    the raw lexicographic minimum would not (inversion flips all signs).
    """
    if not w:
        return w, w
    inv = tuple(-g for g in reversed(w))
    min_w = min(w[i:] + w[:i] for i in range(len(w)))
    min_i = min(inv[i:] + inv[:i] for i in range(len(inv)))
    key = min(min_w, min_i)
    neg_w = sum(1 for g in w if g < 0)
    neg_i = len(w) - neg_w
    if neg_w < neg_i:
        rep = min_w
    elif neg_i < neg_w:
        rep = min_i
    else:
        rep = key
    return key, rep


def _cyclic_key(w: tuple[int, ...]) -> tuple[int, ...]:
    return _canonical_forms(w)[0]


def _cyclic_reduce(w: tuple[int, ...]) -> tuple[int, ...]:
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return w


def _var(rank: int, key: tuple[int, ...]) -> Polynomial:
    return Polynomial.variable(_VARSETS[rank], _GEN_NAMES[rank][key])


def _tr(rank: int, w: tuple[int, ...]) -> Polynomial:
    w = _cyclic_reduce(_free_reduce(w))
    cyc_key, rep = _canonical_forms(w)
    key = (rank, cyc_key)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    result = _tr_compute(rank, rep)
    if rank == 3:
        result = reduce_mod_phi(result)
    _memo[key] = result
    return result


def _tr_compute(rank: int, w: tuple[int, ...]) -> Polynomial:
    vars_ = _VARSETS[rank]
    n = len(w)
    if n == 0:
        return Polynomial.constant(vars_, 2)
    if n == 1:
        return _var(rank, (abs(w[0]),))

    # eliminate the first inverse letter: tr(A g^-1 B) = tr(g)tr(AB) - tr(A g B)
    for i, g in enumerate(w):
        if g < 0:
            a, b = w[:i], w[i + 1 :]
            return _var(rank, (-g,)) * _tr(rank, a + b) - _tr(
                rank, a + (-g,) + b
            )

    # positive word now; square reduction: tr(B g g) = tr(g)tr(Bg) - tr(B)
    for i in range(n):
        j = (i + 1) % n
        if w[i] == w[j]:
            rot = w[j + 1 :] + w[: j + 1]  # rotate so the pair ends the word
            b, g = rot[:-2], rot[-1]
            return _var(rank, (g,)) * _tr(rank, b + (g,)) - _tr(rank, b)

    if n == 2:
        i, j = sorted((w[0], w[1]))
        return _var(rank, (i, j))

    if n == 3 and rank == 3:
        k = w.index(min(w))
        rot = w[k:] + w[:k]
        if rot == (1, 2, 3):
            return _var(rank, (1, 2, 3))
        # the other cyclic class: Sum Relation eliminates its trace
        return SUM_RELATION - _var(rank, (1, 2, 3))

    # square-free with a repeated letter: split there (Basic Identity)
    for i in range(n):
        for j in range(i + 1, n):
            if w[i] == w[j]:
                rot = w[j + 1 :] + w[: j + 1]  # ends with g at both split points
                split = i + (n - 1 - j)
                u1, u2 = rot[: split + 1], rot[split + 1 :]
                v1, v2 = u1[:-1], u2[:-1]
                v2_inv = tuple(-g for g in reversed(v2))
                return _tr(rank, u1) * _tr(rank, u2) - _tr(rank, v1 + v2_inv)

    raise AssertionError(f"irreducible case for rank {rank}: {w}")


def trace_poly(w: Word) -> Polynomial:
    """Trace polynomial of a word of rank 1, 2 or 3."""
    if w.rank == 2:
        return trace_poly_f2(w)
    if w.rank == 3:
        return trace_poly_f3(w)
    if w.rank == 1:
        return _tr(1, w.reduce().letters)
    raise ValueError(f"trace polynomials are implemented for rank <= 3, got {w.rank}")


def trace_poly_f2(w: Word) -> Polynomial:
    """f_w(x, y, z) for a rank-2 word."""
    if w.rank != 2:
        raise ValueError(f"expected a rank-2 word, got rank {w.rank}")
    return _tr(2, w.reduce().letters)


def trace_poly_f3(w: Word) -> Polynomial:
    """Trace polynomial of a rank-3 word, canonical modulo PHI."""
    if w.rank != 3:
        raise ValueError(f"expected a rank-3 word, got rank {w.rank}")
    return _tr(3, w.reduce().letters)


class TraceExpression:
    """A formal rational-linear combination of word traces.

    Intermediate currency for linearity-of-trace manipulations; words
    are kept reduced and the combination canonically keyed on cyclic
    class.  ``resolve`` collapses it to a single Polynomial.
    """

    def __init__(self, rank: int):
        self.rank = rank
        self._terms: dict[tuple[int, ...], Fraction] = {}

    def add(self, w: Word, coeff=1) -> "TraceExpression":
        if w.rank != self.rank:
            raise ValueError("rank mismatch")
        key = _cyclic_key(_cyclic_reduce(w.reduce().letters))
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
            out = out + _tr(self.rank, key).scale(c)
        return out


def kappa() -> Polynomial:
    """Commutator trace x^2 + y^2 + z^2 - xyz - 2."""
    return trace_poly_f2(Word(2, (1, 2, -1, -2)))


def kappa_value(x, y, z):
    """kappa evaluated at numbers (exact if the inputs are exact)."""
    return x * x + y * y + z * z - x * y * z - 2


def phi_polynomial() -> Polynomial:
    """Generator of the principal ideal cutting out the rank-3 variety."""
    return PHI


def sum_product_relation_polys() -> tuple[Polynomial, Polynomial]:
    """(f_Sigma, f_Pi): the triple traces are the roots of
    t^2 - f_Sigma t + f_Pi."""
    return SUM_RELATION, PRODUCT_RELATION


def quadruple_trace_check(assignment):
    """Residual of the quadruple-trace identity on four unimodular matrices;
    exact (a Fraction) when the matrices are exact.

    Evaluates |2 t1234 - (t1 t2 t3 t4 + t1 t234 + t2 t341 + t3 t412
    + t4 t123 + t12 t34 + t41 t23 - t13 t24 - t1 t2 t34 - t12 t3 t4
    - t4 t1 t23 - t41 t2 t3)| with every trace taken from the matrices.
    """
    ms = list(assignment)
    if len(ms) != 4:
        raise ValueError("quadruple_trace_check needs exactly four matrices")

    def t(*idx):
        out = ms[idx[0] - 1]
        for i in idx[1:]:
            out = out @ ms[i - 1]
        return mat2.trace(out)

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


def evaluate_at_character(p: Polynomial, mats):
    """Evaluate a trace polynomial at the character of a matrix tuple:
    a complex number, or an exact Fraction when the matrices are exact
    (object arrays of Fractions, see :mod:`slchar.mat2`)."""
    mats = list(mats)
    if p.variables == F2_VARS:
        xi, eta = mats
        assignment = {
            "x": mat2.trace(xi),
            "y": mat2.trace(eta),
            "z": mat2.trace(xi @ eta),
        }
    elif p.variables == F3_VARS:
        m1, m2, m3 = mats
        assignment = {
            "x1": mat2.trace(m1),
            "x2": mat2.trace(m2),
            "x3": mat2.trace(m3),
            "x12": mat2.trace(m1 @ m2),
            "x13": mat2.trace(m1 @ m3),
            "x23": mat2.trace(m2 @ m3),
            "x123": mat2.trace(m1 @ m2 @ m3),
        }
    elif p.variables == F1_VARS:
        assignment = {"x": mat2.trace(mats[0])}
    else:
        raise ValueError(f"unsupported variable set {p.variables}")
    if all(mat2.is_exact(m) for m in mats):
        return p.evaluate_exact(assignment)
    return p.evaluate(assignment)
