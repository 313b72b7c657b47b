"""Reference 2x2 arithmetic on nested tuples, for the tests.

Written without numpy and without :mod:`slchar`, so that exact results
of the library (object arrays of Fractions, generic identity functions)
can be checked against an independent product.  ``as_pair`` and
``from_pair`` convert to and from the library's exact matrices (N, d).
"""

import math
from fractions import Fraction

from hypothesis import strategies as st

IDENTITY = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))

FRACTIONS = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def as_tuple(m):
    """Nested tuples from a 2x2 numpy array (or any nested sequence)."""
    return tuple(tuple(row) for row in (m.tolist() if hasattr(m, "tolist") else m))


def as_pair(m):
    """The exact pair (N, d) of a rational 2x2 matrix, as the library takes
    it: N the int 4-tuple of the rows of d m, d > 0 the least common
    denominator of the entries."""
    entries = [Fraction(v) for row in as_tuple(m) for v in row]
    d = math.lcm(*(v.denominator for v in entries))
    return tuple(int(v * d) for v in entries), d


def from_pair(pair):
    """Nested Fraction tuples of the matrix N / d of an exact pair."""
    n, d = pair
    return tuple(tuple(Fraction(v, d) for v in n[i:i + 2]) for i in (0, 2))


def matmul(m, n):
    return tuple(
        tuple(m[i][0] * n[0][j] + m[i][1] * n[1][j] for j in range(2))
        for i in range(2)
    )


def trace(m):
    return m[0][0] + m[1][1]


def inverse(m):
    """Inverse of a unimodular matrix: its adjugate."""
    return ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))


def product(*mats):
    out = IDENTITY
    for m in mats:
        out = matmul(out, m)
    return out


def word_product(w, mats):
    """The product along a word's letters (negative letters invert)."""
    return product(*(
        mats[g - 1] if g > 0 else inverse(mats[-g - 1]) for g in w.letters
    ))


def commutator_trace(m, n):
    return trace(product(m, n, inverse(m), inverse(n)))


#: Rational entries: ints, and Fractions with denominators up to 10**9.
ENTRIES = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=10**9),
)

#: Rational 2x2 matrices of any determinant, ints and Fractions mixed.
RATIONAL = st.tuples(st.tuples(ENTRIES, ENTRIES), st.tuples(ENTRIES, ENTRIES))

#: Rational unimodular matrices ((a, b), (c, (1 + bc) / a)).
SL2 = st.tuples(FRACTIONS.filter(bool), FRACTIONS, FRACTIONS).map(
    lambda t: ((t[0], t[1]), (t[2], (1 + t[1] * t[2]) / t[0]))
)
