"""Seeded random inputs for the verification suites and tests.

Random unimodular matrices: entries uniform in [-2,2] (both real and
imaginary parts in the complex case), then the last entry solved to
force det = 1, rejecting ill-conditioned draws (|pivot| < 1e-3).
Exact matrices have small rational entries, with the last entry solved
the same way so that det = 1 holds exactly; they are drawn as the pair
(N, d) of :mod:`slchar.mat2`, m = N / d with N an int 4-tuple, so no
``Fraction`` is built.  ``exact_evaluate_word`` takes ``Fraction``
matrices and is the one place that writes them as (N, d).  Only the
float draws, complex numpy arrays built by ``mat2.mat2``, and
``exact_evaluate_word`` load numpy.  Streams derive deterministically
from (seed, trial-index), so each trial of ``slchar verify`` draws from
its own stream, whatever the trials before it drew.  ``identities``,
``oracle`` and ``covers`` take float matrices as the 4-tuples of
``random_unimodular_entries``, in the format of the exact numerators N.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .words import Word

__all__ = [
    "rng_for",
    "random_unimodular",
    "random_unimodular_entries",
    "random_real_unimodular",
    "random_rational_unimodular",
    "random_reduced_word",
    "exact_evaluate_word",
    "exact_trace",
]


def rng_for(seed: int, trial: int | None = None) -> random.Random:
    if trial is None:
        return random.Random(f"slchar:{seed}")
    return random.Random(f"slchar:{seed}:{trial}")


def _unimodular(rnd: random.Random, entry) -> tuple:
    """The first draw a, b, c of ``entry(rnd)`` with |a| >= 1e-3, and the
    last entry solved for det = 1: the rows (a, b, c, (1 + b c) / a)."""
    while True:
        a, b, c = entry(rnd), entry(rnd), entry(rnd)
        if abs(a) >= 1e-3:
            return a, b, c, (1 + b * c) / a


def _complex_entry(rnd: random.Random) -> complex:
    return complex(rnd.uniform(-2, 2), rnd.uniform(-2, 2))


def _as_array(entries):
    from . import mat2  # here, so that importing sampling leaves mat2 out

    return mat2.mat2(*entries)


def random_unimodular_entries(rnd: random.Random) -> tuple[complex, complex, complex, complex]:
    """The draw of ``random_unimodular`` as the four complex entries of
    its rows, no numpy array built."""
    return _unimodular(rnd, _complex_entry)


def random_unimodular(rnd: random.Random):
    return _as_array(_unimodular(rnd, _complex_entry))


def random_real_unimodular(rnd: random.Random):
    return _as_array(_unimodular(rnd, lambda r: r.uniform(-2, 2)))


def random_rational_unimodular(rnd: random.Random) -> tuple[tuple, int]:
    """A unimodular matrix with small rational entries as (N, d): N the
    int 4-tuple of the rows of d m and d > 0, so det N = d^2 exactly."""
    while True:
        an, ad = rnd.randint(-8, 8), rnd.randint(1, 3)
        bn, bd = rnd.randint(-8, 8), rnd.randint(1, 3)
        cn, cd = rnd.randint(-8, 8), rnd.randint(1, 3)
        if an:  # e = (1 + b c) / a = (bd cd + bn cn) ad / (bd cd an)
            q = bd * cd * an
            d = math.lcm(ad, q)
            e = (bd * cd + bn * cn) * ad * (d // q)
            return (an * (d // ad), bn * (d // bd), cn * (d // cd), e), d


def random_reduced_word(rnd: random.Random, rank: int, max_len: int) -> Word:
    """A freely reduced word of length at most max_len: the length is
    uniform on 0..max_len, and then the word is uniform among the reduced
    words of that length: each letter is drawn uniformly from the
    generators and their inverses, and a letter that would cancel the
    one before it is drawn again."""
    length = rnd.randint(0, max_len)
    letters: list[int] = []
    alphabet = [g for k in range(1, rank + 1) for g in (k, -k)]
    while len(letters) < length:
        g = rnd.choice(alphabet)
        if letters and letters[-1] == -g:
            continue
        letters.append(g)
    return Word(rank, tuple(letters))


def exact_evaluate_word(w: Word, mats):
    """Exact product along a word of unimodular Fraction matrices, given
    as object arrays or as nested tuples, each written as (N, d) with d
    the least common denominator of its entries."""
    from . import mat2  # here, so that importing sampling leaves mat2 out

    pairs = []
    for m in mats:
        entries = [Fraction(v) for row in m for v in row]
        d = math.lcm(*(v.denominator for v in entries))
        pairs.append((tuple(v.numerator * (d // v.denominator) for v in entries), d))
    return mat2.evaluate_word(w, pairs)


def exact_trace(m) -> Fraction:
    """Trace of an exact matrix, given as an object array or as nested tuples."""
    return m[0][0] + m[1][1]
