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
rank.  A word of fewer than 9 letters (8 at rank 3) is one pass of right
multiplications from 1.  A longer word w = u v of n letters, v its last
min(2n // 5, 8) letters (min(n // 3, 8) at rank 3), is two passes, which
write u = sum c_b X_b and v = sum d_c X_c in the basis.  The
trace form (A, B) -> tr(AB) is bilinear, so tr(w) = sum c_b d_c
tr(X_b X_c); tr(X_b X_c) is X_b times c's letters, then tr 1 = 2 and
tr X_I = x_I, kept one pair at a time.
The last letters of one pass cost the most, each a pass over the
largest coefficients; the pairing multiplies each c_b once, by the small
f_b = sum_c d_c tr(X_b X_c), and the cap on v keeps f_b small.  No
table entry contains x123, so no c_b or d_c does and each tr(X_b X_c)
is linear in it: a rank-3 result has degree at most one in x123.

An expansion sum c_b X_b is one flat dict, on keys sized to the word
(``_Layout``).  A word of n letters gets fields of w = max(n.bit_length(),
5) bits, one per coordinate in ``COORDINATES`` order and no total-degree
field.  Basis element b has a slot (1 is slot 0, then the products of
``COORDINATES`` in order), and the term m X_b has the key
m + (slot << shift), shift being w times the number of coordinates: the
slot sits above the fields.  No exponent reaches 2**w (see ``_trace``),
so no field carries into the next.  Below 32 letters a rank-2 key has 17
bits (one int digit) and a rank-3 key 38, against 74 and 147 in
:mod:`slchar.polyring`'s canonical packed layout; the result is
converted to that layout once, by a map per layout that keeps the
monomials it has converted, up to a bound (``polyring._MonomialMap``: a
conversion of layouts is linear in the fields).  The table becomes
rows: per slot, the (key delta, coefficient) pairs of X_b times the
letters, so that a step is one loop, out[key + delta] += k * c
(``_step``).  Where a layout's keys stay below 2**17 (rank 2 below 32
letters, rank 1 below 2**16) the step adds into a list indexed by key,
one per thread, not into a dict.
A pass steps by the rows of four letters at once, two at rank 3, the
merged product of their letters' rows, and rebuilds its dict once per
row: at rank 2 a row of four letters has 7.6 pairs per slot, against 3.4
for two letters and 2.1 for one, and all 160 rows of one to four letters
take about 0.35 MB.  Rank 3 keeps rows of two letters, 5.0 pairs against
3.0 for one: its rows of three and four letters would take about 10 MB.
The join is two more steps of the same loop: f_b by the rows of
tr(X_b X_c) over v's keys, and then sum c_b f_b by the f_b as rows over
u's keys.  Rows and pairings depend on the layout and the letters only,
never on a word, so they stay cached (``_rows``, ``_pairing_rows``) and
survive ``clear_cache()`` as ``_table`` does; each is built when first
needed.

The engine's basis is read from :mod:`slchar.polyring`'s
``COORDINATES``, which names each coordinate by the increasing product
whose trace it is (x_I = tr X_I), and which this module exports as well.
Rank 4 has coordinates but no engine, and ``trace_poly`` refuses rank-4
words.  Results are memoized on the rank and the cyclically reduced
letters.
"""

from __future__ import annotations

import functools
import threading

from .polyring import _VARSETS, COORDINATES, WIDTH, Polynomial, _addmul_into, _MonomialMap
from .words import Word, _cyclic_reduce

__all__ = [
    "COORDINATES",
    "trace_poly",
    "kappa",
    "generator_count",
    "clear_cache",
]


#: Each rank's basis, 1 and then the products of ``COORDINATES``, by slot.
_BASIS = {rank: ((),) + tuple(COORDINATES[_VARSETS[rank]].values()) for rank in (1, 2, 3)}


@functools.cache
def _var(rank: int, key: tuple[int, ...]) -> Polynomial:
    variables = _VARSETS[rank]
    return Polynomial.variable(variables, variables.names[_BASIS[rank].index(key) - 1])


def _combine(*pairs) -> dict:
    """Sum of c * element over ``(c, element)`` pairs, c a coefficient term
    dict; a cancelled coefficient stays as an empty dict."""
    out: dict = {}
    for c, element in pairs:
        for b, c2 in element.items():
            _addmul_into(out.setdefault(b, {}), c, c2)
    return out


@functools.cache
def _table(rank: int) -> dict:
    """Right multiplication of each basis element by each letter:
    ``{(basis, letter): {basis: coefficient term dict}}``."""
    def x(*idx):
        return _var(rank, idx)._terms

    table: dict = {}
    for b in _BASIS[rank]:  # by size, so table[h, g] below is built first
        for g in range(1, rank + 1):
            if not b or b[-1] < g:  # increasing
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
    return {k: {b: c for b, c in el.items() if c} for k, el in table.items()}


#: Most keys a layout may span for ``_step`` to accumulate into a list:
#: the four slots of rank 2 over three 5-bit fields.
_DENSE_KEYS = 1 << 17

#: Per thread, ``acc``, a list of ``_DENSE_KEYS`` zeros, and ``dirty``, set
#: while a step uses it.
_scratch = threading.local()


class _Layout:
    """The flat keys of one rank for words of fewer than 2**width letters:
    one width-bit field per coordinate, in ``COORDINATES`` order, and the
    slot above them, from bit ``shift``.  One instance per (rank, width)
    (``_layout``), so the caches keyed by it are per (rank, width)."""

    __slots__ = ("rank", "shift", "dense", "_compact", "_canonical")

    def __init__(self, rank: int, width: int):
        count = len(_VARSETS[rank])
        self.rank = rank
        self.shift = width * count
        self.dense = len(_BASIS[rank]) << self.shift <= _DENSE_KEYS
        # both ways a linear field map: field i to field i, and the canonical
        # side adds each exponent to the total-degree field too
        self._compact = _MonomialMap((WIDTH * i, 1 << width * i) for i in range(count))
        self._canonical = _MonomialMap(
            ((width * i, (1 << WIDTH * i) + (1 << WIDTH * count)) for i in range(count)),
            (1 << width) - 1)

    def compact(self, terms: dict) -> dict:
        """A canonical term dict on this layout's keys."""
        compact = self._compact
        return {compact[m]: c for m, c in terms.items()}

    def polynomial(self, terms: dict) -> Polynomial:
        """The polynomial of a term dict on this layout's keys."""
        canonical = self._canonical
        return Polynomial._trusted(_VARSETS[self.rank], {canonical[m]: c for m, c in terms.items()})


@functools.cache
def _layout(rank: int, width: int) -> _Layout:
    return _Layout(rank, width)


def _step(element: dict, rows, layout: _Layout) -> dict:
    """The flat expansion sum of k * rows[key >> shift] over ``element``'s
    keys and coefficients k, a row being (key delta, coefficient) pairs:
    the engine's one multiply-add loop.  A cancelled key is removed.

    On a dense layout the sums go to this thread's list, indexed by key,
    and each key that turns nonzero is noted; the result is read from the
    noted keys, which are zeroed as they are read.  A step left by an
    exception leaves ``dirty`` set, and the next step starts a fresh list."""
    shift = layout.shift
    out: dict = {}
    if not layout.dense:
        get = out.get
        for key, k in element.items():
            for delta, c in rows[key >> shift]:
                e = key + delta
                s = get(e, 0) + k * c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return out
    if getattr(_scratch, "dirty", True):
        _scratch.acc = [0] * _DENSE_KEYS
    _scratch.dirty = True
    acc = _scratch.acc
    touched: list = []
    touch = touched.append
    for key, k in element.items():
        for delta, c in rows[key >> shift]:
            e = key + delta
            s = acc[e]
            if not s:
                touch(e)
            acc[e] = s + k * c
    for e in touched:  # a key that cancelled and turned nonzero again is noted twice
        s = acc[e]
        if s:
            out[e] = s
            acc[e] = 0
    _scratch.dirty = False
    return out


def _as_rows(elements, layout: _Layout) -> tuple:
    """Per slot, its flat expansion as rows: each key less the slot's own."""
    shift = layout.shift
    return tuple(tuple((key - (b << shift), c) for key, c in el.items())
                 for b, el in enumerate(elements))


@functools.cache
def _rows(layout: _Layout, letters: tuple[int, ...]) -> tuple:
    """Right multiplication by ``letters`` on flat keys, per slot: the
    ``_table`` entries of one letter, else the rows of all letters but the
    last, each times the last letter's rows."""
    shift = layout.shift
    if len(letters) > 1:
        last = _rows(layout, letters[-1:])
        return _as_rows((_step({(b << shift) + d: c for d, c in row}, last, layout)
                         for b, row in enumerate(_rows(layout, letters[:-1]))), layout)
    basis = _BASIS[layout.rank]
    slot = {b: i << shift for i, b in enumerate(basis)}
    return _as_rows(({slot[b2] + m: c for b2, terms in _table(layout.rank)[b, letters[0]].items()
                      for m, c in layout.compact(terms).items()} for b in basis), layout)


@functools.cache
def _trace_rows(layout: _Layout) -> tuple:
    """tr 1 = 2 and tr X_b = x_b as rows: flat keys to monomials."""
    rank = layout.rank
    return _as_rows([{0: 2}] + [layout.compact(_var(rank, b)._terms) for b in _BASIS[rank][1:]],
                    layout)


def _pairing(layout: _Layout, b: tuple, c: tuple) -> dict:
    """tr(X_b X_c) as a term dict on the layout's keys: X_b times c's
    letters, then tr 1 = 2 and tr X_I = x_I."""
    element = {_BASIS[layout.rank].index(b) << layout.shift: 1}
    if c:
        element = _step(element, _rows(layout, c), layout)
    return _step(element, _trace_rows(layout), layout)


@functools.cache
def _pairing_rows(layout: _Layout) -> tuple:
    """Per slot b, tr(X_b X_c) as rows over c's flat keys.  The trace form
    is symmetric, so each pair is traced once, for b up to c."""
    basis = _BASIS[layout.rank]
    traced = {(b, c): _pairing(layout, b, c) for i, b in enumerate(basis) for c in basis[i:]}
    return tuple(_as_rows((traced[(b, c) if (b, c) in traced else (c, b)] for c in basis),
                          layout) for b in basis)


def _pass(layout: _Layout, letters: tuple[int, ...]) -> dict:
    """The flat expansion of the product of ``letters``: one step per four
    letters, two at rank 3, after one row from 1 for the letters left over
    at the front."""
    per_step = 2 if layout.rank == 3 else 4
    head = len(letters) % per_step
    element = dict(_rows(layout, letters[:head])[0]) if head else {0: 1}  # slot 0 keys are deltas
    for i in range(head, len(letters), per_step):
        element = _step(element, _rows(layout, letters[i:i + per_step]), layout)
    return element


@functools.lru_cache(maxsize=None)
def _trace(rank: int, letters: tuple[int, ...]) -> Polynomial:
    """Trace polynomial of reduced letters w = u v, by the trace pairing
    tr(w) = sum c_b d_c tr(X_b X_c).  Weighting X_b by |b|,
    deg c_b + |b| <= |u| and deg tr(X_b X_c) <= |b| + |c|, so no product
    exceeds degree len(w): a word of n letters cannot overflow the fields
    of its layout, max(n.bit_length(), 5) bits wide (a pairing has degree
    at most 6), nor, shorter than 2**WIDTH letters, a packed exponent."""
    n = len(letters)
    if n >> WIDTH:
        raise OverflowError(f"a word of {n} letters overflows {WIDTH}-bit exponents")
    layout = _layout(rank, max(n.bit_length(), 5))
    # v is the last 2n // 5 letters, n // 3 at rank 3, and at most 8: the
    # multiply-adds of the passes and the join are least near n / 3 at both
    # ranks, and timings near 2n / 5 at rank 2.  On the 72 seeded words of
    # ``tests/test_tracepoly.py`` this takes them from 92,355 for one pass
    # to 55,674 (59,686 for min(n // 2, 8) and two-letter rows); at 40-96
    # rank-2 letters v = 8 comes within 8% of the least count, and an
    # uncapped 2n // 5 takes 1.4x it at 48 letters and 3.2x at 96.  Below
    # 9 letters (8 at rank 3) one pass with no join times faster, though
    # from 7 letters on it takes more multiply-adds: the join also visits
    # the keys of v's pass and of each f_b, and writes f_b's rows.
    if n < (8 if rank == 3 else 9):
        cut, rows = n, _trace_rows(layout)
    else:  # f_b = sum_c d_c tr(X_b X_c), as rows over b's flat keys
        cut = n - min(2 * n // (6 if rank == 3 else 5), 8)
        v = _pass(layout, letters[cut:])
        rows = _as_rows((_step(v, pairing, layout) for pairing in _pairing_rows(layout)), layout)
    return layout.polynomial(_step(_pass(layout, letters[:cut]), rows, layout))


def clear_cache() -> None:
    """Forget the memoized trace polynomials.  What depends on a rank and a
    layout only stays: the table, the rows and pairings, each layout's maps
    from and to canonical monomials, and each thread's scratch list."""
    _trace.cache_clear()


def trace_poly(w: Word) -> Polynomial:
    """Trace polynomial of a word of rank 1, 2 or 3, canonical modulo PHI at rank 3.

    It may be called from several threads at once."""
    if w.rank not in (1, 2, 3):
        raise ValueError(f"trace polynomials are implemented for rank <= 3, got {w.rank}")
    return _trace(w.rank, _cyclic_reduce(w.letters)[0])


def kappa() -> Polynomial:
    """Commutator trace x^2 + y^2 + z^2 - xyz - 2."""
    return trace_poly(Word(2, (1, 2, -1, -2)))


def generator_count(n: int) -> int:
    """Number of increasing-word trace generators of the rank-n character
    ring: n + C(n,2) + C(n,3) = n(5 + n^2)/6."""
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")
    num = n * (5 + n * n)
    assert num % 6 == 0
    return num // 6
