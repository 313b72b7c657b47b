"""Exact multivariate polynomials with rational coefficients.

Coefficients are Python ints or :class:`fractions.Fraction`; integer
coefficients stay ints internally so the heavy trace-polynomial
arithmetic runs at native-int speed.  Terms iterate in graded
lexicographic order of the declared variable order, which fixes the
text form and the JSON form.

Packed exponents (Monagan & Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007): a monomial is
one int made of ``WIDTH``-bit fields, the total degree in the top field
and then each variable's exponent in declared order, the last variable
in the lowest field.  So a monomial product is one integer add and
graded-lex order is integer order.  ``WIDTH`` is 18 bits, enough for
twice the degree of the trace of a ``MAX_WORD_LETTERS``-letter word.
A product whose total degree would not fit its field raises
OverflowError instead of carrying into the next field; the constructor
rejects a negative exponent or one whose degree does not fit.  Tuples
appear only at the boundary: the constructor and ``from_json``,
``terms()`` (so the text and JSON forms), ``coefficient`` and the
evaluation plan.

Evaluation plan: the first ``evaluate`` or ``evaluate_exact`` of a
polynomial unpacks its terms once into a plan that it keeps (see
``Polynomial._evaluation_plan``), so an evaluation computes each power
of a value once and exact evaluation runs in ints over one common
denominator.

Normal form: the term dict of every :class:`Polynomial` maps packed
monomials to nonzero coefficients, with integral Fractions collapsed
to ints.  The public constructor (and so
:meth:`Polynomial.from_json`) checks and establishes it; arithmetic
results preserve it by construction and are wrapped by the unchecked
``Polynomial._trusted``.  ``+``, ``scale``, ``*``, ``**``,
``substitute``, ``reduce_mod_phi`` and the build of the trace engine's
table (``tracepoly._table``) go through one kernel, ``_addmul_into``
(``out += a*b``); the engine itself steps by ``tracepoly._step``, and
``substitute`` needs the kernel only for the images of several terms,
which it multiplies by Horner's rule, after one pass over the terms
that adds the keys of the one-term images.
``evaluate`` sums floats in the canonical term order, so a float value
depends only on the polynomial, not on the order in which arithmetic
built its term dict.

Text form: ``3/2*x^2*y - z + 1``.
JSON form: ``{"variables": [...], "terms": [{"exp": [...], "num": ..., "den": ...}]}``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import groupby
from numbers import Rational
from operator import index
from typing import Iterable, Mapping

from .words import MAX_WORD_LETTERS

__all__ = [
    "VariableSet",
    "Polynomial",
    "F2_VARS",
    "F3_VARS",
    "S04_VARS",
    "S12_VARS",
    "sum_product",
    "reduce_mod_phi",
]


#: Bits per packed exponent field.
WIDTH = (2 * MAX_WORD_LETTERS).bit_length()
_MASK = (1 << WIDTH) - 1

#: Most tuples a variable set keeps for evaluation plans to share.
_SHARED_TUPLES = 1 << 12


class VariableSet:
    """An ordered set of distinct variable names.

    The order is part of the identity: it fixes the packed-monomial
    layout and the graded-lex term order.
    """

    __slots__ = ("names", "_index", "_shifts", "_limit", "_tuples")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"variable names must be distinct: {names}")
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}
        self._shifts = tuple(WIDTH * i for i in reversed(range(len(names))))
        self._limit = 1 << WIDTH * (len(names) + 1)  # monomials of degree < 2**WIDTH
        self._tuples: dict[tuple, tuple] = {}  # shared by the evaluation plans

    def _shared(self, t: tuple) -> tuple:
        """An equal tuple, the same object for the evaluation plans built
        since the table last started over (at ``_SHARED_TUPLES`` entries, so
        that it holds no memory for long for polynomials that are gone)."""
        if len(self._tuples) >= _SHARED_TUPLES:
            self._tuples.clear()
        return self._tuples.setdefault(t, t)

    def _pack(self, exp) -> int:
        """The packed monomial of an exponent vector, checked."""
        exp = tuple(map(index, exp))
        if len(exp) != len(self.names):
            raise ValueError(f"exponent vector {exp} does not match {len(self.names)} variables")
        if min(exp, default=0) < 0 or sum(exp) >> WIDTH:
            raise ValueError(f"exponent vector {exp} does not fit {WIDTH}-bit fields")
        key = sum(exp)
        for k in exp:
            key = key << WIDTH | k
        return key

    def _unpack(self, key: int) -> tuple:
        return tuple(key >> s & _MASK for s in self._shifts)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r} in {self.names}") from None

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, VariableSet) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VariableSet({self.names!r})"


#: Character coordinates of a free group of rank 2: tr X, tr Y, tr XY.
F2_VARS = VariableSet(("x", "y", "z"))

#: The seven coordinates of the rank-3 character hypersurface.
F3_VARS = VariableSet(("x1", "x2", "x3", "x12", "x13", "x23", "x123"))

#: Four-holed sphere: boundary traces a,b,c,d and curve traces x,y,z.
S04_VARS = VariableSet(("a", "b", "c", "d", "x", "y", "z"))

#: Two-holed torus: boundary traces a,b; generator traces u,x,y;
#: double-product traces v,w,z.
S12_VARS = VariableSet(("a", "b", "u", "v", "w", "x", "y", "z"))


def _norm_coeff(c):
    """Collapse Fractions with denominator one to plain ints."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


def _addmul_into(out: dict, a: Mapping, b: Mapping, limit: int = 0) -> dict:
    """``out += a*b`` in place, keeping the normal form: a cancelled key
    is removed, so if it reappears later it goes to the end of the dict.
    Given a variable set's ``_limit``, first raise OverflowError if the
    product's total degree would not fit its field.  ``+`` and ``scale``
    pass the one-term factor ``{0: 1}`` or ``{0: c}``, which visits the
    other operand's terms in order."""
    if limit and a and b and max(a) + max(b) >= limit:
        raise OverflowError(f"product degree exceeds {_MASK} ({WIDTH}-bit fields)")
    if len(a) > len(b):
        a, b = b, a
    get = out.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            s = get(e, 0) + ca * cb
            if s:
                out[e] = s if type(s) is int else _norm_coeff(s)
            else:
                del out[e]
    return out


def _pow_terms(terms: Mapping, n: int, limit: int) -> dict:
    """``terms ** n`` in a new dict, by repeated squaring."""
    out = None
    while n:
        if n & 1:
            out = dict(terms) if out is None else _addmul_into({}, out, terms, limit)
        n >>= 1
        if n:
            terms = _addmul_into({}, terms, terms, limit)
    return {0: 1} if out is None else out


def _horner(groups: list, several: list, limit: int) -> dict:
    """The sum over ``(gkey, terms)`` in ``groups`` (gkey descending, no
    terms empty) of ``terms * prod p**k``, for each ``(shift, p)`` in
    ``several`` with k gkey's field at shift, by Horner's rule in the first
    p: ``acc = acc * p + low`` from the top k down, low summing the groups
    of one k, recursively.  Writes over the term dicts; products check
    ``limit``."""
    if not several:  # one group
        return groups[0][1]
    (s, p), rest = several[0], several[1:]
    acc, top = None, 0
    for k, run in groupby(groups, key=lambda g: g[0] >> s & _MASK):
        low = _horner(list(run), rest, limit)
        if acc is not None:
            for _ in range(top - k - 1):
                acc = _addmul_into({}, acc, p, limit)
            low = _addmul_into(low, acc, p, limit)
        acc, top = low, k
    for _ in range(top):
        acc = _addmul_into({}, acc, p, limit)
    return acc


class Polynomial:
    """Immutable exact polynomial over a fixed :class:`VariableSet`."""

    __slots__ = ("variables", "_terms", "_plan")

    def __init__(self, variables: VariableSet, terms: Mapping[tuple, object] | None = None):
        self.variables = variables
        clean: dict[int, object] = {}
        if terms:
            for exp, c in terms.items():
                key = variables._pack(exp)
                if type(c) is not int:
                    c = _norm_coeff(c)
                if c:
                    clean[key] = c
        self._terms = clean
        self._plan = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, variables: VariableSet, terms: dict) -> "Polynomial":
        """Wrap a term dict already in normal form, without checking it."""
        p = object.__new__(cls)
        p.variables = variables
        p._terms = terms
        p._plan = None
        return p

    @classmethod
    def zero(cls, variables: VariableSet) -> "Polynomial":
        return cls._trusted(variables, {})

    @classmethod
    def constant(cls, variables: VariableSet, c) -> "Polynomial":
        return cls(variables, {(0,) * len(variables): Fraction(c)})

    @classmethod
    def variable(cls, variables: VariableSet, name: str) -> "Polynomial":
        exp = [0] * len(variables)
        exp[variables.index(name)] = 1
        return cls._trusted(variables, {variables._pack(exp): 1})

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def degree_in(self, name: str) -> int:
        s = self.variables._shifts[self.variables.index(name)]
        return max((e >> s & _MASK for e in self._terms), default=0)

    def coefficient(self, exp: tuple) -> Fraction:
        return Fraction(self._terms.get(self.variables._pack(exp), 0))

    def terms(self):
        """Iterate ``(exponent, Fraction coefficient)`` in canonical order."""
        for e in sorted(self._terms, reverse=True):
            yield self.variables._unpack(e), Fraction(self._terms[e])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.variables == other.variables and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.variables, frozenset(self._terms.items())))

    # -- arithmetic ------------------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.variables != self.variables:
                raise ValueError(
                    f"incompatible variable sets {self.variables} and {other.variables}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.variables, other)
        return NotImplemented

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial._trusted(
            self.variables, _addmul_into(dict(self._terms), other._terms, {0: 1})
        )

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.variables, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial) and isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial._trusted(
            self.variables, _addmul_into({}, self._terms, other._terms, self.variables._limit)
        )

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        c = _norm_coeff(Fraction(c))
        if not c:
            return Polynomial.zero(self.variables)
        return Polynomial._trusted(self.variables, _addmul_into({}, self._terms, {0: c}))

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        return Polynomial._trusted(
            self.variables, _pow_terms(self._terms, n, self.variables._limit)
        )

    # -- evaluation and substitution -----------------------------------------

    def _evaluation_plan(self) -> tuple:
        """``(pairs, coeffs, slots)``, built on the first call.  ``pairs``
        lists ``(i, k, top - k)`` for each occurring variable i, in declared
        order, and each exponent k that it takes in some term, k = 0
        included, top being its degree.  Per term, in canonical order: the
        coefficient, and the indices into ``pairs`` of its nonzero exponents
        in declared order followed by those of the zero exponents of the
        occurring variables it lacks.  Tuples are shared through the
        variable set, since many terms and polynomials repeat them."""
        if self._plan is None:
            keys = sorted(self._terms, reverse=True)
            rows = [self.variables._unpack(e) for e in keys]
            share = self.variables._shared
            occurring = [i for i, col in enumerate(zip(*rows)) if any(col)]
            pairs, slot = [], {}
            for i in occurring:
                top = max(r[i] for r in rows)
                for k in sorted({0, *(r[i] for r in rows)}):
                    slot[i, k] = len(pairs)
                    pairs.append(share((i, k, top - k)))
            slots = (share((*(slot[i, r[i]] for i in occurring if r[i]),
                            *(slot[i, 0] for i in occurring if not r[i]))) for r in rows)
            self._plan = (share(tuple(pairs)), tuple(map(self._terms.__getitem__, keys)),
                          tuple(slots))
        return self._plan

    def _check_bound(self, assignment: Mapping) -> None:
        for name in self.variables:
            if name not in assignment:
                raise KeyError(f"variable {name!r} not bound in assignment")

    def evaluate(self, assignment: Mapping[str, complex]) -> complex:
        """Evaluate at a complex point, summing in canonical term order.
        Every variable must be bound."""
        self._check_bound(assignment)
        pairs, coeffs, slots = self._plan or self._evaluation_plan()
        names = self.variables.names
        # v**k even for k = 1: it can flip the sign of a zero, or overflow
        powers = [complex(assignment[names[i]]) ** k if k else None for i, k, _ in pairs]
        total = 0j
        for c, term_slots in zip(coeffs, slots):
            term = complex(c)
            for s in term_slots:
                p = powers[s]
                if p is None:  # the zero exponents come last
                    break
                term *= p
            total += term
        return total

    def evaluate_exact(self, assignment: Mapping[str, Rational]) -> Fraction:
        """Evaluate at a rational point exactly (see ``_evaluate_ratio``).
        Every variable must be bound."""
        self._check_bound(assignment)
        vals = [Fraction(assignment[name]) for name in self.variables]
        return Fraction(*self._evaluate_ratio([v.numerator for v in vals],
                                              [v.denominator for v in vals]))

    def _evaluate_ratio(self, nums, dens) -> tuple:
        """The exact value where variable i is nums[i]/dens[i] (ints, each
        dens[i] > 0, not necessarily in lowest terms), as ``(num, den)``, not
        reduced: with top_i the degree of an occurring variable, num sums
        c * prod n_i^k d_i^(top_i - k) over the terms (k = 0 where a term
        lacks the variable), an int if the coefficients are, each power
        computed once, and den = prod d_i^top_i > 0."""
        pairs, coeffs, slots = self._plan or self._evaluation_plan()
        powers = [nums[i] ** k * dens[i] ** r for i, k, r in pairs]
        total = 0
        for c, term_slots in zip(coeffs, slots):
            for s in term_slots:
                c *= powers[s]
            total += c
        return total, math.prod(p for (_, k, _), p in zip(pairs, powers) if not k)

    def substitute(
        self,
        mapping: Mapping[str, "Polynomial"],
        target: VariableSet | None = None,
    ) -> "Polynomial":
        """Substitute polynomials for variables.

        Unmapped variables are carried over by name, so they must exist
        in the target set.  When all images share one variable set the
        target may be omitted.

        One pass over the terms handles the images of at most one term
        c*m (a variable, a constant, zero), which need no product:
        exponent k adds ``k * m`` to the packed key and, unless c is 1,
        multiplies the coefficient by ``c**k``.  It puts each term in the
        group keyed by its packed exponents on the variables with larger
        images (the source key masked to their fields, an int).  The
        groups are then summed by Horner's rule in each larger image, in
        declared order (see ``_horner``), so no power of an image is
        built or kept.
        """
        if target is None:
            target = next((img.variables for img in mapping.values()), self.variables)
        singles, scaled, several = [], [], []  # (shift, key), (shift, c), (shift, terms)
        gmask = 0
        for name, s in zip(self.variables.names, self.variables._shifts):
            img = mapping[name] if name in mapping else Polynomial.variable(target, name)
            if img.variables != target:
                raise ValueError(f"image of {name!r} is over {img.variables}, expected {target}")
            terms = img._terms
            if len(terms) > 1:
                several.append((s, terms))
                gmask |= _MASK << s
                continue
            m, a = next(iter(terms.items()), (0, 0))
            if m:
                singles.append((s, m))
            if a != 1:
                scaled.append((s, a))
        limit, mask = target._limit, _MASK
        groups: dict[int, dict] = {}
        for e, c in self._terms.items():
            key = 0
            for s, m in singles:
                key += (e >> s & mask) * m
            if key >= limit:
                raise OverflowError(f"product degree exceeds {_MASK} ({WIDTH}-bit fields)")
            for s, a in scaled:
                k = e >> s & mask
                if k:
                    c *= a**k
            group = groups.get(e & gmask)
            if group is None:
                group = groups[e & gmask] = {}
            c += group.get(key, 0)
            if c:
                group[key] = c if type(c) is int else _norm_coeff(c)
            else:  # cancelled, or a zero image
                group.pop(key, None)
        ordered = sorted(((g, t) for g, t in groups.items() if t), reverse=True)
        return Polynomial._trusted(target, _horner(ordered, several, limit) if ordered else {})

    def rename_variables(self, target: VariableSet) -> "Polynomial":
        """Reinterpret over a same-length variable set, positionally."""
        if len(target) != len(self.variables):
            raise ValueError("variable sets must have equal length")
        return Polynomial._trusted(target, dict(self._terms))

    # -- canonical text and JSON ------------------------------------------------

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for e, c in self.terms():
            mon = "*".join(
                f"{n}^{k}" if k > 1 else n
                for n, k in zip(self.variables, e)
                if k
            )
            mag = abs(c)
            if not mon:
                body = str(mag)
            elif mag == 1:
                body = mon
            else:
                body = f"{mag}*{mon}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    __str__ = to_text

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()!r} over {self.variables.names})"

    def to_json(self) -> dict:
        return {
            "variables": list(self.variables.names),
            "terms": [
                {"exp": list(e), "num": c.numerator, "den": c.denominator}
                for e, c in self.terms()
            ],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "Polynomial":
        variables = VariableSet(data["variables"])
        terms = {
            tuple(t["exp"]): Fraction(t["num"], t.get("den", 1))
            for t in data["terms"]
        }
        return cls(variables, terms)


def sum_product(t1, t2, t3, t12, t13, t23):
    """(f_Sigma, f_Pi) at six rank-3 traces, in the arithmetic of the
    arguments: numbers, exact rationals or Polynomials.  The triple
    traces tr(X1 X2 X3) and tr(X1 X3 X2) are the roots of
    t^2 - f_Sigma t + f_Pi."""
    fsum = t12 * t3 + t13 * t2 + t23 * t1 - t1 * t2 * t3
    fprod = (
        t1 * t1 + t2 * t2 + t3 * t3
        + t12 * t12 + t23 * t23 + t13 * t13
        - (t1 * t2 * t12 + t2 * t3 * t23 + t3 * t1 * t13)
        + t12 * t23 * t13 - 4
    )
    return fsum, fprod


_X123 = Polynomial.variable(F3_VARS, "x123")

#: Coefficients of the monic quadratic  t^2 - SUM_RELATION*t + PRODUCT_RELATION
#: whose roots are the two triple traces.
SUM_RELATION, PRODUCT_RELATION = sum_product(
    *(Polynomial.variable(F3_VARS, n) for n in ("x1", "x2", "x3", "x12", "x13", "x23"))
)

#: The defining polynomial of the rank-3 character hypersurface:
#: PHI = x123^2 - SUM_RELATION*x123 + PRODUCT_RELATION.
PHI = _X123 * _X123 - SUM_RELATION * _X123 + PRODUCT_RELATION

(_X123_KEY,) = _X123._terms

# x123^d == x123^(d-1)*SUM_RELATION - x123^(d-2)*PRODUCT_RELATION on the
# hypersurface, as factors whose keys lower the x123 field by one and by two
_LOWER_ONE = {e - _X123_KEY: c for e, c in SUM_RELATION._terms.items()}
_LOWER_TWO = {e - 2 * _X123_KEY: -c for e, c in PRODUCT_RELATION._terms.items()}


def reduce_mod_phi(p: Polynomial) -> Polynomial:
    """Canonical representative of ``p`` modulo the hypersurface relation.

    Eliminates ``x123^2`` using the monic quadratic PHI, so the result
    has degree at most one in ``x123``, in one pass: with the terms in
    buckets by x123 degree, from the top degree d down to 2, bucket d
    goes into bucket d-1 times SUM_RELATION*x123 and into bucket d-2
    times -PRODUCT_RELATION.  Requires ``p`` over the rank-3 set.
    """
    if p.variables != F3_VARS:
        raise ValueError("reduce_mod_phi expects a polynomial over the F3 set")
    top = max((e & _MASK for e in p._terms), default=0)  # x123 is the lowest field
    if top < 2:
        return p
    buckets: list[dict] = [{} for _ in range(top + 1)]
    for e, c in p._terms.items():
        buckets[e & _MASK][e] = c
    for d in range(top, 1, -1):
        _addmul_into(buckets[d - 1], buckets[d], _LOWER_ONE, F3_VARS._limit)
        _addmul_into(buckets[d - 2], buckets[d], _LOWER_TWO, F3_VARS._limit)
    buckets[0].update(buckets[1])
    return Polynomial._trusted(F3_VARS, buckets[0])
