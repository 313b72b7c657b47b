"""Exact multivariate polynomials with rational coefficients.

Coefficients are Python ints or :class:`fractions.Fraction`; integer
coefficients stay ints internally so the heavy trace-polynomial
arithmetic runs at native-int speed.  Exponent vectors are dense
tuples sized to the variable set (all the sets used here have at most
eight variables).  Terms iterate in graded lexicographic order of the
declared variable order, which fixes the text form and the JSON form.

Normal form: the term dict of every :class:`Polynomial` maps exponent
tuples of the variable set's length to nonzero coefficients, with
integral Fractions collapsed to ints.  The public constructor (and so
:meth:`Polynomial.from_json`) checks and establishes it; arithmetic
results preserve it by construction and are wrapped by the unchecked
``Polynomial._trusted``.  ``evaluate`` sums floats in the canonical
term order, so a float value depends only on the polynomial, not on the
order in which arithmetic built its term dict.

Text form: ``3/2*x^2*y - z + 1``.
JSON form: ``{"variables": [...], "terms": [{"exp": [...], "num": ..., "den": ...}]}``.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from operator import add
from typing import Iterable, Mapping

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


class VariableSet:
    """An ordered set of distinct variable names.

    The order is part of the identity: it fixes exponent-vector layout
    and the graded-lex term order.
    """

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"variable names must be distinct: {names}")
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}

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


def _norm_terms(terms: dict) -> dict:
    """Collapse integral Fractions in place; ints skip the ABC isinstance."""
    for e, c in terms.items():
        if type(c) is not int:
            terms[e] = _norm_coeff(c)
    return terms


def _add_into(out: dict, terms: Mapping) -> dict:
    """Add ``terms`` into ``out`` in place, keeping the normal form.

    A key whose sum cancels is removed, so if it reappears later it goes
    to the end of the dict, exactly as with repeated ``+``.
    """
    get = out.get
    for e, c in terms.items():
        s = get(e, 0) + c
        if s:
            out[e] = s if type(s) is int else _norm_coeff(s)
        else:
            del out[e]
    return out


def _mul_terms(a: Mapping, b: Mapping) -> dict:
    """Product of two normal-form term dicts, in normal form."""
    if len(a) > len(b):
        a, b = b, a
    out: dict[tuple, object] = {}
    get = out.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            s = get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return _norm_terms(out)


def _pow_terms(terms: Mapping, n: int, one: tuple, squares: list | None = None) -> dict:
    """``terms ** n`` by repeated squaring.  ``squares`` caches
    ``terms ** (2**j)`` at index j across calls on the same base."""
    if squares is None:
        squares = [terms]
    out = {one: 1}
    j = 0
    while n:
        if j == len(squares):
            squares.append(_mul_terms(squares[-1], squares[-1]))
        if n & 1:
            out = _mul_terms(out, squares[j])
        n >>= 1
        j += 1
    return out


class Polynomial:
    """Immutable exact polynomial over a fixed :class:`VariableSet`."""

    __slots__ = ("variables", "_terms")

    def __init__(self, variables: VariableSet, terms: Mapping[tuple, object] | None = None):
        self.variables = variables
        clean: dict[tuple, object] = {}
        if terms:
            nvars = len(variables)
            for exp, c in terms.items():
                if len(exp) != nvars:
                    raise ValueError(
                        f"exponent vector {exp} does not match {nvars} variables"
                    )
                if type(c) is not int:
                    c = _norm_coeff(c)
                if c:
                    clean[tuple(exp)] = c
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, variables: VariableSet, terms: dict) -> "Polynomial":
        """Wrap a term dict already in normal form, without checking it."""
        p = object.__new__(cls)
        p.variables = variables
        p._terms = terms
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
        return cls._trusted(variables, {tuple(exp): 1})

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def total_degree(self) -> int:
        return max((sum(e) for e in self._terms), default=0)

    def degree_in(self, name: str) -> int:
        i = self.variables.index(name)
        return max((e[i] for e in self._terms), default=0)

    def coefficient(self, exp: tuple) -> Fraction:
        return Fraction(self._terms.get(tuple(exp), 0))

    def _canonical_exponents(self) -> list:
        return sorted(self._terms, key=lambda e: (sum(e), e), reverse=True)

    def terms(self):
        """Iterate ``(exponent, Fraction coefficient)`` in canonical order."""
        for e in self._canonical_exponents():
            yield e, Fraction(self._terms[e])

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
        return Polynomial._trusted(self.variables, _add_into(dict(self._terms), other._terms))

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
        return Polynomial._trusted(self.variables, _mul_terms(self._terms, other._terms))

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        c = _norm_coeff(Fraction(c))
        if not c:
            return Polynomial.zero(self.variables)
        return Polynomial._trusted(
            self.variables, _norm_terms({e: v * c for e, v in self._terms.items()})
        )

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        one = (0,) * len(self.variables)
        return Polynomial._trusted(self.variables, _pow_terms(self._terms, n, one))

    # -- evaluation and substitution -----------------------------------------

    def evaluate(self, assignment: Mapping[str, complex]) -> complex:
        """Evaluate at a complex point, summing in canonical term order.
        Every variable must be bound."""
        vals = []
        for name in self.variables:
            if name not in assignment:
                raise KeyError(f"variable {name!r} not bound in assignment")
            vals.append(complex(assignment[name]))
        terms = self._terms
        total = 0j
        for e in self._canonical_exponents():
            term = complex(terms[e])
            for v, k in zip(vals, e):
                if k:
                    term *= v**k
            total += term
        return total

    def evaluate_exact(self, assignment: Mapping[str, Rational]) -> Fraction:
        """Evaluate at a rational point with exact arithmetic."""
        vals = []
        for name in self.variables:
            if name not in assignment:
                raise KeyError(f"variable {name!r} not bound in assignment")
            vals.append(Fraction(assignment[name]))
        total = Fraction(0)
        for e, c in self._terms.items():
            term = Fraction(c)
            for v, k in zip(vals, e):
                if k:
                    term *= v**k
            total += term
        return total

    def substitute(
        self,
        mapping: Mapping[str, "Polynomial"],
        target: VariableSet | None = None,
    ) -> "Polynomial":
        """Substitute polynomials for variables.

        Unmapped variables are carried over by name, so they must exist
        in the target set.  When all images share one variable set the
        target may be omitted.
        """
        if target is None:
            for img in mapping.values():
                target = img.variables
                break
            else:
                target = self.variables
        images: list[dict] = []
        for name in self.variables:
            if name in mapping:
                img = mapping[name]
                if img.variables != target:
                    raise ValueError(
                        f"image of {name!r} is over {img.variables}, expected {target}"
                    )
                images.append(img._terms)
            else:
                images.append(Polynomial.variable(target, name)._terms)
        one = (0,) * len(target)
        squares: list[list] = [[img] for img in images]
        powers: dict[tuple[int, int], dict] = {}
        out: dict[tuple, object] = {}
        for e, c in self._terms.items():
            term = {one: c}
            for i, k in enumerate(e):
                if k:
                    pk = powers.get((i, k))
                    if pk is None:
                        pk = powers[i, k] = _pow_terms(images[i], k, one, squares[i])
                    term = _mul_terms(term, pk)
            _add_into(out, term)
        return Polynomial._trusted(target, out)

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

_X123_INDEX = F3_VARS.index("x123")

# x123^2 == SUM_RELATION*x123 - PRODUCT_RELATION on the hypersurface
_X123_SQUARED = (SUM_RELATION * _X123 - PRODUCT_RELATION)._terms


def reduce_mod_phi(p: Polynomial) -> Polynomial:
    """Canonical representative of ``p`` modulo the hypersurface relation.

    Repeatedly eliminates ``x123^2`` using the monic quadratic PHI, so
    the result has degree at most one in ``x123``.  Requires ``p`` over
    the seven-variable rank-3 set.
    """
    if p.variables != F3_VARS:
        raise ValueError("reduce_mod_phi expects a polynomial over the F3 set")
    i = _X123_INDEX
    terms = p._terms
    d = max((e[i] for e in terms), default=0)
    if d <= 1:
        return p
    while d > 1:
        # lower the top x123-degree d by one: x123^d -> x123^(d-2) * x123^2
        rest: dict[tuple, object] = {}
        lowered: dict[tuple, object] = {}
        for e, c in terms.items():
            if e[i] == d:
                lowered[e[:i] + (d - 2,) + e[i + 1:]] = c
            else:
                rest[e] = c
        terms = _add_into(rest, _mul_terms(lowered, _X123_SQUARED))
        d = max((e[i] for e in terms), default=0)
    return Polynomial._trusted(F3_VARS, terms)
