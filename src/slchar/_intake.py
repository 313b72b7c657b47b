"""How the public numeric functions take numbers in, naming one that is
complex where they are real-only, past the float range or not finite, and
how their result records write JSON.  Every public function of ``fricke``,
``chars``, ``hypgeom`` and ``mat2`` that takes trace coordinates passes
them through ``take`` once; ``fricke``'s results, ``chars``' characters and
the hexagon certificate are ``Record``s.  Loads no numpy, no package module."""

from __future__ import annotations

import cmath
import contextlib
import dataclasses
import enum
import math
import sys
from fractions import Fraction
from numbers import Complex, Rational, Real


def take(error, owner: str, names: str, args, kind=float, exact: bool = False):
    """``args`` as they are if each is a float or a ``kind``, or if ``exact``
    and all are exact; else each as a float, a complex number of any type
    as a complex if ``kind`` is, else a ``TypeError``.  An exact one past the
    float range, or a NaN or an infinity, raises ``error``; each names
    ``owner`` and its name among the space-separated ``names``."""
    if all(type(t) is float or type(t) is kind for t in args):
        out = args
    elif exact and all(type(t) is int or type(t) is Fraction or isinstance(t, Rational)
                       for t in args):
        return args
    else:
        out = []
        for t in args:
            try:  # the common types first: a test against an ABC is slower
                if (type(t) is int or type(t) is float or type(t) is Fraction
                        or isinstance(t, Real) or not isinstance(t, Complex)):
                    out.append(float(t))
                elif kind is complex:
                    out.append(complex(t))
                else:  # float() would drop the imaginary part of a numpy complex
                    raise TypeError(f"{owner} needs a real {names.split()[len(out)]}, got {t}")
            except OverflowError:
                raise error(f"{owner} needs finite traces, got {names.split()[len(out)]} past "
                            "the float range") from None
    if not cmath.isfinite(sum(out)) and not all(map(cmath.isfinite, out)):  # the sum is cheaper
        name, t = next((n, t) for n, t in zip(names.split(), out) if not cmath.isfinite(t))
        raise error(f"{owner} needs finite traces, got {name} = {t}")
    return out


def report(owner: str, names: str, ratios) -> list[float]:
    """n / d for each (n, d) in ``ratios``, d > 0; an int quotient past the
    float range raises ValueError naming its field in ``names``."""
    try:
        return [n / d for n, d in ratios]
    except OverflowError:  # exact input only: a float quotient would read inf
        name = next(m for m, (n, d) in zip(names.split(), ratios)
                    if Fraction(abs(n), d) > sys.float_info.max)
        raise ValueError(f"{owner} reports floats, but {name} lies past the float range") from None


def unless_overflowed(value, formula, *args):
    """``value``, which is ``formula(*args)`` at arguments from ``take``,
    unless it is a float that is not finite: then ``formula`` on the exact
    ``Fraction``s of the arguments, so that an overflow decides no sign."""
    if isinstance(value, float) and not math.isfinite(value):
        return formula(*map(Fraction, args))
    return value


@contextlib.contextmanager
def overflow_names(**args):
    """Turn a float overflow of the block (a ZeroDivisionError too: a
    square that underflowed to 0) into a ValueError naming ``args``."""
    try:
        yield
    except (OverflowError, ZeroDivisionError):
        named = ", ".join(f"{name} = {value}" for name, value in args.items())
        raise ValueError(f"Fenchel-Nielsen coordinates out of float range at {named}") from None


class Record:
    """A dataclass whose ``to_json`` is its fields in order, each under its
    name or its ``_json_keys`` entry: enums by value, tuples as lists, records
    by their ``to_json`` and every other value through ``_json_value``."""

    _json_keys = {}

    def _json_value(self, v):
        return v

    def to_json(self) -> dict:
        return {self._json_keys.get(f.name, f.name): self._json(getattr(self, f.name))
                for f in dataclasses.fields(self)}

    def _json(self, v):
        if isinstance(v, tuple):
            return [self._json(t) for t in v]
        return (v.value if isinstance(v, enum.Enum) else v.to_json() if isinstance(v, Record)
                else self._json_value(v))
