"""Complex 2x2 (and 3x3) matrix kernel and the trace oracle.

All explicit matrix formulas live here, together with the oracles for
trace polynomials: ``word_trace`` and ``evaluate_word`` multiply a word
out, and ``evaluate_at_character`` evaluates at the traces of
``polyring.COORDINATES``.  A matrix is a 2x2 (or 3x3) complex numpy
array, or the 4-tuple of the rows of a 2x2 one.  Every 2x2 function
reads either as a 4-tuple (``_entries``): ``trace`` and ``det`` return a
plain scalar, ``sym2`` a 3x3 array, and the others the kind they are
given (``_like``).  numpy loads only where an array is built, and ``I2``
on first use (PEP 562), so ``import slchar.mat2`` loads none.  Every 2x2
product is ``_mul`` on 4-tuples, the textbook a p + b r with no fused
multiply-add, and every scaling is Python's, so that no digit depends on
numpy's BLAS or CPU dispatch.
Tolerances are fixed: ``inverse`` requires ``|det - 1| <=
TOL_CONJUGACY``, and the real-matrix tests of ``hat`` and
``glide_reflection_sqrt`` allow imaginary parts up to ``TOL_CONJUGACY``.

An exact matrix m is a pair (N, d): N the int 4-tuple (a, b, c, e) of
the rows of d m, and d > 0, so m = N / d; :mod:`slchar.sampling` draws
them.  The oracles take one trial, a tuple of matrices, at a time, and
split float from exact in ``_numerators`` only: exact pairs multiply
their Ns as plain ints and form ``Fraction``s once, from the result and
the product of the d's.  So ``evaluate_word`` gives an object array of
``Fraction``, on which ``trace``, ``det``, ``adjoint`` and
``lie_product`` compute exactly, or for numpy arrays (integer dtypes
too) a complex128 product.

Sign conventions: several formulas only determine a matrix up to a
global sign (the underlying statements are projective).  ``sign_normalize`` picks
the representative whose first nonzero entry, scanned row-major, has
positive real part (positive imaginary part on ties), which makes
outputs reproducible.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction

from ._intake import take
from .polyring import _VARSETS, COORDINATES, F4_VARS, Polynomial, VariableSet, _quadruple_poly
from .words import Word

__all__ = [
    "GeometryError",
    "ReduciblePairError",
    "NotSemisimpleError",
    "NotHyperbolicError",
    "mat2",
    "I2",
    "trace",
    "det",
    "adjoint",
    "inverse",
    "evaluate_word",
    "word_trace",
    "coordinate_traces",
    "evaluate_at_character",
    "quadruple_trace_check",
    "lie_product",
    "normal_form_pair",
    "conjugating_involution",
    "traceless_projection",
    "involution_of",
    "hat",
    "sym2",
    "glide_reflection_sqrt",
    "sign_normalize",
    "matrix_to_json",
    "matrix_from_json",
    "format_complex",
    "TOL_ALGEBRAIC",
    "TOL_CONJUGACY",
]


class GeometryError(ValueError):
    """A matrix input violates a geometric precondition."""


class ReduciblePairError(GeometryError):
    """The pair generates a reducible representation."""


class NotSemisimpleError(GeometryError):
    """Parabolic or central input where a semisimple element is required."""


class NotHyperbolicError(GeometryError):
    """Real trace in [-2, 2] where a hyperbolic element is required."""


#: Tolerance for algebraic identities on well-conditioned inputs.
TOL_ALGEBRAIC = 1e-12
#: Tolerance for conjugacy / commutation assertions.
TOL_CONJUGACY = 1e-9


def __getattr__(name):
    """``I2`` on first use: the complex 2x2 identity."""
    if name != "I2":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, mat2(1, 0, 0, 1))


def mat2(a, b, c, d):
    import numpy as np

    return np.array([[a, b], [c, d]], dtype=complex)


def _entries(m) -> tuple:
    """A numpy matrix as the 4-tuple of its rows; a tuple as it is."""
    return tuple(m.ravel().tolist()) if hasattr(m, "ravel") else m


def _mul(n: tuple, k: tuple) -> tuple:
    """The product of two 2x2 matrices given as 4-tuples of their rows."""
    a, b, c, e = n
    p, q, r, s = k
    return (a * p + b * r, a * q + b * s, c * p + e * r, c * q + e * s)


def _adjugate(n: tuple) -> tuple:
    """The adjugate of a 2x2 matrix given as a 4-tuple of its rows."""
    a, b, c, e = n
    return (e, -b, -c, a)


def _trace_of_product(n: tuple, k: tuple):
    """tr(n k) for 4-tuples of rows, from the four products on ``_mul``'s diagonal."""
    return n[0] * k[0] + n[1] * k[2] + n[2] * k[1] + n[3] * k[3]


def trace(m):
    n = _entries(m)
    return n[0] + n[3]


def det(m):
    a, b, c, e = _entries(m)
    return a * e - b * c


def _like(n: tuple, *mats):
    """The rows n as ``mats`` are given: the 4-tuple itself when none is an
    array, else a 2x2 array, of objects if one of them is, else complex."""
    dtypes = [m.dtype for m in mats if hasattr(m, "ravel")]
    if not dtypes:
        return n
    import numpy as np

    return np.array(n, dtype=object if any(d.hasobject for d in dtypes) else complex).reshape(2, 2)


def _modulus(v) -> float:
    """|v|, or inf for a finite complex whose modulus leaves the float
    range (as numpy reads it): such a value is beyond every tolerance."""
    try:
        return abs(v)
    except OverflowError:
        return math.inf


def adjoint(m):
    """Adjugate: ``m adjoint(m) == det(m) I``."""
    return _like(_adjugate(_entries(m)), m)


def inverse(m):
    """Inverse by the cofactor formula; requires unimodularity."""
    d = det(m)
    if not _modulus(d - 1) <= TOL_CONJUGACY:
        raise GeometryError(f"matrix is not unimodular: det = {d}")
    return adjoint(m)


def _numerators(mats) -> tuple[list, tuple | None]:
    """k matrices as 4-tuples of their rows, and their denominators: the
    Ns and ds of exact pairs (N, d), else the ``_entries`` of the
    matrices and None.  Float and exact evaluation split here only."""
    mats = [_entries(m) for m in mats]
    if all(len(m) == 2 for m in mats):
        ns, ds = zip(*mats)
        return ns, ds
    return mats, None


def _word_product(w: Word, mats) -> tuple[tuple, int | None]:
    """The product w(mats) as a 4-tuple, from the first letter's factor
    (I for the empty word) by ``_mul``, inverse letters by the adjugate,
    and the product of the letters' denominators: for exact pairs (N, d),
    the int product of the Ns (adj(N / d) = adj(N) / d) and an int; for
    float matrices, None.  A matrix count other than the word's rank is
    a ValueError."""
    ns, ds = _numerators(mats)
    if len(ns) != w.rank:
        raise ValueError(f"cannot evaluate a rank-{w.rank} word at {len(ns)} matrices")
    factors = [ns[g - 1] if g > 0 else _adjugate(ns[-g - 1]) for g in w.letters]
    p = functools.reduce(_mul, factors) if factors else (1, 0, 0, 1)
    return p, None if ds is None else math.prod(ds[abs(g) - 1] for g in w.letters)


def evaluate_word(w: Word, assignment):
    """The product w(xi_1, ..., xi_n), inverse letters by the adjugate.
    When every letter is an exact pair (N, d), the Ns multiply as int
    4-tuples and the product, an object array of Fractions, is divided
    once by the product of the letters' ds; numpy arrays are numeric."""
    import numpy as np

    n, den = _word_product(w, assignment)
    if den is None:
        return np.array(n, dtype=complex).reshape(2, 2)
    return np.array([Fraction(v, den) for v in n], dtype=object).reshape(2, 2)


def word_trace(w: Word, mats):
    """tr w(mats), the oracle for trace polynomials: a complex number, or
    a Fraction for exact pairs (N, d)."""
    n, den = _word_product(w, mats)
    return complex(trace(n)) if den is None else Fraction(trace(n), den)


def _character(variables: VariableSet, mats, *extra) -> tuple[list, list | None]:
    """tr X_I for each coordinate x_I of ``variables`` in declared order,
    then for each I in ``extra``, X_I being its prefix's product (also
    among them) times the last matrix by ``_mul``, and None; for exact
    matrices (N_i, d_i), the int traces of the products of the N_i and
    each one's denominator, the product of the d_i for i in I.  A matrix
    count other than the rank of ``variables`` is a ValueError."""
    k = len(mats)
    if _VARSETS.get(k) != variables:
        raise ValueError(f"cannot evaluate over {variables.names} at {k} matrices")
    ns, ds = _numerators(mats)
    words = [*COORDINATES[variables].values(), *extra]
    products, traces = {}, []
    for word in words:
        last = ns[word[-1] - 1]
        p = products[word] = _mul(products[word[:-1]], last) if len(word) > 1 else last
        traces.append(trace(p))
    return traces, None if ds is None else [math.prod(ds[i - 1] for i in w) for w in words]


def coordinate_traces(variables: VariableSet, mats) -> dict:
    """Each coordinate x_I of ``variables`` as tr X_I at a matrix tuple;
    Fractions when the matrices are exact."""
    traces, dens = _character(variables, mats)
    return dict(zip(variables, traces if dens is None else map(Fraction, traces, dens)))


def evaluate_at_character(p: Polynomial, mats):
    """Evaluate a trace polynomial at the character of a matrix tuple:
    a complex number, or an exact Fraction when the matrices are exact
    pairs (N, d), taken on the integer numerators with no Fraction per
    coordinate (``_character``); numpy arrays are numeric."""
    traces, dens = _character(p.variables, mats)
    if dens is None:
        return p.evaluate(dict(zip(p.variables, traces)))
    return Fraction(*p._evaluate_ratio(traces, dens))


def quadruple_trace_check(assignment):
    """|2 tr(m1 m2 m3 m4) - f(traces)|, f being the 12-term polynomial for
    2 tr(X1 X2 X3 X4) of :mod:`slchar.polyring`; exact (a Fraction) when
    the matrices are exact.  Each term is linear in each m_i, so exact
    matrices are checked on their integer numerators N_i = d_i m_i, whose
    traces the polynomial takes as they are, and the residual divided
    once by the product of the d_i."""
    poly = _quadruple_poly()
    traces, dens = _character(F4_VARS, assignment, (1, 2, 3, 4))
    top = 2 * traces.pop()
    if dens is None:
        return abs(top - poly.evaluate(dict(zip(F4_VARS, traces))))
    return abs(top - Fraction(*poly._evaluate_ratio(traces, [1] * len(traces)))) / dens[-1]


def lie_product(xi, eta):
    """xi eta - eta xi; always traceless.  4-tuples give a 4-tuple."""
    a, b = _entries(xi), _entries(eta)
    return _like(tuple(p - q for p, q in zip(_mul(a, b), _mul(b, a))), xi, eta)


def sign_normalize(m):
    """Of m and -m, return the one whose first nonzero entry (row-major)
    has positive real part, ties broken by positive imaginary part;
    "nonzero" means above 1e-13 relative to the largest entry.  As in
    numpy, the largest modulus is NaN if one is, and max(1.0, NaN) is 1.0."""
    n = _entries(m)
    sizes = [_modulus(v) for v in n]
    eps = 1e-13 * (max(1.0, *sizes) if all(s == s for s in sizes) else 1.0)
    for v, size in zip(n, sizes):
        if size > eps:
            if v.real > eps or (abs(v.real) <= eps and v.imag > 0):
                return m
            return tuple(-v for v in n) if n is m else -m
    return m


def principal_sqrt(w: complex) -> complex:
    """Principal complex square root with a signed-zero guard: an
    imaginary part of -0.0 would silently select the lower side of the
    branch cut, so exact zeros are normalized to +0.0 first."""
    w = complex(w)
    if w.imag == 0:
        w = complex(w.real, 0.0)
    return cmath.sqrt(w)


def _principal_root(z: complex) -> complex:
    """The root f = (z + s)/2 of f + 1/f = z, with s = sqrt(z^2 - 4)
    principal.  Where Re(z conj(s)) < 0 that sum cancels, so f is taken
    as 2/(z - s), the same root since f (z - s)/2 = 1."""
    s = principal_sqrt(z * z - 4)
    f = 2 / (z - s) if (z * s.conjugate()).real < 0 else (z + s) / 2
    if not 0 < abs(f) < math.inf:  # z * z overflowed: |z| above about 1e154
        raise GeometryError("degenerate branch value")
    return f


def _normal_form(x: complex, y: complex, z: complex) -> tuple[tuple, tuple]:
    """``normal_form_pair`` as the 4-tuples of its rows."""
    f = _principal_root(z)
    return (x, -1, 1, 0), (0, 1 / f, -f, y)


def normal_form_pair(x: complex, y: complex, z: complex):
    """A unimodular pair with traces (x, y) and product trace z.

    xi = [[x, -1], [1, 0]], eta = [[0, 1/f], [-f, y]] where f + 1/f = z
    and f = (z + sqrt(z^2 - 4))/2 with the principal square root
    (``_principal_root``).  z = +-2 gives f = +-1, which is still valid.
    For real z with |z| >= 2, f is real, and so is the pair.
    """
    x, y, z = take(GeometryError, "normal_form_pair", "x y z", (x, y, z), complex)
    xi, eta = _normal_form(complex(x), complex(y), complex(z))
    return mat2(*xi), mat2(*eta)


def conjugating_involution(xi, eta):
    """The unimodular h with h^2 = -I conjugating (xi, eta) to (xi^-1, eta^-1).

    h is the Lie product divided by the principal root of its
    determinant, by Python's complex division; it exists exactly when the
    pair is irreducible (det of the Lie product nonzero).
    """
    n, k = _entries(xi), _entries(eta)
    lie = lie_product(n, k)
    d = det(lie)
    if _modulus(d) <= TOL_ALGEBRAIC:
        raise ReduciblePairError("pair is reducible (Lie product has zero determinant)")
    root = principal_sqrt(d)
    h = sign_normalize(tuple(v / root for v in lie))
    return h if n is xi and k is eta else _like(h, xi, eta)  # 4-tuples: no second kind test


def traceless_projection(xi):
    """xi - (tr(xi)/2) I, each entry less the half trace times that of I,
    so that its zeros keep the signs numpy's complex arithmetic gives."""
    n = _entries(xi)
    half = trace(n) / 2
    return _like(tuple(v - half * u for v, u in zip(n, (1, 0, 0, 1))), xi)


def involution_of(xi):
    """The involution commuting with a semisimple xi.

    Normalizes the traceless projection to determinant one, by Python's
    complex ``*``; rejects parabolic and central inputs (tr = +-2).
    """
    t = trace(xi)
    if _modulus(t * t - 4) <= TOL_CONJUGACY:
        raise NotSemisimpleError(f"parabolic or central input: tr = {t}")
    s = 2 / principal_sqrt(4 - t * t)
    return _like(sign_normalize(tuple(v * s for v in traceless_projection(_entries(xi)))), xi)


def hat(a):
    """Reflection vector of the invariant axis of a real hyperbolic matrix.

    hat(A) = (2A - tr(A) I)/sqrt(tr(A)^2 - 4), normalized to the
    de Sitter locus: tr = 0 and (1/2) tr(hat^2) = 1, i.e. det = -1.
    Consequently hat(A)^2 = I and hat(A^-1) = -hat(A).  Tested and
    rounded as numpy would: a NaN part is not real, and tr(A) * 0.0 is a
    signed zero.  An array gives a complex array.
    """
    p, q, r, s = n = _entries(a)
    if abs(p.imag + s.imag) > TOL_CONJUGACY or not all(abs(v.imag) <= TOL_CONJUGACY for v in n):
        raise GeometryError("hat() requires a real matrix")
    p, q, r, s = p.real, q.real, r.real, s.real
    t = p + s
    if t * t <= 4 + TOL_CONJUGACY:
        raise NotHyperbolicError(f"matrix is not hyperbolic: tr = {t}")
    root = math.sqrt(t * t - 4)
    h = (2 * p - t) / root, (2 * q - t * 0.0) / root, (2 * r - t * 0.0) / root, (2 * s - t) / root
    return h if n is a else mat2(*h)


def sym2(xi):
    """The induced map on the symmetric square, basis (e.e, e.f, f.f).

    tr(sym2(xi)) = tr(xi)^2 - 1 for unimodular xi, and sym2 is
    multiplicative: sym2(xi @ eta) = sym2(xi) @ sym2(eta).
    """
    import numpy as np

    a, b, c, d = _entries(xi)
    return np.array(
        [
            [a * a, a * b, b * b],
            [2 * a * c, a * d + b * c, 2 * b * d],
            [c * c, c * d, d * d],
        ],
        dtype=complex,
    )


def glide_reflection_sqrt(xi):
    """The glide reflection g = (xi - I)/sqrt(tr(xi) - 2) with g^2 = xi.

    Defined for real xi with tr(xi) > 2; det g = -1.  Scaled as numpy
    divides a complex array by a real root s: x + iy goes to
    (x + 0y)(1/s) + i(y - 0x)(1/s), which fixes the signs of its zeros.
    """
    n = _entries(xi)
    t = trace(n)
    if abs(t.imag) > TOL_CONJUGACY or not all(abs(v.imag) <= TOL_CONJUGACY for v in n):
        raise GeometryError("glide_reflection_sqrt() requires a real matrix")
    if t.real <= 2 + TOL_CONJUGACY:
        raise NotHyperbolicError(f"trace must exceed 2, got {t.real}")
    r = 1 / math.sqrt(t.real - 2)
    g = [(v.real + v.imag * 0.0, v.imag - v.real * 0.0) for v in (n[0] - 1, n[1], n[2], n[3] - 1)]
    return _like(tuple(complex(x * r, y * r) for x, y in g), xi)


def format_complex(v: complex) -> str:
    """``a+bi`` with 17 significant digits."""
    re = f"{v.real:.17g}"
    im = f"{abs(v.imag):.17g}"
    sign = "+" if v.imag >= 0 else "-"
    return f"{re}{sign}{im}i"


# -- JSON wire format ----------------------------------------------------------


def matrix_to_json(m) -> dict:
    import numpy as np

    m = np.asarray(m, dtype=complex)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def matrix_from_json(data):
    """The matrix of ``{"re": 2x2, "im": 2x2}``; ``im`` defaults to zero."""
    import numpy as np

    re = np.array(data["re"], dtype=float)
    im = np.array(data.get("im", [[0, 0], [0, 0]]), dtype=float)
    if re.shape != (2, 2) or im.shape != (2, 2):
        raise ValueError(f"a matrix needs 2x2 re and im parts, got {re.shape} and {im.shape}")
    return re + 1j * im
