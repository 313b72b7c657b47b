"""Complex 2x2 (and 3x3) matrix kernel.

All explicit matrix formulas live here, together with the numeric
oracle ``evaluate_word`` for trace polynomials.  Matrices are plain 2x2
(or 3x3) complex numpy arrays, but every 2x2 product, ``evaluate_word``'s
included, is ``tracepoly._mul`` on the 4-tuples of their rows
(``tracepoly._entries``): the textbook product a p + b r for complex
numbers and ints alike, with no fused multiply-add, so that no digit
depends on numpy's BLAS.  That kernel lives in :mod:`slchar.tracepoly`
with each formula here that needs no array (``format_complex``, the
errors, tolerances, ``principal_sqrt``, the rows of ``normal_form_pair``;
``hat``, ``sign_normalize`` and ``conjugating_involution`` only wrap
its 4-tuples), so that ``chars``, ``hypgeom`` and ``verify`` need no numpy.
Tolerances are fixed: ``inverse`` requires ``|det - 1| <=
TOL_CONJUGACY``, and the real-matrix tests of ``hat`` and
``glide_reflection_sqrt`` allow imaginary parts up to ``TOL_CONJUGACY``.

An exact matrix m is a pair (N, d): N the int 4-tuple (a, b, c, e) of
the rows of d m, and d > 0, so m = N / d; :mod:`slchar.sampling` draws
them.  ``evaluate_word`` multiplies the Ns as plain ints when every
letter is such a pair and forms ``Fraction``s once, from the product and
the product of the d's; the result is an object array of ``Fraction``,
on which ``trace``, ``det``, ``adjoint`` and ``lie_product`` compute
exactly and keep the object dtype.  ``evaluate_word`` takes a numpy
array as numeric (integer dtypes too) and gives a complex128 product.

Sign conventions: several formulas only determine a matrix up to a
global sign (the underlying statements are projective).  ``sign_normalize`` picks
the representative whose first nonzero entry, scanned row-major, has
positive real part (positive imaginary part on ties), which makes
outputs reproducible.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ._intake import take
from .tracepoly import (TOL_ALGEBRAIC, TOL_CONJUGACY, GeometryError, NotHyperbolicError,
                        NotSemisimpleError, ReduciblePairError, _adjugate, _conjugating_involution,
                        _entries, _format_complex as format_complex, _hat, _mul, _normal_form,
                        _sign_normalize, _word_product, principal_sqrt)
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


def mat2(a, b, c, d) -> np.ndarray:
    return np.array([[a, b], [c, d]], dtype=complex)


I2 = np.eye(2, dtype=complex)


def trace(m: np.ndarray) -> complex:
    return m[0, 0] + m[1, 1]


def det(m: np.ndarray) -> complex:
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def _array(n: tuple, *like: np.ndarray) -> np.ndarray:
    """The rows n as a 2x2 array, of objects if one of ``like`` is, else complex."""
    exact = any(m.dtype.hasobject for m in like)
    return np.array(n, dtype=object if exact else complex).reshape(2, 2)


def adjoint(m: np.ndarray) -> np.ndarray:
    """Adjugate: ``m adjoint(m) == det(m) I``."""
    return _array(_adjugate(_entries(m)), m)


def inverse(m: np.ndarray) -> np.ndarray:
    """Inverse by the cofactor formula; requires unimodularity."""
    if not abs(det(m) - 1) <= TOL_CONJUGACY:
        raise GeometryError(f"matrix is not unimodular: det = {det(m)}")
    return adjoint(m)


def evaluate_word(w: Word, assignment) -> np.ndarray:
    """The product w(xi_1, ..., xi_n), inverse letters by the adjugate.
    When every letter is an exact pair (N, d), the Ns multiply as int
    4-tuples and the product, an object array of Fractions, is divided
    once by the product of the letters' ds; numpy arrays are numeric."""
    n, den = _word_product(w, assignment)
    if den is None:
        return np.array(n, dtype=complex).reshape(2, 2)
    return np.array([Fraction(v, den) for v in n], dtype=object).reshape(2, 2)


def lie_product(xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """xi eta - eta xi; always traceless."""
    a, b = _entries(xi), _entries(eta)
    return _array([p - q for p, q in zip(_mul(a, b), _mul(b, a))], xi, eta)


def sign_normalize(m: np.ndarray) -> np.ndarray:
    """Of m and -m, return the one whose first nonzero entry (row-major)
    has positive real part, ties broken by positive imaginary part;
    "nonzero" means above 1e-13 relative to the largest entry."""
    return m if _sign_normalize(n := _entries(m)) is n else -m


def normal_form_pair(x: complex, y: complex, z: complex) -> tuple[np.ndarray, np.ndarray]:
    """A unimodular pair with traces (x, y) and product trace z.

    xi = [[x, -1], [1, 0]], eta = [[0, 1/f], [-f, y]] where f + 1/f = z
    and f = (z + sqrt(z^2 - 4))/2 with the principal square root
    (``tracepoly._principal_root``).  z = +-2 gives f = +-1, which is still valid.
    For real z with |z| >= 2, f is real, and so is the pair.
    """
    x, y, z = take(GeometryError, "normal_form_pair", "x y z", (x, y, z), complex)
    xi, eta = _normal_form(complex(x), complex(y), complex(z))
    return mat2(*xi), mat2(*eta)


def conjugating_involution(xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """The unimodular h with h^2 = -I conjugating (xi, eta) to (xi^-1, eta^-1).

    h is the Lie product scaled into SL(2); it exists exactly when the
    pair is irreducible (det of the Lie product nonzero).
    """
    return _array(_conjugating_involution(_entries(xi), _entries(eta)), xi, eta)


def traceless_projection(xi: np.ndarray) -> np.ndarray:
    """xi - (tr(xi)/2) I."""
    return xi - (trace(xi) / 2) * I2


def involution_of(xi: np.ndarray) -> np.ndarray:
    """The involution commuting with a semisimple xi.

    Normalizes the traceless projection to determinant one; rejects
    parabolic and central inputs (tr = +-2).
    """
    t = trace(xi)
    if abs(t * t - 4) <= TOL_CONJUGACY:
        raise NotSemisimpleError(f"parabolic or central input: tr = {t}")
    h = traceless_projection(xi) * (2 / principal_sqrt(4 - t * t))
    return sign_normalize(h)


def hat(a: np.ndarray) -> np.ndarray:
    """Reflection vector of the invariant axis of a real hyperbolic matrix.

    hat(A) = (2A - tr(A) I)/sqrt(tr(A)^2 - 4), normalized to the
    de Sitter locus: tr = 0 and (1/2) tr(hat^2) = 1, i.e. det = -1.
    Consequently hat(A)^2 = I and hat(A^-1) = -hat(A).
    """
    return mat2(*_hat(_entries(a)))


def sym2(xi: np.ndarray) -> np.ndarray:
    """The induced map on the symmetric square, basis (e.e, e.f, f.f).

    tr(sym2(xi)) = tr(xi)^2 - 1 for unimodular xi, and sym2 is
    multiplicative: sym2(xi @ eta) = sym2(xi) @ sym2(eta).
    """
    a, b = xi[0, 0], xi[0, 1]
    c, d = xi[1, 0], xi[1, 1]
    return np.array(
        [
            [a * a, a * b, b * b],
            [2 * a * c, a * d + b * c, 2 * b * d],
            [c * c, c * d, d * d],
        ],
        dtype=complex,
    )


def glide_reflection_sqrt(xi: np.ndarray) -> np.ndarray:
    """The glide reflection g = (xi - I)/sqrt(tr(xi) - 2) with g^2 = xi.

    Defined for real xi with tr(xi) > 2; det g = -1.
    """
    t = trace(xi)
    if abs(t.imag) > TOL_CONJUGACY or not np.abs(xi.imag).max() <= TOL_CONJUGACY:
        raise GeometryError("glide_reflection_sqrt() requires a real matrix")
    if t.real <= 2 + TOL_CONJUGACY:
        raise NotHyperbolicError(f"trace must exceed 2, got {t.real}")
    return (xi - I2) / np.sqrt(t.real - 2)


# -- JSON wire format ----------------------------------------------------------


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def matrix_from_json(data) -> np.ndarray:
    """The matrix of ``{"re": 2x2, "im": 2x2}``; ``im`` defaults to zero."""
    re = np.array(data["re"], dtype=float)
    im = np.array(data.get("im", [[0, 0], [0, 0]]), dtype=float)
    if re.shape != (2, 2) or im.shape != (2, 2):
        raise ValueError(f"a matrix needs 2x2 re and im parts, got {re.shape} and {im.shape}")
    return re + 1j * im
