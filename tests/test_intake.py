"""The number intake of the public numeric functions (``slchar._intake``).

Every public function that computes on trace coordinates takes its
arguments in once: exact input stays exact where the function decides it
exactly, any other input becomes floats, and an exact argument past the
float range, NaN and infinities are refused by the function's
``ValueError`` subclass, which names it.  The property draws small ints
and ``Fraction``s, floats up to 1e308, NaN and infinities included, ints
and ``Fraction``s of 1e300 to 1e420 and ``Fraction``s within 1e-300 to
1e-400 of -2, and calls each entry point: it must return, or raise a
``ValueError`` subclass, and one about the float range names an argument
or the reported quantity that left it.  A call with a NaN or an infinity
must raise, naming an argument that is not finite or past the float
range.  A real-only entry point refuses a complex number of any type,
numpy's included, with a ``TypeError`` that names it."""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from slchar import _intake, chars, fricke, hypgeom, mat2


def _s04(*coords):
    return fricke.member_s04(fricke.CharacterS04(*coords))


def _s12(*coords):
    return fricke.member_s12(fricke.CharacterS12(*coords))


def _form_signature(x, y, z):
    return hypgeom.form_signature(hypgeom.bilinear_form_from_character(x, y, z))


def _fn_to_traces(l, tau, b):
    return fricke.fn_to_traces(fricke.FNCoords(l, tau, b))


#: Each entry point, its arguments' names in order, then the names of the
#: reported quantities that an error about the float range may name instead.
ENTRY_POINTS = {
    "member_s03": (fricke.member_s03, "x y z"),
    "member_s11": (fricke.member_s11, "x y z"),
    "member_c02": (fricke.member_c02, "p q r"),
    "member_c11": (fricke.member_c11, "p q r"),
    "member_s04": (_s04, "a b c d x y z",
                   "residual kappa_ab kappa_cd S_minus S_plus F_plus F_minus"),
    "member_s12": (_s12, "a b u x y v w z",
                   "residuals[0] residuals[1] kappas[0] kappas[1] kappas[2]"),
    "classify_real_character": (chars.classify_real_character, "x y z"),
    "axes_cross": (chars.axes_cross, "x y z", "kappa"),
    "triple_trace_roots": (chars.triple_trace_roots, "t1 t2 t3 t12 t13 t23",
                           "f_Sigma discriminant"),
    "construct_triple": (chars.construct_triple, "t1 t2 t3 t12 t23 t13"),
    "hermitian_invariant_form": (chars.hermitian_invariant_form, "x y z"),
    "normal_form_pair": (mat2.normal_form_pair, "x y z"),
    "form_signature": (_form_signature, "x y z"),
    "hexagon_certificate": (hypgeom.hexagon_certificate, "x y z", "XY YZ ZX"),
    "fn_to_traces": (_fn_to_traces, "l tau b"),
}


def _signed(magnitudes):
    return st.builds(lambda m, s: s * m, magnitudes, st.sampled_from((1, -1)))


NUMBERS = st.one_of(
    st.integers(-5, 5),
    st.fractions(-10, 10, max_denominator=12),
    st.floats(allow_nan=True, allow_infinity=True),
    _signed(st.integers(10**300, 10**420)),
    _signed(st.builds(Fraction, st.integers(10**303, 10**420), st.integers(2, 999))),
    # within 1e-300 to 1e-400 of -2, where -2 - x can leave the float range
    _signed(st.builds(Fraction, st.just(1), st.integers(10**300, 10**400))).map(lambda e: -2 + e),
)


def _calls(name):
    arity = len(ENTRY_POINTS[name][1].split())
    return st.tuples(st.just(name), st.lists(NUMBERS, min_size=arity, max_size=arity))


@settings(max_examples=1500, deadline=None)
@given(st.sampled_from(sorted(ENTRY_POINTS)).flatmap(_calls))
@example(("member_s12", [1.0, 1.0, 0.5, 10**103, 10**103, 1, 1, 10**103]))
@example(("member_s04", [2.0, 2, 2, 2, -10**200, 3, 3]))
@example(("member_s04", [2, 2, 2, 2, -2 - Fraction(1, 10**320), 3, 3]))
@example(("member_s04", [2, 2, 2, 2, -2 - Fraction(1, 10**330), 3, 3]))
@example(("classify_real_character", [10**400, 3, 3]))
@example(("normal_form_pair", [10**400, 3, 3]))
@example(("construct_triple", [3, Fraction(10**401, 3), 3, 3, 3, 3]))
@example(("fn_to_traces", [10**400, 0, 0]))
@example(("member_s11", [math.nan, math.nan, math.nan]))  # each read a verdict before
@example(("member_s03", [-math.inf, -math.inf, -math.inf]))
@example(("member_s04", [math.inf, 2, 2, 2, -3, 3, 3]))
@example(("classify_real_character", [math.nan, 0, 0]))
@example(("normal_form_pair", [math.nan, 0, 3]))
@example(("hermitian_invariant_form", [math.nan, 0, 0]))
def test_every_entry_point_returns_or_names_the_number(call):
    name, args = call
    function, *names = ENTRY_POINTS[name]
    finite = all(math.isfinite(t) for t in args if isinstance(t, float))
    try:
        function(*args)
    except ValueError as exc:  # GeometryError too
        if "float range" in str(exc):
            words = set(re.findall(r"[\w\[\]]+", str(exc)))
            assert words & set(" ".join(names).split()), exc
        if not finite:
            named = re.search(r"needs finite traces, got (\w+) (=|past)", str(exc))
            assert named and named[1] in names[0].split(), exc
    else:
        assert finite, args


@pytest.mark.parametrize("name", ["classify_real_character", "triple_trace_roots",
                                  "normal_form_pair"])
def test_an_exact_argument_past_the_float_range_is_named(name):
    function, names, *_ = ENTRY_POINTS[name]
    args = [-3] * len(names.split())
    args[1] = Fraction(-(10**400), 3)
    with pytest.raises(ValueError, match=f"needs finite traces, got {names.split()[1]} past"):
        function(*args)


def test_floats_pass_unchanged_and_exact_input_stays_exact():
    floats, exact = (3.0, -2.5, 1e308), (3, Fraction(1, 3), 10**400)
    assert _intake.take(ValueError, "f", "x y z", floats) is floats
    assert _intake.take(ValueError, "f", "x y z", exact, exact=True) is exact
    mixed = _intake.take(ValueError, "f", "x y z", (3, Fraction(1, 4), 0.5), exact=True)
    assert mixed == [3.0, 0.25, 0.5] and all(type(t) is float for t in mixed)
    assert _intake.take(ValueError, "f", "x y", (1j, 2), complex) == [1j, 2.0]
    assert _intake.take(ValueError, "f", "x", (np.complex64(1j),), complex) == [1j]
    for t in (1j, np.complex128(1j), np.complex64(1j)):
        with pytest.raises(TypeError):  # a real-only function takes no complex number
            _intake.take(ValueError, "f", "x", (t,))


#: The entry points that take real coordinates only.
REAL_ONLY = sorted(set(ENTRY_POINTS) - {"triple_trace_roots", "construct_triple",
                                         "normal_form_pair", "form_signature"})


@pytest.mark.parametrize("complex_type", [complex, np.complex128, np.complex64])
@pytest.mark.parametrize("name", REAL_ONLY)
def test_a_real_only_entry_point_refuses_a_complex_coordinate(name, complex_type):
    # float() of a numpy complex warns and drops the imaginary part
    function, names, *_ = ENTRY_POINTS[name]
    args = [-3] * len(names.split())
    args[-1] = complex_type(-3 + 1j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TypeError, match=f"needs a real {names.split()[-1]}, got "):
            function(*args)
