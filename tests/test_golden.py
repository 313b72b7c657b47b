"""Golden-output guard: seeded symbolic results, their float values and
``slchar verify`` output must stay byte-identical across refactors of
the arithmetic kernel and the trace engine.

``PYTHONPATH=src python tests/test_golden.py`` prints every digest at the
current source as ``NAME = "digest"`` lines; ``--lines NAME`` prints the
records of one corpus, so that ``diff`` against the same export of
another commit names the records that moved.

Each test hashes a fixed, seeded corpus and compares the SHA-256 with a
recorded digest.  ``EXACT_DIGEST`` covers only the exact lines (trace
polynomial text and JSON, ring-map JSON, image text); it was recorded
before the polynomial kernel fast path and must never change.
``SYMBOLIC_DIGEST`` adds the float values at a fixed point and
``VERIFY_DIGEST`` the ``verify`` output; both were re-recorded when
``Polynomial.evaluate`` began summing in canonical term order.
``VERIFY_DIGEST`` was re-recorded once more when the quadruple-trace
check began evaluating the trace engine's polynomial instead of a
hand-typed formula: only the two float ``oracle/quadruple-trace`` rows
moved (seed 1: 7.105e-14 to 5.729e-14, seed 2: 2.542e-13 to
1.137e-13).  To re-record after an intended float output change, print
``_digest(_symbolic_lines())`` and ``_digest(_verify_lines())``.

``PREDICATE_DIGEST`` covers the float decisions: ``fricke test`` JSON
for all six surfaces in both modes (boundary points included: +-2
coordinates, exact kappa = -2 Markoff cusps, points 1e-20 off a
boundary), ``construct``, ``fn2trace`` and ``eval-word`` JSON, and the
numeric predicates and constructions of ``mat2``, ``chars`` and
``hypgeom`` on seeded inputs, each at and just past its tolerance.  It
was recorded while those tolerances were still per-call parameters, and
fixing them moved nothing.  ROADMAP item 3 (exact verdicts from one
sign primitive) re-records it on purpose, because float verdicts within
rounding of a boundary may change; print ``_digest(_predicate_lines())``.  It was
re-recorded once when the root f of f + 1/f = z stopped cancelling for
Re z < 0: only the ``construct triple`` lines for ``0 -2 4 -4 4 0`` and
``-2/3 -3 3 -3 -1/2 3`` (both branches) moved, in the last bits (t12 now
prints -4 and -3 exactly).  It was re-recorded again when the S04 quartic
and the S12 relations began evaluating ``polyring.sum_product``: only
float-mode ``residual`` (36 s04 lines) and ``residuals`` (15 s12 lines)
values moved, by at most 1.8e-11, and no verdict.  It was re-recorded
once more when ``construct_triple`` began solving for xi3 in closed form
and ``fn_to_traces`` stopped reporting the uncorrected closed form: only
the twelve ``construct triple`` records of the six seeded irreducible
inputs (both branches) moved, xi3 by at most 4.5e-15 relative to its
largest entry with xi1 and xi2 byte-identical, and the four
``fn2trace --json`` records lost ``uncorrected_closed_form_y`` and
``uncorrected_matches``; no exit code changed.

``EVAL_DIGEST`` pins polynomial evaluation itself: ``repr`` of
``evaluate`` at seeded complex points whose coordinates include 0, -0.0,
-0.0 - 1j and negative reals (so signed zeros count), ``evaluate_exact``
at rational points, ``evaluate_at_character`` at float and exact
matrices of ranks 1-3 (the empty word included), and
``quadruple_trace_check`` in both modes.  It was recorded before the
evaluation plan cached on each polynomial; print ``_digest(_eval_lines())``.

``TABLE_DIGEST`` pins the trace engine's right-multiplication table at
ranks 1-3 and the quadruple-trace polynomial, sorted by key, basis and
packed monomial so that it pins exact coefficients, not dict order.  It
was re-recorded when rank 4 lost its engine: the corpus is the earlier
one less its rank-4 table lines, every rank-1 to rank-3 line and the
polynomial unchanged.  ``VERIFY_RUNS_DIGEST`` covers stdout and exit
code of ``slchar verify`` for every suite in both modes at seeds 0-3
with the default 100 trials, and of ``verify covers --seed 7`` (exit
1).  It was recorded before the s4 elimination, since retired, shared
its products with the per-letter step; print ``_digest(_table_lines())``
and ``_digest(_verify_run_lines())``.

``PREDICATE_DIGEST``, ``VERIFY_DIGEST`` and ``VERIFY_RUNS_DIGEST`` were
re-recorded together when ``hexagon_certificate`` began taking its inner
products in closed form from the traces and ``verify fricke|coxeter
--mode exact`` became a usage error.  Only these records moved: 11 of
the 16 ``hexagon_certificate`` records (last digits of inner products,
and (-2 + 1e-9, -3, -4), now refused by the domain test instead of
raising ``NotHyperbolicError``); the float
``fricke/hexagon-inner-products`` rows, whose matrix side became the
hats of ``real_normal_form_pair``; and the exact ``fricke`` and
``coxeter`` runs, which now read exit 2 with no output.

``VERIFY_DIGEST``, ``VERIFY_RUNS_DIGEST``, ``EVAL_DIGEST`` and
``PREDICATE_DIGEST`` were re-recorded together when float matrices in
the trace layer became the complex 4-tuples of their rows, multiplied
by the same textbook product as the exact numerators instead of
numpy's gemm, and ``verify covers --mode exact`` became a usage error.
Only these records moved: the float ``identities``, ``oracle`` and
``covers`` rows (last digits); the exact ``covers`` runs, now exit 2
with no output; in ``EVAL_DIGEST`` 16 of the 30 float
``evaluate_at_character`` values (last digits) and the 12
``quadruple_trace_check`` lines, whose float residual is now a Python
float; in ``PREDICATE_DIGEST`` the character digits of ``construct
triple`` and the matrix and trace digits of ``eval-word``.

``VERIFY_DIGEST``, ``VERIFY_RUNS_DIGEST`` and ``PREDICATE_DIGEST`` were
re-recorded together when every 2x2 product of the package became
``tracepoly._mul`` on 4-tuples instead of numpy's ``@``, and ``verify
fricke`` took its matrices from ``mat2.normal_form_pair`` instead of the
retired ``real_normal_form_pair``.  Only these records moved (last
digits): in ``VERIFY_DIGEST`` the float ``fricke/hexagon-inner-products``
row of seed 1 and the float ``coxeter/involution-factorization`` rows of
seeds 1 and 2; in ``VERIFY_RUNS_DIGEST`` that ``fricke`` row of seeds
0-2 and that ``coxeter`` row of seeds 0-3; in ``PREDICATE_DIGEST`` the
six ``conjugating_involution`` and six ``_witnesses`` records.  Since
then no printed digit depends on numpy's BLAS kernel, which
``test_digests_do_not_depend_on_the_blas_kernel`` checks under
``OPENBLAS_CORETYPE=Prescott``.

``PREDICATE_DIGEST`` was re-recorded when ``classify_isometry`` and
``BilinearForm3`` stopped passing numpy's default relative tolerance
(1e-5) to ``np.allclose`` and kept to their absolute ones.  One record
moved: ``classify_isometry`` of diag(1 + 1e-10, 1/(1 + 1e-10)), now
parabolic instead of central.  ``form_signature`` deciding by Descartes'
rule on exact coefficients instead of ``eigvalsh`` moved none.

``VERIFY_DIGEST``, ``VERIFY_RUNS_DIGEST`` and ``PREDICATE_DIGEST`` were
re-recorded together when the conjugating involution began dividing the
Lie product by the root of its determinant with Python's complex
division on 4-tuples (``tracepoly._conjugating_involution``) instead of
numpy's, which multiplies by a reciprocal, and ``verify fricke`` and
``coxeter`` stopped building arrays.  Only these seven records moved
(last digits): in ``VERIFY_DIGEST`` the float
``coxeter/involution-factorization`` rows of seed 1 (7.105e-15 to
1.281e-14) and seed 2 (5.024e-15 to 3.553e-15); in
``VERIFY_RUNS_DIGEST`` that row of ``verify coxeter --seed 1`` (5.859e-14
to 2.995e-14) and ``--seed 3`` (1.589e-14 to 1.138e-14); in
``PREDICATE_DIGEST`` the third, fifth and sixth of the seven
``conjugating_involution`` records.  No ``fricke`` row, ``hat``,
``sign_normalize`` or ``classify_isometry`` record moved.

``VERIFY_RUNS_DIGEST`` was re-recorded when a ``verify`` row that fails
began naming the trial of its worst residual.  One line moved: the
``covers/deck-character-validity`` row of ``verify covers --seed 7``,
which gained `` trial=52`` after ``FAIL``.

``RING_MAP_DIGEST`` pins the ring maps at higher degree than the
corpus above: the JSON of ``deck(p)`` and ``deck(deck(p))`` for seeded
rank-3 polynomials of 1-8 terms with exponents 0-2 (so x123 reaches
degree 10 before the last reduction), of every cover applied to its
relations, and of every cover applied to seeded source polynomials.  It
was recorded before ``substitute`` raised one-term images by exponent
arithmetic and ``reduce_mod_phi`` lowered x123 in one pass; print
``_digest(_ring_map_lines())``.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from slchar import chars, cli, covers, hypgeom, mat2, sampling, tracepoly
from slchar.covers import (
    cover_c02_to_s04,
    cover_c11_to_s12,
    deck_ring_map,
    embed_r2_in_r3,
)
from slchar.polyring import PHI, PRODUCT_RELATION, SUM_RELATION, Polynomial
from slchar.tracepoly import trace_poly
from slchar.words import Word
from tuple2x2 import from_pair

EXACT_DIGEST = "624d279a57ec01a51983e3a959ba81f8aad039a844605204c3c7beeea153b3eb"
SYMBOLIC_DIGEST = "eabbaf72485625ee4c876305d9378c6402533fb4cd4281a5314dfd65666cb755"
VERIFY_DIGEST = "16a4635292cb20aa67cec7663480b1e4fd1a82c90611af462cf79ed9d3ec3b0e"
PREDICATE_DIGEST = "52387a3505d4beacb7cc1a8614866f312314b286d19ab112c718aa7dcb42f2fc"
EVAL_DIGEST = "36a9d870e865c380a5fe0e459ba49a9bfa40269ad1284634b1896ca3429c95ce"
TABLE_DIGEST = "76d3f4a554409537ad34d6a52878c0a6c21021103622b4b677a3f10a6fdc0372"
VERIFY_RUNS_DIGEST = "aa3c32647edc3ceecba50c93c24c3eda80d7e09123d3ba0e0195f60cba163440"
RING_MAP_DIGEST = "32e6dc7c42ca5e36ab7351f195f99e13c7b528fc44aa2fc47e27f154229b521d"

SUITES = ("identities", "oracle", "fricke", "covers", "coxeter")


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _random_word(rnd, rank, length):
    return Word(rank, tuple(rnd.choice((1, -1)) * rnd.randint(1, rank) for _ in range(length)))


def _random_poly(rnd, variables, nterms, maxdeg):
    terms = {}
    for _ in range(nterms):
        e = tuple(rnd.randint(0, maxdeg) for _ in variables)
        terms[e] = Fraction(rnd.randint(-6, 6), rnd.choice((1, 1, 2, 3)))
    return Polynomial(variables, terms)


def _at_point(p):
    """Float value at a fixed point."""
    point = {n: complex(0.3 + 0.17 * i, 0.05 * i - 0.2) for i, n in enumerate(p.variables)}
    return repr(p.evaluate(point))


def _symbolic_lines(floats=True):
    """The seeded symbolic corpus; ``floats=False`` leaves out the float
    values and keeps only the exact text and JSON."""
    def at(p):
        return f" {_at_point(p)}" if floats else ""

    rnd = random.Random(20090101)
    lines = []
    for rank, lengths, count in ((2, (6, 16), 40), (3, (4, 9), 30)):
        for _ in range(count):
            w = _random_word(rnd, rank, rnd.randint(*lengths))
            p = trace_poly(w)
            lines.append(f"{w.letters} {p.to_text()}{at(p)}")
            lines.append(json.dumps(p.to_json(), sort_keys=True))
    maps = (embed_r2_in_r3(), deck_ring_map(), cover_c02_to_s04(), cover_c11_to_s12())
    for rm in maps:
        lines.append(json.dumps(rm.to_json(), sort_keys=True))
    deck = deck_ring_map()
    for rm, count in ((deck, 8), (embed_r2_in_r3(), 8), (cover_c02_to_s04(), 6),
                      (cover_c11_to_s12(), 6)):
        for _ in range(count):
            p = _random_poly(rnd, rm.source, nterms=4, maxdeg=2)
            image = rm.apply_poly(p)
            lines.append(f"{rm.name} {p.to_text()} -> {image.to_text()}{at(image)}")
            if rm is deck:
                twice = deck.apply_poly(image)
                lines.append(f"{twice.to_text()}{at(twice)}")
    return lines


def _verify_lines():
    lines = []
    for seed in ("1", "2"):
        for mode in ("float", "exact"):
            for suite in SUITES:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(["verify", suite, "--trials", "10", "--seed", seed,
                                     "--mode", mode])
                lines.append(f"exit={code}")
                lines.append(buf.getvalue())
    return lines


TINY = Fraction(1, 10**20)

#: Triples on the boundaries of the s03, s11, c02 and c11 tests: +-2
#: coordinates, Markoff-type cusps (kappa = -2 exactly, with two signs
#: flipped too), points 1e-20 off those, and kappa = 2.
BOUNDARY_TRIPLES = (
    (Fraction(33, 10), Fraction(33, 10), Fraction(33, 4)),
    (3, 3, 3), (-3, -3, 3), (3, 6, 15), (-3, 6, -15),
    (3 + TINY, 3, 3), (3 - TINY, 3, 3),
    (2, 2, 2), (-2, -2, -2), (-2, 2, 2), (2, -2, 2), (-2, -3, -4),
    (-2 - 2**-40, -3, -3), (-2 - 2**-39, -3, -3), (2 + 2**-40, 2 + 2**-39, -3),
    (-2 - TINY, -2, -3), (-2 + TINY, -3, -3), (2 + TINY, 2 + TINY, -2 - TINY),
    (5, 1, -3), (4, 1, -2), (5 + TINY, 1, -3), (1, 1, 2), (3, 3, 2), (1, 1, 2 - TINY),
    (Fraction(5, 2), Fraction(5, 2), Fraction(17, 4)), (0, 0, 0), (1, 1, 1),
)

#: Four-holed-sphere points: the relative-Euler-class-zero family, range
#: edges and the same points 1e-20 away.
BOUNDARY_S04 = (
    (2, 2, 2, 2, -3, 2, 7), (2, 2, 2, 2, -3, 2, 7 + TINY), (2, 2, 2, 2, -2, 2, 6),
    (2 - TINY, 2, 2, 2, -3, 2, 7), (2, 2, 2, 2, -2 - TINY, 2, 6), (1, 2, 2, 2, -3, 2, 7),
)


def _q(rnd, lo, hi, den=4):
    """A rational in [lo, hi] with denominator at most ``den``."""
    d = rnd.randint(1, den)
    return Fraction(rnd.randint(lo * d, hi * d), d)


def _text(v) -> str:
    return str(Fraction(v))


def _sl2_with_trace(rnd, t):
    """A rational unimodular matrix with trace t."""
    p, s = _q(rnd, -3, 3), _q(rnd, 1, 3) * rnd.choice((1, -1))
    return np.array([[p, s], [(p * (t - p) - 1) / s, t - p]], dtype=object)


def _s04_point(rnd):
    """Traces of A, B, C, D = (ABC)^-1, AB, BC, AC: exactly on the quartic,
    with a, b, c >= 2 and, when a draw allows it, d >= 2 and x < -2."""
    for _ in range(200):
        traces = [2 + _q(rnd, 0, 4) for _ in range(3)]
        A, B, C = (_sl2_with_trace(rnd, t) for t in traces)
        D = mat2.adjoint(A @ B @ C)
        point = (*traces, *(mat2.trace(m) for m in (D, A @ B, B @ C, A @ C)))
        if point[3] >= 2 and point[4] < -2:
            break
    return point


def _s12_point(rnd):
    """(a, b, u, x, y, v, w, z) of a rational triple U, X, Y: on the variety."""
    U, X, Y = (np.array(from_pair(sampling.random_rational_unimodular(rnd)), dtype=object)
               for _ in range(3))
    return tuple(mat2.trace(m) for m in (U @ X @ Y, U @ Y @ X, U, X, Y, U @ X, U @ Y, X @ Y))


def _cli(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"{' '.join(argv)} exit={code}\n{out.getvalue()}{err.getvalue()}"


def _call(f, *args) -> str:
    """repr of f(*args), or of the exception it raises."""
    try:
        out = f(*args)
    except (ArithmeticError, ValueError) as exc:
        return f"{f.__name__} {type(exc).__name__}: {exc}"
    if isinstance(out, np.ndarray):
        out = out.tolist()
    elif hasattr(out, "to_json"):
        out = json.dumps(out.to_json(), sort_keys=True)
    return f"{f.__name__} {out!r}"


def _signature(x, y, z):
    return hypgeom.form_signature(hypgeom.bilinear_form_from_character(x, y, z))


def _witnesses(xi, eta):
    r = chars.irreducibility_witnesses(xi, eta)
    values = (r.kappa, r.commutator_trace, r.lie_determinant, r.basis_determinant)
    return ([mat2.format_complex(complex(v)) for v in values], bool(r.irreducible),
            bool(r.witnesses_agree()))


def _is_valid(c):
    return bool(c.is_valid())


def _near_real(m, im):
    """m with ``im`` added to the imaginary part of its top-left entry."""
    return m + np.array([[1j * im, 0], [0, 0]])


def _predicate_lines():
    rnd = random.Random(20090202)
    triples = list(BOUNDARY_TRIPLES) + [tuple(_q(rnd, -8, 8) for _ in range(3)) for _ in range(16)]
    points = {
        "s03": triples, "s11": triples, "c02": triples, "c11": triples,
        "s04": list(BOUNDARY_S04) + [_s04_point(rnd) for _ in range(10)],
        "s12": [(2,) * 8, (-3,) * 8] + [_s12_point(rnd) for _ in range(8)],
    }
    # shifts of y (s04) and a (s12) by 1e-20 and around the on-variety tolerance
    shifts = (TINY, *(Fraction(m, 10**k) for k in range(12, 7, -1) for m in (1, 3)))
    points["s04"] += [p[:5] + (p[5] + e,) + p[6:] for p in points["s04"][6:9] for e in shifts]
    points["s12"] += [(p[0] + e,) + p[1:] for p in points["s12"][2:5] for e in shifts]
    lines = []
    for surface, pts in points.items():
        for point in pts:
            coords = "--coords=" + ",".join(map(_text, point))
            for mode in ("float", "exact"):
                lines.append(_cli(["fricke", "test", surface, coords, "--mode", mode,
                                   "--report-only"]))
    for coords in ("3 4 5", "2 2 2", "0 0 0", "-2 3 1/2", "1e-9 2 2"):
        lines.append(_cli(["construct", "pair", *coords.split(), "--json"]))
    for _ in range(6):
        six = [_text(_q(rnd, -4, 4)) for _ in range(6)]
        for branch in "+-":
            lines.append(_cli(["construct", "triple", "--branch", branch, "--json", "--", *six]))
    lines.append(_cli(["construct", "triple", "2", "2", "3", "2", "3", "3", "--json"]))
    for fn in (("1", "0"), ("2.5", "-1", "1"), ("0.1", "3", "4"), ("1/3", "1/7", "0")):
        lines.append(_cli(["fn2trace", *fn, "--json"]))
    for seed in range(4):
        lines.append(_cli(["eval-word", "XYxy", "--seed", str(seed), "--json"]))
        lines.append(_cli(["eval-word", "X1 X2^-1 X3^2", "--rank", "3", "--seed", str(seed),
                           "--json"]))

    hexagons = [(-2, -2, -2), (-3, -3, -3), (-2, -3, -5), (-2 - 1e-10, -3, -4),
                (-2 + 1e-10, -3, -4), (-2 + 1e-9, -3, -4), (-2 + 2e-9, -3, -4), (-1.99, -3, -3)]
    hexagons += [tuple(rnd.uniform(-10, -2.01) for _ in range(3)) for _ in range(8)]
    for point in hexagons:
        lines.append(_call(hypgeom.hexagon_certificate, *point))
    tol = chars.IRREDUCIBILITY_TOL
    classify = list(BOUNDARY_TRIPLES) + [(2 + tol, 2, 2), (2 + 2 * tol, 2, 2), (1.5, 2, 2.5)]
    classify += [tuple(rnd.uniform(-4, 4) for _ in range(3)) for _ in range(8)]
    for point in classify:
        lines.append(_call(chars.classify_real_character, *point))
        lines.append(_call(chars.is_irreducible, chars.CharacterF2(*point)))
        lines.append(_call(_signature, *point))
    for im in (1e-9, 1e-8, 2e-8, np.nextafter(2e-8, 1), 1e-6):
        lines.append(_call(_signature, 3 + 1j * im, 3, 3))
    form = hypgeom.bilinear_form_from_character(3, 1, 1).b.astype(complex)
    for im in (1e-10, np.nextafter(1e-10, 1)):
        off = 1j * im * (np.ones((3, 3)) - np.eye(3))
        lines.append(_call(hypgeom.form_signature, hypgeom.BilinearForm3(form + off)))

    mats = [mat2.I2, -mat2.I2, mat2.mat2(1, 1, 0, 1), mat2.mat2(0, -1, 1, 0),
            mat2.mat2(2, 1, 1, 1), mat2.mat2(1 + 1e-10, 0, 0, 1 / (1 + 1e-10)),
            mat2.mat2(1, 2, 3, 4)]
    mats += [sampling.random_unimodular(rnd) for _ in range(6)]
    mats += [sampling.random_real_unimodular(rnd) for _ in range(10)]
    for m in mats:
        lines.append(_call(hypgeom.classify_isometry, m))
        lines.append(_call(mat2.involution_of, m))
        lines.append(_call(mat2.hat, m))
        lines.append(_call(mat2.glide_reflection_sqrt, m))
        lines.append(_call(mat2.inverse, m))
        lines.append(_call(mat2.sign_normalize, m))
    for first in (-5e-13, -5e-14, 5e-14 + 1e-13j, -2e-13 - 1j):
        lines.append(_call(mat2.sign_normalize, mat2.mat2(first, 1, -1, 0)))
    hyperbolic = mat2.mat2(3, 1, 2, 1)
    for im in (0.0, 5e-10, mat2.TOL_CONJUGACY, np.nextafter(mat2.TOL_CONJUGACY, 1), 1e-6, np.nan):
        lines.append(_call(mat2.hat, _near_real(hyperbolic, im)))
        lines.append(_call(mat2.glide_reflection_sqrt, _near_real(hyperbolic, im)))
    axis = np.array([[1, 0], [0, -1]], dtype=complex)
    for im in (0.0, 1e-10, np.nextafter(1e-10, 1), np.nan):
        lines.append(_call(hypgeom.DeSitterVec, _near_real(axis, im)))
    for a, c in ((1e-10, 1), (np.nextafter(1e-10, 1), 1), (0, 1 - 2**-34), (0, 1 - 2**-33)):
        lines.append(_call(hypgeom.DeSitterVec, np.array([[a, 1], [c, 0]])))
    for _ in range(6):
        xi, eta = sampling.random_unimodular(rnd), sampling.random_unimodular(rnd)
        lines.append(_call(mat2.conjugating_involution, xi, eta))
        lines.append(_call(_witnesses, xi, eta))
        m1, m2, m3 = (sampling.random_unimodular(rnd) for _ in range(3))
        c = chars.character_of_triple(m1, m2, m3)
        lines.append(_call(_is_valid, c))
        for e in (5e-10, 2e-9, 1e-6):
            lines.append(_call(_is_valid, chars.CharacterF3(*c.as_tuple()[:-1], c.t132 + e)))
    for e in (3.9e-8, 4.1e-8):  # witnesses_agree allows 1e-8 (1 + |kappa|) = 4e-8
        report = chars.IrreducibilityReport(3, 3 + e, -1, -1, True)
        lines.append(_call(chars.IrreducibilityReport.witnesses_agree, report))
    lines.append(_call(mat2.conjugating_involution, mat2.mat2(2, 1, 0, 0.5),
                       mat2.mat2(3, 0, 0, 1 / 3)))
    return lines


#: Coordinates with signed zeros and negative parts.
SPECIAL_VALUES = (0, 0.0, -0.0, complex(-0.0, -1.0), complex(0.0, -0.0), -1.5, -2, -0.25j, 1)


def _eval_lines():
    rnd = random.Random(20090303)

    def value():
        if rnd.random() < 0.4:
            return rnd.choice(SPECIAL_VALUES)
        return complex(rnd.uniform(-3, 3), rnd.uniform(-3, 3))

    polys = [trace_poly(sampling.random_reduced_word(rnd, rank, length))
             for rank, length, count in ((1, 8, 4), (2, 14, 16), (3, 9, 16))
             for _ in range(count)]
    maps = (deck_ring_map(), embed_r2_in_r3(), cover_c02_to_s04(), cover_c11_to_s12())
    polys += [rm.apply_poly(_random_poly(rnd, rm.source, nterms=4, maxdeg=3))
              for rm in maps for _ in range(4)]
    polys += [PHI, SUM_RELATION, PRODUCT_RELATION]
    lines = []
    for p in polys:
        lines.append(p.to_text())
        for _ in range(4):
            lines.append(repr(p.evaluate({n: value() for n in p.variables})))
        lines.append(repr(p.evaluate({n: SPECIAL_VALUES[i % 4 + 2]
                                      for i, n in enumerate(p.variables)})))
        for _ in range(2):
            point = {n: _q(rnd, -3, 3, den=5) for n in p.variables}
            lines.append(repr(p.evaluate_exact(point)))
        for bad in (complex("inf"), complex("nan"), complex(1e200, -1e200)):
            point = {n: bad if i == len(p.variables) - 1 else value()
                     for i, n in enumerate(p.variables)}
            lines.append(_call(p.evaluate, point))
    for rank, count in ((1, 6), (2, 12), (3, 12)):
        for _ in range(count):
            w = sampling.random_reduced_word(rnd, rank, 10)
            p = trace_poly(w)
            floats = [sampling.random_unimodular(rnd) for _ in range(rank)]
            exact = [sampling.random_rational_unimodular(rnd) for _ in range(rank)]
            lines.append(f"{w.letters} {tracepoly.evaluate_at_character(p, floats)!r} "
                         f"{tracepoly.evaluate_at_character(p, exact)!r}")
    for _ in range(12):
        floats = [sampling.random_unimodular(rnd) for _ in range(4)]
        exact = [sampling.random_rational_unimodular(rnd) for _ in range(4)]
        lines.append(f"{tracepoly.quadruple_trace_check(floats)!r} "
                     f"{tracepoly.quadruple_trace_check(exact)!r}")
    return lines


def _table_lines():
    lines = []
    for rank in (1, 2, 3):
        variables = tracepoly._VARSETS[rank]
        for key, element in sorted(tracepoly._table(rank).items()):
            for basis, terms in sorted(element.items()):
                for mono, c in sorted(terms.items()):
                    lines.append(f"{rank} {key} {basis} {variables._unpack(mono)} {c}")
    lines.append(json.dumps(tracepoly._quadruple_poly().to_json(), sort_keys=True))
    return lines


def _verify_run_lines():
    runs = [["verify", suite, "--seed", str(seed), "--mode", mode]
            for suite in SUITES for mode in ("float", "exact") for seed in range(4)]
    runs.append(["verify", "covers", "--seed", "7"])
    lines = []
    for argv in runs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        lines.append(f"{' '.join(argv)} exit={code}\n{buf.getvalue()}")
    return lines


def _ring_map_lines():
    rnd = random.Random(20090404)
    deck = deck_ring_map()

    def line(p):
        return json.dumps(p.to_json(), sort_keys=True)

    lines = []
    for _ in range(60):
        p = _random_poly(rnd, deck.source, nterms=rnd.randint(1, 8), maxdeg=2)
        image = deck.apply_poly(p)
        lines += [line(image), line(deck.apply_poly(image))]
    for key, cover in covers.COVERS.items():
        rm = covers.ring_map(key)
        lines += [f"{key} {name} {line(rm.apply_poly(rel))}"
                  for name, rel in cover.relations.items()]
        for _ in range(10):
            lines.append(f"{key} {line(rm.apply_poly(_random_poly(rnd, rm.source, 4, 2)))}")
    return lines


#: Each recorded digest and the corpus it hashes.
CORPORA = {
    "EXACT_DIGEST": lambda: _symbolic_lines(floats=False),
    "SYMBOLIC_DIGEST": _symbolic_lines,
    "VERIFY_DIGEST": _verify_lines,
    "PREDICATE_DIGEST": _predicate_lines,
    "EVAL_DIGEST": _eval_lines,
    "TABLE_DIGEST": _table_lines,
    "VERIFY_RUNS_DIGEST": _verify_run_lines,
    "RING_MAP_DIGEST": _ring_map_lines,
}


def test_exact_outputs_match_digest():
    assert _digest(_symbolic_lines(floats=False)) == EXACT_DIGEST


def test_symbolic_outputs_match_digest():
    assert _digest(_symbolic_lines()) == SYMBOLIC_DIGEST


def test_verify_outputs_match_digest():
    assert _digest(_verify_lines()) == VERIFY_DIGEST


def test_predicate_outputs_match_digest():
    assert _digest(_predicate_lines()) == PREDICATE_DIGEST


def test_eval_outputs_match_digest():
    assert _digest(_eval_lines()) == EVAL_DIGEST


def test_table_matches_digest():
    assert _digest(_table_lines()) == TABLE_DIGEST


def test_verify_runs_match_digest():
    assert _digest(_verify_run_lines()) == VERIFY_RUNS_DIGEST


def test_ring_maps_match_digest():
    assert _digest(_ring_map_lines()) == RING_MAP_DIGEST


def _blas_name() -> str:
    """The name of numpy's BLAS, or "" where numpy does not report it."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name") or ""
    except (TypeError, KeyError):  # numpy before 1.25 takes no mode
        return ""


@pytest.mark.skipif("openblas" not in _blas_name().lower(), reason="numpy's BLAS is not OpenBLAS")
def test_digests_do_not_depend_on_the_blas_kernel():
    # the oldest x86-64 kernel of OpenBLAS, whose products round otherwise
    # than the fused multiply-adds of the kernels chosen on newer CPUs
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott", PYTHONPATH=path)
    out = subprocess.run([sys.executable, os.path.abspath(__file__)], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == [f'{name} = "{globals()[name]}"' for name in CORPORA]


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        description="Print each golden digest at the current source as NAME = \"digest\", "
                    "or the records of one corpus.")
    parser.add_argument("--lines", choices=list(CORPORA), metavar="NAME",
                        help="print the records of this corpus instead, one after another")
    args = parser.parse_args(argv)
    if args.lines:
        print("\n".join(CORPORA[args.lines]()))
    else:
        for name, lines in CORPORA.items():
            print(f'{name} = "{_digest(lines())}"')


if __name__ == "__main__":
    main()
