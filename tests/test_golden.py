"""Golden-output guard: seeded symbolic results, their float values and
``slchar verify`` output must stay byte-identical across refactors of
the arithmetic kernel and the trace engine.

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
"""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

from slchar import cli
from slchar.covers import (
    cover_c02_to_s04,
    cover_c11_to_s12,
    deck_ring_map,
    embed_r2_in_r3,
)
from slchar.polyring import Polynomial
from slchar.tracepoly import trace_poly
from slchar.words import Word

EXACT_DIGEST = "624d279a57ec01a51983e3a959ba81f8aad039a844605204c3c7beeea153b3eb"
SYMBOLIC_DIGEST = "eabbaf72485625ee4c876305d9378c6402533fb4cd4281a5314dfd65666cb755"
VERIFY_DIGEST = "fd56e039333c826b711b4f7045d365b4cddfb5c0b13cd86b5bfd2ee010daac29"

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


def test_exact_outputs_match_digest():
    assert _digest(_symbolic_lines(floats=False)) == EXACT_DIGEST


def test_symbolic_outputs_match_digest():
    assert _digest(_symbolic_lines()) == SYMBOLIC_DIGEST


def test_verify_outputs_match_digest():
    assert _digest(_verify_lines()) == VERIFY_DIGEST
