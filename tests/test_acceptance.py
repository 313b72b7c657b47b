"""Acceptance criteria, one test per criterion.

Each test prints a single pass line with the measured quantity so the
suite run doubles as the acceptance report:

    pytest tests/test_acceptance.py -s
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from slchar import mat2
from slchar.chars import (
    character_of_pair,
    character_of_triple,
    construct_triple,
    triple_trace_roots,
    classify_real_character,
    RealCharClass,
)
from slchar.covers import (
    cover_c02_to_s04,
    cover_c11_to_s12,
    deck_involution_f3,
)
from slchar.fricke import (
    CharacterS04,
    S04Verdict,
    S11Verdict,
    FNCoords,
    defining_identity_residual,
    fn_to_traces,
    member_s04,
    member_s11,
    s04_defining_poly,
    s12_relation_polys,
)
from slchar.hypgeom import (
    FormSignature,
    bilinear_form_from_character,
    coxeter_extension,
    form_signature,
    hexagon_certificate,
)
from slchar.mat2 import evaluate_at_character, normal_form_pair, quadruple_trace_check
from slchar.polyring import (
    F3_VARS,
    PHI,
    PRODUCT_RELATION,
    SUM_RELATION,
    Polynomial,
    VariableSet,
    kappa_value,
    reduce_mod_phi,
)
from slchar.sampling import random_reduced_word, random_unimodular, rng_for
from slchar.tracepoly import clear_cache, trace_poly
from slchar.words import Word


def report(n, text):
    print(f"\nACCEPTANCE {n:2d}: {text}  ... PASS")


def test_01_commutator_polynomial():
    clear_cache()
    t0 = time.perf_counter()
    got = trace_poly(Word(2, (1, 2, -1, -2)))
    elapsed = time.perf_counter() - t0
    expected = Polynomial(
        VariableSet(("x", "y", "z")),
        {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1, (1, 1, 1): -1, (0, 0, 0): -2},
    )
    assert got == expected
    assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"
    report(1, f"commutator polynomial exact, {elapsed * 1e6:.0f} us")


def test_02_rank2_oracle_suite():
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(1000):
        rnd = rng_for(2025, trial)
        w = random_reduced_word(rnd, 2, 12)
        ms = [random_unimodular(rnd) for _ in range(2)]
        val = evaluate_at_character(trace_poly(w), ms)
        tr = mat2.trace(mat2.evaluate_word(w, ms))
        worst = max(worst, abs(val - tr) / (1 + abs(tr)))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 5.0
    report(2, f"rank-2 oracle 1000 trials, max rel residual {worst:.2e}, {elapsed:.2f}s")


def test_03_rank3_oracle_and_relations():
    worst = 0.0
    for trial in range(500):
        rnd = rng_for(2026, trial)
        w = random_reduced_word(rnd, 3, 8)
        ms = [random_unimodular(rnd) for _ in range(3)]
        val = evaluate_at_character(trace_poly(w), ms)
        tr = mat2.trace(mat2.evaluate_word(w, ms))
        worst = max(worst, abs(val - tr) / (1 + abs(tr)))
    assert worst <= 1e-7
    phi = PHI
    fsum, fprod = SUM_RELATION, PRODUCT_RELATION
    worst_rel = 0.0
    for trial in range(500):
        rnd = rng_for(2027, trial)
        ms = [random_unimodular(rnd) for _ in range(3)]
        t123 = mat2.trace(ms[0] @ ms[1] @ ms[2])
        t132 = mat2.trace(ms[0] @ ms[2] @ ms[1])
        worst_rel = max(
            worst_rel,
            abs(evaluate_at_character(phi, ms)),
            abs(evaluate_at_character(fsum, ms) - (t123 + t132)),
            abs(evaluate_at_character(fprod, ms) - t123 * t132),
        )
    assert worst_rel <= 1e-8
    report(3, f"rank-3 oracle residual {worst:.2e}, relation residual {worst_rel:.2e}")


def test_04_defining_identity_exact():
    t0 = time.perf_counter()
    residual = defining_identity_residual()
    elapsed = time.perf_counter() - t0
    assert residual.is_zero()
    assert elapsed < 1.0
    report(4, f"four-holed-sphere identity exact in Q[a..z], {elapsed * 1e3:.0f} ms")


def test_05_s04_witnesses():
    res = member_s04(CharacterS04(2, 2, 2, 2, -3, 2, 7))
    assert res.verdict is S04Verdict.NONMEMBER_WRONG_COMPONENT

    y = -18 - 10 * math.sqrt(5)
    res2 = member_s04(CharacterS04(3, 3, 3, 3, -3, y, y))
    assert res2.verdict is S04Verdict.MEMBER
    assert res2.residual <= 1e-10

    # exact mode: the same point over Q[sqrt 5] gives residual 0
    s_vars = VariableSet(("s",))
    s = Polynomial.variable(s_vars, "s")
    c = lambda v: Polynomial.constant(s_vars, v)
    y_exact = c(-18) - c(10) * s
    image = s04_defining_poly().substitute(
        {"a": c(3), "b": c(3), "c": c(3), "d": c(3), "x": c(-3),
         "y": y_exact, "z": y_exact},
        target=s_vars,
    )
    reduced = {0: Fraction(0), 1: Fraction(0)}
    for (e,), coeff in image.terms():
        reduced[e % 2] += coeff * Fraction(5) ** (e // 2)
    assert reduced[0] == 0 and reduced[1] == 0
    report(5, f"witness verdicts {res.verdict.value} / {res2.verdict.value}, "
              f"float residual {res2.residual:.1e}, exact residual 0")


def test_06_round_trips():
    worst_pair = 0.0
    for trial in range(1000):
        rnd = rng_for(2028, trial)
        x, y, z = (complex(rnd.uniform(-3, 3), rnd.uniform(-3, 3)) for _ in range(3))
        got = character_of_pair(*normal_form_pair(x, y, z))
        worst_pair = max(
            worst_pair, abs(got.x - x), abs(got.y - y), abs(got.z - z)
        )
    assert worst_pair <= 1e-10
    worst_triple = 0.0
    for trial in range(300):
        rnd = rng_for(2029, trial)
        t = [complex(rnd.uniform(-3, 3), rnd.uniform(-3, 3)) for _ in range(6)]
        t1, t2, t3, t12, t23, t13 = t
        tri = construct_triple(t1, t2, t3, t12, t23, t13, "+")
        c = character_of_triple(*tri)
        for g, w in zip(
            (c.t1, c.t2, c.t3, c.t12, c.t23, c.t13), (t1, t2, t3, t12, t23, t13)
        ):
            worst_triple = max(worst_triple, abs(g - w) / (1 + abs(w)))
        roots = triple_trace_roots(t1, t2, t3, t12, t13, t23)
        worst_triple = max(
            worst_triple,
            min(abs(c.t123 - r) for r in roots) / (1 + abs(c.t123)),
        )
    assert worst_triple <= 1e-8
    report(6, f"pair round trip {worst_pair:.2e}, triple round trip {worst_triple:.2e}")


def test_07_coxeter_extension():
    worst = 0.0
    done = 0
    trial = 0
    while done < 200:
        rnd = rng_for(2030, trial)
        trial += 1
        xi, eta = random_unimodular(rnd), random_unimodular(rnd)
        if abs(character_of_pair(xi, eta).kappa() - 2) < 1e-3:
            continue
        done += 1
        i_xy, i_yz, i_zx = coxeter_extension(xi, eta)
        zeta = mat2.adjoint(xi @ eta)
        for inv in (i_xy, i_yz, i_zx):
            worst = max(worst, float(np.abs(inv @ inv + mat2.I2).max()))
        for prod, target in (
            (i_zx @ i_xy, xi), (i_xy @ i_yz, eta), (i_yz @ i_zx, zeta)
        ):
            dev = min(
                float(np.abs(prod - target).max()),
                float(np.abs(prod + target).max()),
            )
            worst = max(worst, dev)
    assert worst <= 1e-8
    report(7, f"200 Coxeter extensions, worst deviation {worst:.2e}")


def test_08_hexagon_certificates():
    worst_gap = -math.inf
    worst_formula = 0.0
    for trial in range(200):
        rnd = rng_for(2031, trial)
        x, y, z = (rnd.uniform(-10, -2.01) for _ in range(3))
        cert = hexagon_certificate(x, y, z)
        expected = {
            "XY": (2 * z - x * y) / math.sqrt((x * x - 4) * (y * y - 4)),
            "YZ": (2 * x - y * z) / math.sqrt((y * y - 4) * (z * z - 4)),
            "ZX": (2 * y - z * x) / math.sqrt((z * z - 4) * (x * x - 4)),
        }
        for p in cert.pairs:
            worst_gap = max(worst_gap, p.inner + 1)
            worst_formula = max(worst_formula, abs(p.inner - expected[p.names]))
    assert worst_gap < 0
    assert worst_formula <= 1e-8
    report(8, f"200 hexagons, max inner {worst_gap - 1:.3f}, formula dev {worst_formula:.2e}")


def test_09_covering_maps():
    rm = cover_c02_to_s04()
    assert rm.apply_poly(s04_defining_poly()).is_zero()
    rel1, rel2 = s12_relation_polys()
    rm2 = cover_c11_to_s12()
    assert rm2.apply_poly(rel1).is_zero()
    assert rm2.apply_poly(rel2).is_zero()
    import random as _random

    rnd = _random.Random("acceptance-9")
    for _ in range(100):
        terms = {}
        for _ in range(rnd.randint(1, 6)):
            e = tuple(rnd.randint(0, 2) for _ in range(7))
            terms[e] = rnd.randint(-5, 5)
        p = Polynomial(F3_VARS, terms)
        twice = deck_involution_f3(deck_involution_f3(p))
        assert reduce_mod_phi(twice) == reduce_mod_phi(p)
    report(9, "cover relations vanish symbolically; deck involution squares to id mod PHI")


def test_10_fn_pipeline():
    eps = np.finfo(float).eps
    worst_kappa = 0.0
    worst_x = 0.0
    for trial in range(100):
        rnd = rng_for(2032, trial)
        coords = FNCoords(
            l=rnd.uniform(0.1, 5), tau=rnd.uniform(-4, 4), b=rnd.uniform(0, 4)
        )
        res = fn_to_traces(coords)
        worst_kappa = max(
            worst_kappa, abs(res.kappa + 2 * math.cosh(coords.b / 2))
        )
        worst_x = max(
            worst_x, abs(res.x - 2 * math.cosh(coords.l / 2)) / (1 + res.x)
        )
        v = member_s11(*res.traces()).verdict
        assert v is S11Verdict.MEMBER_SLICE or (
            res.kappa <= -2 + 1e-9 and min(res.traces()) > 2
        )
    assert worst_kappa <= 1e-9
    assert worst_x <= 4 * eps  # machine precision
    report(10, f"100 FN points: kappa residual {worst_kappa:.2e}, "
               f"x within {worst_x / eps:.1f} eps of 2cosh(l/2)")


def test_11_real_classification_consistency():
    checked = 0
    trial = 0
    while checked < 500:
        rnd = rng_for(2033, trial)
        trial += 1
        x, y, z = (rnd.uniform(-4, 4) for _ in range(3))
        k = kappa_value(x, y, z)
        if abs(k - 2) < 1e-6:
            continue
        checked += 1
        cls = classify_real_character(x, y, z)
        sig = form_signature(bilinear_form_from_character(x, y, z))
        if cls is RealCharClass.SU2_FIXED_POINT:
            assert sig is FormSignature.POSITIVE_DEFINITE
        elif k > 2:
            assert cls is RealCharClass.SL2R_PLANE
            assert sig is FormSignature.SIGNATURE_2_1
        else:
            assert cls is RealCharClass.SL2R_PLANE
            assert sig is FormSignature.SIGNATURE_1_2
    report(11, "500 real characters: classification matches form signature")


def test_12_quadruple_trace_identity():
    worst = 0.0
    for trial in range(500):
        rnd = rng_for(2034, trial)
        ms = [random_unimodular(rnd) for _ in range(4)]
        worst = max(worst, quadruple_trace_check(ms))
    assert worst <= 1e-8
    report(12, f"500 quadruple-trace checks, max residual {worst:.2e}")
