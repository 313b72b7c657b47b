"""Self-test of the benchmark's output checks: planted wrong answers
must be counted as failures, and not as known seed-commit defects.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import dataclasses
import os
import sys
import types

sys.path[:0] = [os.path.dirname(os.path.abspath(__file__))]

import worker  # noqa: E402  (puts the checkout's src/ on the path)
import predicate_sweep  # noqa: E402
import ring_maps  # noqa: E402
import trace_cold  # noqa: E402
import verify_suites  # noqa: E402
from slchar.fricke import S11Verdict  # noqa: E402


def _planted(mod, perturb):
    """The workload with every output replaced by a perturbed one."""
    return types.SimpleNamespace(
        run=lambda op: perturb(op, mod.run(op)), check=mod.check,
        known_defect=mod.known_defect, describe=mod.describe)


PASSES = 2


def _failures(mod, ops):
    latencies, attempted, failures, *_ = worker._closed_loop(mod, ops, PASSES, None)
    assert len(latencies) == len(ops) and attempted == len(ops) * PASSES
    return failures


def test_correct_outputs_pass():
    for mod, ops in ((trace_cold, trace_cold.make_inputs(0)[:6]),
                     (ring_maps, ring_maps.make_inputs(0)[:5]),
                     (verify_suites, verify_suites.make_inputs(0)[3:6])):
        assert _failures(mod, ops) == []


def test_perturbed_trace_polynomial_is_a_failure():
    ops = trace_cold.make_inputs(0)[:6]
    failures = _failures(_planted(trace_cold, lambda op, p: p + 1), ops)
    assert sum(f["count"] for f in failures) == len(ops) * PASSES
    assert not any(f["known"] for f in failures)


def test_wrong_ring_map_image_is_a_failure():
    ops = ring_maps.make_inputs(0)[:5]  # four deck squarings and one relation
    failures = _failures(_planted(ring_maps, lambda op, p: p * 2 + 1), ops)
    assert sum(f["count"] for f in failures) == len(ops) * PASSES


def _flip_s11(op, outs):
    triple, *rest = outs
    s03, s11, *others = triple
    flipped = (S11Verdict.NONMEMBER if s11.verdict is not S11Verdict.NONMEMBER
               else S11Verdict.MEMBER_ORBIT)
    return ((s03, dataclasses.replace(s11, verdict=flipped), *others), *rest)


def test_flipped_fricke_verdict_is_a_failure():
    ops = predicate_sweep.make_inputs(0)[1:9]
    failures = _failures(_planted(predicate_sweep, _flip_s11), ops)
    assert sum(f["count"] for f in failures) == len(ops) * PASSES
    # a flip is not what float arithmetic gives, so it is never excused
    assert not any(f["known"] for f in failures)


def test_exact_cusp_decided_in_floats_is_a_known_failure():
    op = predicate_sweep.make_inputs(0)[0]  # (33/10, 33/10, 33/4), kappa = -2
    out = predicate_sweep.run(op)
    assert predicate_sweep.check(op, out)
    assert predicate_sweep.known_defect(op, out) == "exact-input-decided-in-floats"


def test_fail_row_in_verify_output_is_a_failure():
    op = ("verify", "oracle", "--seed", "3", "--mode", "exact")
    rc, text = verify_suites.run(op)
    assert verify_suites.check(op, (rc, text)) is None
    planted = text.replace(" pass", " FAIL", 1)
    assert verify_suites.check(op, (rc, planted))
    assert verify_suites.known_defect(op, (rc, planted)) is None
    nonzero = text.replace("max-residual=0.00000000000000000e+00",
                           "max-residual=1.00000000000000000e-30", 1)
    assert verify_suites.check(op, (rc, nonzero))
    failures = _failures(_planted(verify_suites, lambda op, out: (1, planted)), [op, op])
    assert sum(f["count"] for f in failures) == 2 * PASSES


def test_known_covers_failure_is_recognized():
    op = ("verify", "covers", "--seed", "7")
    out = verify_suites.run(op)
    assert verify_suites.check(op, out)
    assert verify_suites.known_defect(op, out) == "covers-deck-character-validity"


def test_inputs_are_deterministic():
    for mod in (trace_cold, ring_maps, predicate_sweep, verify_suites):
        a = [mod.digest_key(op) for op in mod.make_inputs(5)]
        b = [mod.digest_key(op) for op in mod.make_inputs(5)]
        c = [mod.digest_key(op) for op in mod.make_inputs(6)]
        assert a == b and a != c


def test_counts_depend_only_on_seed_and_seconds():
    ops = predicate_sweep.make_inputs(1)[:4]  # the first holds the known s11 cusp
    runs = [worker._closed_loop(predicate_sweep, ops, PASSES, None) for _ in range(2)]
    assert [r[1] for r in runs] == [len(ops) * PASSES] * 2
    assert runs[0][2] == runs[1][2] and runs[0][2]
    assert worker.passes_for(trace_cold, 1e-3) == worker.MIN_PASSES
