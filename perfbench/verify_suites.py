"""verify_suites: one operation is one in-process run of
``slchar verify <suite>``: the five suites in float mode and
``identities`` and ``oracle`` in exact mode, 100 trials each, with a
seeded suite seed.  The trace memo is not cleared between operations,
so this is the one workload where it is reused across words; it is
also the only one that runs the cli suite bodies, sampling's exact 2x2
helpers and Polynomial.evaluate_exact.

The pool starts with three fixed covers runs that fail at the seed
commit (deck-character-validity above the 1e-8 tolerance); they stay
in every run so that the failure remains visible until it is fixed.

Check: exit code 0, no row reads FAIL, exact-mode rows are exactly 0.
"""

from __future__ import annotations

import contextlib
import io

from slchar import cli

import common

NAME = "verify_suites"
BLOCKS = 12
CONFIGS = (
    ("identities", "float"), ("oracle", "float"), ("fricke", "float"),
    ("covers", "float"), ("coxeter", "float"),
    ("identities", "exact"), ("oracle", "exact"),
)
FIXED = (
    ("verify", "covers", "--seed", "7"),
    ("verify", "covers", "--seed", "7", "--trials", "1000"),
    ("verify", "covers", "--seed", "0", "--trials", "1000"),
)
POOL = len(FIXED) + len(CONFIGS) * BLOCKS
OP_MS = 35.0  # wall per operation at reference speed, check included
KNOWN_COVERS_ROW = "covers/deck-character-validity"


def warm_up() -> None:
    # builds the four covering maps and touches every suite once
    for suite, mode in CONFIGS:
        run(("verify", suite, "--trials", "1", "--mode", mode))


def make_inputs(seed: int) -> list:
    rnd = common.rng(NAME, seed)
    ops = list(FIXED)
    for _ in range(BLOCKS):
        block = list(CONFIGS)
        rnd.shuffle(block)
        for suite, mode in block:
            ops.append(("verify", suite, "--seed", str(rnd.randrange(10**6)),
                        "--mode", mode))
    return ops


def digest_key(op):
    return op


def run(op):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(op))
    return rc, out.getvalue() + err.getvalue()


def _rows(text: str) -> list[tuple[str, float, str]]:
    rows = []
    for line in text.splitlines():
        name, sep, rest = line.partition(": max-residual=")
        if sep:
            value, _, status = rest.partition(" ")
            rows.append((name, float(value), status))
    return rows


def _failed_rows(text: str) -> list[str]:
    return [name for name, _, status in _rows(text) if status != "pass"]


def check(op, out) -> str | None:
    rc, text = out
    rows = _rows(text)
    if not rows:
        return f"exit {rc}, no result rows: {text!r}"
    failed = _failed_rows(text)
    if failed:
        return f"exit {rc}, failing rows {failed}"
    if rc != 0 or not text.rstrip().endswith("result=pass"):
        return f"exit {rc}, summary {text.rstrip().splitlines()[-1]!r}"
    if "exact" in op:
        nonzero = [name for name, value, _ in rows if value != 0.0]
        if nonzero:
            return f"exact-mode rows not exactly zero: {nonzero}"
    return None


def known_defect(op, out) -> str | None:
    rc, text = out
    if "exact" not in op and rc == 1 and _failed_rows(text) == [KNOWN_COVERS_ROW]:
        return "covers-deck-character-validity"
    return None


def describe(op) -> str:
    return "slchar " + " ".join(op)
