"""trace_cold: one operation is the trace polynomial of one word, with
the memo cleared first, so the recursive rewriting and the polynomial
kernel do all the work.

Words are cyclically reduced, rank 2 of length 12-24 and rank 3 of
length 8-12.  Every block of 18 operations holds each (rank, length)
once in seeded order: the cost of a word grows steeply with its length,
so stratifying by length keeps runs with different seeds comparable.
Length 24 is the cap because one rank-2 word of length 28 already takes
about a quarter of a second.

Check: the polynomial, evaluated exactly at the character of seeded
rational unimodular matrices, equals the exact trace of the word's
matrix product; a rank-3 result has degree <= 1 in x123.
"""

from __future__ import annotations

from slchar import sampling, tracepoly, words
from slchar.polyring import Polynomial

import common

NAME = "trace_cold"
POOL = 432
OP_MS = 18.0  # wall per operation at reference speed, check included
STRATA = [(2, n) for n in range(12, 25)] + [(3, n) for n in range(8, 13)]


def warm_up() -> None:
    tracepoly.trace_poly(words.Word(2, (1, 2, -1, -2)))
    tracepoly.trace_poly(words.Word(3, (1, 2, 3, -1)))
    tracepoly.clear_cache()


def _cyclically_reduced(rnd, rank: int, length: int) -> tuple[int, ...]:
    alphabet = [g for k in range(1, rank + 1) for g in (k, -k)]
    while True:
        letters = [rnd.choice(alphabet)]
        while len(letters) < length:
            g = rnd.choice(alphabet)
            if g != -letters[-1]:
                letters.append(g)
        if letters[0] != -letters[-1]:
            return tuple(letters)


def make_inputs(seed: int) -> list:
    rnd = common.rng(NAME, seed)
    ops = []
    while len(ops) < POOL:
        block = STRATA[:]
        rnd.shuffle(block)
        for rank, length in block:
            letters = _cyclically_reduced(rnd, rank, length)
            mats = tuple(common.rational_sl2(rnd) for _ in range(rank))
            ops.append((rank, letters, mats))
    return ops


def digest_key(op):
    return op


def run(op):
    rank, letters, _ = op
    tracepoly.clear_cache()
    return tracepoly.trace_poly(words.Word(rank, letters))


def check(op, out) -> str | None:
    rank, letters, mats = op
    if not isinstance(out, Polynomial):
        return f"returned {type(out).__name__}, not a Polynomial"
    if rank == 3 and out.degree_in("x123") > 1:
        return f"degree {out.degree_in('x123')} in x123"
    want = sampling.exact_trace(sampling.exact_evaluate_word(words.Word(rank, letters), list(mats)))
    got = out.evaluate_exact(common.character(mats))
    if got != want:
        return f"evaluate_exact gives {got}, exact matrix trace is {want}"
    return None


def known_defect(op, out) -> str | None:
    return None


def describe(op) -> str:
    rank, letters, mats = op
    shown = [[[str(v) for v in row] for row in m] for m in mats]
    return f"rank={rank} letters={list(letters)} matrices={shown}"
