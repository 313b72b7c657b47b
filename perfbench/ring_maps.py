"""ring_maps: one operation pushes one polynomial through a covering
ring map.  The maps are built during set-up, so the trace engine does
almost nothing here and Polynomial.substitute, __mul__ and
reduce_mod_phi carry the cost.

Four operations in five apply the deck involution twice to a rank-3
polynomial: the unit tests' distribution (1-5 terms, exponents 0-2),
with every fifth block of nine polynomials larger (6-8 terms).  The
fifth operation applies one cover to one of its source relations,
cycling through the five (cover, relation) pairs.

The cost of a squaring is set by the polynomial's exponents and spans
three decades (0.3 ms to 0.6 s), so two 90-polynomial samples of
exponents differ by up to 40% in median cost.  The exponent supports
are therefore drawn once, from a fixed stream, in balanced blocks (see
_balanced_exponents); the seed draws every coefficient.

Check: deck(deck(p)) == reduce_mod_phi(p); every relation image is zero.
"""

from __future__ import annotations

from slchar import covers, fricke, polyring
from slchar.polyring import F3_VARS, Polynomial

import common

NAME = "ring_maps"
POOL = 90
OP_MS = 40.0  # wall per operation at reference speed, check included
X2, X13 = F3_VARS.index("x2"), F3_VARS.index("x13")

# looked up on the module at call time, so that traced runs see wrappers
_MAPS = {
    "c02s04": "cover_c02_to_s04",
    "c11s12": "cover_c11_to_s12",
    "embed": "embed_r2_in_r3",
    "deck": "deck_ring_map",
}


def _relations():
    sum_rel, product_rel = fricke.s12_relation_polys()
    return (
        ("c02s04", "defining_quartic", fricke.s04_defining_poly()),
        ("c11s12", "sum_relation", sum_rel),
        ("c11s12", "product_relation", product_rel),
        ("embed", "phi", polyring.PHI),
        ("deck", "phi", polyring.PHI),
    )


def warm_up() -> None:
    for build in _MAPS.values():
        getattr(covers, build)()


def _balanced_exponents(rnd, nterms: int) -> list[list[tuple[int, ...]]]:
    """Exponent vectors for nine polynomials of ``nterms`` terms each.

    Each exponent is uniform on 0-2, as in the unit tests, but the draw
    is balanced across the nine: for every term slot, the exponents of
    x2 and x13 run through all nine pairs once, and every other
    variable takes 0, 1 and 2 three times each.  Those two exponents
    set most of the cost (the deck map sends x2 to x123, whose square
    needs reduce_mod_phi, and x13 to a four-term polynomial), so every
    block of nine costs about the same, whatever the seed.
    """
    polys = [[] for _ in range(9)]
    for _ in range(nterms):
        pairs = rnd.sample([(a, b) for a in range(3) for b in range(3)], 9)
        columns = {v: rnd.sample((0, 1, 2) * 3, 9) for v in range(7) if v not in (X2, X13)}
        for j in range(9):
            exp = [columns[v][j] if v in columns else 0 for v in range(7)]
            exp[X2], exp[X13] = pairs[j]
            polys[j].append(tuple(exp))
    return polys


def make_inputs(seed: int) -> list:
    supports = common.rng(NAME, "supports")  # the same for every seed
    rnd = common.rng(NAME, seed)
    relations = _relations()
    pending: list = []
    ops = []
    for i in range(POOL):
        if i % 5 == 4:
            cover, rel, poly = relations[(i // 5) % len(relations)]
            ops.append(("relation", cover, rel, poly))
            continue
        k = i - i // 5  # index among the polynomial operations
        if not pending:
            block = k // 9
            nterms = 6 + (block // 5) % 3 if block % 5 == 4 else 1 + (block - block // 5) % 5
            pending = _balanced_exponents(supports, nterms)
        terms = tuple((exp, rnd.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)))
                      for exp in sorted(set(pending.pop())))
        ops.append(("deck2", terms, Polynomial(F3_VARS, dict(terms))))
    return ops


def digest_key(op):
    return op[:3] if op[0] == "relation" else op[:2]


def run(op):
    if op[0] == "relation":
        _, cover, _, poly = op
        return getattr(covers, _MAPS[cover])().apply_poly(poly)
    return covers.deck_involution_f3(covers.deck_involution_f3(op[2]))


def check(op, out) -> str | None:
    if not isinstance(out, Polynomial):
        return f"returned {type(out).__name__}, not a Polynomial"
    if op[0] == "relation":
        return None if out.is_zero() else f"relation image is {out}"
    want = polyring.reduce_mod_phi(op[2])
    return None if out == want else f"deck(deck(p)) is {out}, expected {want}"


def known_defect(op, out) -> str | None:
    return None


def describe(op) -> str:
    if op[0] == "relation":
        return f"cover={op[1]} relation={op[2]}"
    return f"deck2 terms={list(op[1])}"
