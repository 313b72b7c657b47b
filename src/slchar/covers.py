"""Character-ring homomorphisms induced by word maps of free groups.

Each map is one frozen record of the ordered registry ``COVERS`` that
holds the word map and its traced images: the source coordinates, each
as the positive word in the source generators whose trace it is (the
rank-3 ones are ``tracepoly.COORDINATES``); the images of the source
generators as words in the base, a free group of rank ``rank`` (the
word-level monomorphism of fundamental groups); the base coordinates as
target variables; and the named defining relations of the source ring.
Building a record pushes each coordinate word through the generator
images and runs the trace engine on the result.  That makes the
defining relations vanish identically after substitution, which
``symbolic_check`` verifies, and ties the tables to the matrix oracle
through the same engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from .fricke import s04_defining_poly, s12_relation_polys
from .polyring import F3_VARS, PHI, S04_VARS, S12_VARS, Polynomial, VariableSet, reduce_mod_phi
from .tracepoly import COORDINATES, trace_poly
from .words import Word

__all__ = [
    "COVERS",
    "RingMap",
    "ring_map",
    "embed_r2_in_r3",
    "deck_involution_f3",
    "deck_ring_map",
    "cover_c02_to_s04",
    "cover_c11_to_s12",
    "symbolic_check",
]


@dataclass(frozen=True)
class RingMap:
    """One map: its word map and each source coordinate's image
    polynomial, traced when the record is built (see the module
    docstring).  For an ``involution``, ``symbolic_check`` also tests
    that the map squares to the identity on generators."""

    name: str
    source: VariableSet
    words: Mapping[str, tuple[int, ...]]
    generators: Mapping[int, tuple[int, ...]]
    rank: int
    target: VariableSet
    relations: Mapping[str, Polynomial]
    involution: bool = False
    images: Mapping[str, Polynomial] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "images", {
            name: trace_poly(Word(self.rank, tuple(h for g in word for h in self.generators[g])))
            .rename_variables(self.target)
            for name, word in self.words.items()
        })

    def apply_poly(self, p: Polynomial) -> Polynomial:
        """Push a polynomial over the source variables through the map:
        ``substitute`` of the images as they are (not copied), then, on the
        rank-3 ring, ``reduce_mod_phi``."""
        if p.variables != self.source:
            raise ValueError(f"{self.name}: expected a polynomial over {self.source}")
        out = p.substitute(self.images, target=self.target)
        if self.target == F3_VARS:
            out = reduce_mod_phi(out)
        return out

    def apply_point(self, point: Mapping[str, complex]) -> dict[str, complex]:
        """Evaluate every image at a numeric point of the target ring."""
        return {n: img.evaluate(point) for n, img in self.images.items()}

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "source": list(self.source.names),
            "target": list(self.target.names),
            "images": {n: img.to_text() for n, img in self.images.items()},
        }

    @cached_property
    def _flags(self) -> dict[str, bool]:
        """``symbolic_check``'s flags, computed on the first call."""
        flags = {rel: self.apply_poly(p).is_zero() for rel, p in self.relations.items()}
        if self.involution:
            flags["involution_on_generators"] = all(
                self.apply_poly(self.apply_poly(p)) == reduce_mod_phi(p)
                for p in (Polynomial.variable(F3_VARS, n) for n in F3_VARS)
            )
        return flags


#: The maps by ``slchar cover map`` key, in ``verify covers`` row order.
COVERS = {
    "c02s04": RingMap(
        name="cover_c02_to_s04",
        source=S04_VARS,
        # A, B, C, D; x = tr AB, y = tr BC, z = tr AC
        words={"a": (1,), "b": (2,), "c": (3,), "d": (4,),
               "x": (1, 2), "y": (2, 3), "z": (1, 3)},
        # A -> UV, B -> V^-1 U, C -> U^-2 V U, D -> U^-1 V^-1
        generators={1: (1, 2), 2: (-2, 1), 3: (-1, -1, 2, 1), 4: (-1, -2)},
        rank=2,
        target=VariableSet(("u", "v", "w")),  # (tr U, tr V, tr UV)
        relations={"defining_quartic": s04_defining_poly()},
    ),
    "c11s12": RingMap(
        name="cover_c11_to_s12",
        source=S12_VARS,
        # U, X, Y; v = tr UX, w = tr UY, z = tr XY, a = tr UXY, b = tr UYX
        words={"u": (1,), "x": (2,), "y": (3,), "v": (1, 2), "w": (1, 3),
               "z": (2, 3), "a": (1, 2, 3), "b": (1, 3, 2)},
        # U -> PQ, X -> QP^-1, Y -> P^2
        generators={1: (1, 2), 2: (2, -1), 3: (1, 1)},
        rank=2,
        target=VariableSet(("p", "q", "r")),  # (tr P, tr Q, tr PQ)
        relations=dict(zip(("sum_relation", "product_relation"), s12_relation_polys())),
    ),
    "embed": RingMap(
        name="embed_r2_in_r3",
        source=F3_VARS,
        words=COORDINATES[F3_VARS],
        # Y1 -> X1^2, Y2 -> X1^-1 X2^-1, Y3 -> X2^2
        generators={1: (1, 1), 2: (-1, -2), 3: (2, 2)},
        rank=2,
        target=VariableSet(("x1", "x2", "x12")),
        relations={"phi_image": PHI},
    ),
    "deck": RingMap(
        name="deck_involution_f3",
        source=F3_VARS,
        words=COORDINATES[F3_VARS],
        # conjugation by X1 on Y1 = X1^2, Y2 = X1^-1 X2^-1, Y3 = X2^2, as
        # words in the Y's: Y1 -> Y1, Y2 -> Y3^-1 Y2^-1 Y1^-1,
        # Y3 -> Y1 Y2 Y3 Y2^-1 Y1^-1
        generators={1: (1,), 2: (-3, -2, -1), 3: (1, 2, 3, -2, -1)},
        rank=3,
        target=F3_VARS,
        relations={"phi_in_ideal": PHI},
        involution=True,
    ),
}


def ring_map(key: str) -> RingMap:
    """The map ``COVERS[key]``."""
    return COVERS[key]


def cover_c02_to_s04() -> RingMap:
    """Four-holed-sphere coordinates restricted along the double cover
    of the two-holed cross-surface, in the base coordinates (u, v, w)."""
    return ring_map("c02s04")


def cover_c11_to_s12() -> RingMap:
    """Two-holed-torus coordinates restricted along the double cover of
    the one-holed Klein bottle, in the base coordinates (p, q, r)."""
    return ring_map("c11s12")


def embed_r2_in_r3() -> RingMap:
    """Rank-3 coordinates of (X1^2, X1^-1 X2^-1, X2^2) as polynomials in
    the rank-2 coordinates (x1, x2, x12) of (X1, X2)."""
    return ring_map("embed")


def deck_ring_map() -> RingMap:
    """The deck involution of the orientable double cover on the rank-3
    ring.  Fixes x1 and x3, swaps x2 with x123 and x12 with x23, and
    sends x13 to x1 x3 - x13 - x12 x23 + x123 x2."""
    return ring_map("deck")


def deck_involution_f3(arg):
    """Apply the deck involution to a CharacterF3 or to a Polynomial
    over the rank-3 variables (reduced modulo the hypersurface)."""
    rm = deck_ring_map()
    if isinstance(arg, Polynomial):
        return rm.apply_poly(arg)
    from .chars import CharacterF3, triple_trace_roots  # characters only: polynomials need not

    if isinstance(arg, CharacterF3):
        vals = rm.apply_point(dict(zip(F3_VARS, arg.as_tuple())))
        *six, t123 = vals.values()
        roots = triple_trace_roots(*six)
        t132 = roots[1] if abs(roots[0] - t123) <= abs(roots[1] - t123) else roots[0]
        return CharacterF3(*vals.values(), t132)
    raise TypeError(f"expected CharacterF3 or Polynomial, got {type(arg)!r}")


def symbolic_check(name: str) -> dict[str, bool]:
    """Verify that a map sends the source ring's defining relations to
    zero (exact polynomial arithmetic), one flag per relation; the deck
    map also reports whether it squares to the identity on generators.
    The check runs once per map and process; each call gets a fresh dict."""
    if name not in COVERS:
        raise ValueError(f"unknown map {name!r}")
    return dict(COVERS[name]._flags)
