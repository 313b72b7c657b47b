"""Helpers shared by the workloads: seeded streams, input digests and
2x2 matrix arithmetic written independently of the package, so that
generated inputs and reference answers do not depend on the code that
is being measured."""

from __future__ import annotations

import gc
import hashlib
import random
import statistics
import time
from fractions import Fraction


def rng(workload: str, seed) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def digest(items) -> str:
    """sha256 over the repr of every generated input, in order."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def rational_sl2(rnd: random.Random, num: int = 4, den: int = 2):
    """A unimodular 2x2 matrix of Fractions, as nested tuples."""
    while True:
        a = Fraction(rnd.randint(-num, num), rnd.randint(1, den))
        b = Fraction(rnd.randint(-num, num), rnd.randint(1, den))
        c = Fraction(rnd.randint(-num, num), rnd.randint(1, den))
        if a:
            return ((a, b), (c, (1 + b * c) / a))


def real_sl2(rnd: random.Random, bound: float = 2.0):
    """A real unimodular 2x2 matrix of floats, as nested tuples."""
    while True:
        a = rnd.uniform(-bound, bound)
        b = rnd.uniform(-bound, bound)
        c = rnd.uniform(-bound, bound)
        if abs(a) >= 0.25:
            return ((a, b), (c, (1 + b * c) / a))


def matmul(m, n):
    return (
        (m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
        (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]),
    )


def inverse(m):
    """Inverse of a unimodular matrix (its adjugate)."""
    return ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))


def trace(m):
    return m[0][0] + m[1][1]


def character(mats) -> dict:
    """Trace coordinates of a pair or triple, keyed by the package's
    variable names."""
    if len(mats) == 2:
        a, b = mats
        return {"x": trace(a), "y": trace(b), "z": trace(matmul(a, b))}
    a, b, c = mats
    return {
        "x1": trace(a), "x2": trace(b), "x3": trace(c),
        "x12": trace(matmul(a, b)), "x13": trace(matmul(a, c)),
        "x23": trace(matmul(b, c)), "x123": trace(matmul(matmul(a, b), c)),
    }


def kappa(x, y, z):
    """Commutator trace x^2 + y^2 + z^2 - xyz - 2, in the argument type."""
    return x * x + y * y + z * z - x * y * z - 2


# -- host-speed reference ---------------------------------------------------------

# Time of one reference_seconds() sample on the machine the benchmark was
# tuned on (a 2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11) while its host
# was quiet.  Timings are reported at this reference speed: see NOTES.md.
REFERENCE_S = 0.0027

_REF_P = {(i, j, k): (7 * i + 3 * j + k) % 11 - 5 for i in range(4) for j in range(4) for k in range(3)}
_REF_Q = {(i, j, k): (5 * i + j + 2 * k) % 13 - 6 for i in range(3) for j in range(4) for k in range(4)}


def _reference_work() -> int:
    """A fixed pure-Python sparse polynomial product (dicts of exponent
    tuples, small ints), the kind of work the package does, written
    without it so that no change to the package moves it."""
    for _ in range(5):
        out: dict = {}
        for e1, c1 in _REF_P.items():
            for e2, c2 in _REF_Q.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                out[e] = out.get(e, 0) + c1 * c2
    return len(out)


def reference_seconds() -> float:
    """Median time of three back-to-back runs of the reference work.
    The garbage collector is off meanwhile, so that the size of the
    package's heap does not change the reference's time."""
    times = []
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            _reference_work()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times)
