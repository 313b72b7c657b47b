"""Trace polynomials of free-group words.

Every word w in the free group on X, Y determines a polynomial
f_w(x, y, z) in the traces x = tr(X), y = tr(Y), z = tr(XY) with

    tr(w(X, Y)) = f_w(tr X, tr Y, tr XY)

for all unimodular 2x2 matrices.  This script computes a few classical
examples and then spot-checks the engine against random matrices.
"""

import random

from slchar import mat2, parse_word, trace_poly
from slchar.mat2 import evaluate_at_character
from slchar.sampling import random_reduced_word, random_unimodular
from slchar.tracepoly import kappa

print("Classical rank-2 trace polynomials")
print("-" * 50)
for text in ("X X", "X y", "X Y x Y", "X Y x y"):
    w = parse_word(text, 2)
    print(f"  tr({text:10s}) = {trace_poly(w)}")

print()
print("The commutator polynomial is the famous kappa:")
print(f"  kappa = {kappa()}")
print("  kappa(0,0,0) =", kappa().evaluate({"x": 0, "y": 0, "z": 0}),
      " (the quaternion character)")
print("  kappa(2,2,2) =", kappa().evaluate({"x": 2, "y": 2, "z": 2}),
      " (reducible: equals 2)")

print()
print("Rank 3: seven coordinates, canonical modulo the hypersurface")
print("-" * 50)
for text in ("X2 X3 X1", "X1 X3 X2", "X1 X2 X3 X2^-1"):
    w = parse_word(text, 3)
    print(f"  tr({text:14s}) = {trace_poly(w)}")

print()
print("Oracle check: polynomial vs direct matrix product")
print("-" * 50)
rnd = random.Random(0)
worst = 0.0
for _ in range(200):
    w = random_reduced_word(rnd, 2, 12)
    ms = [random_unimodular(rnd) for _ in range(2)]
    poly_val = evaluate_at_character(trace_poly(w), ms)
    mat_val = mat2.trace(mat2.evaluate_word(w, ms))
    worst = max(worst, abs(poly_val - mat_val) / (1 + abs(mat_val)))
print(f"  200 random words of length <= 12: max relative deviation {worst:.2e}")
