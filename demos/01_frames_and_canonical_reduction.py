"""Frames, defect measures, and the canonical Parseval reduction.

Builds equal-norm Parseval frames, shows how the two defect measures react
to scaling and perturbation, and walks through the nearest-Parseval
reduction with its sharp distance bound.
"""

import math

import numpy as np

from framekit import (
    Frame,
    canonical_parseval,
    defects,
    frame_bounds,
    frame_distance,
    frame_potential,
    gram,
    harmonic_frame,
    near_parseval_frame,
    vector_norms_sq,
)

print("=== a harmonic frame is equal-norm Parseval ===")
f = harmonic_frame(3, 7)
a, b = frame_bounds(f)
d = defects(f)
print(f"M={f.dim} N={f.n_vectors}  bounds A={a:.12f} B={b:.12f}")
print(f"defects: parseval={d.parseval_eps:.3e} equal_norm={d.equal_norm_eps:.3e}")
print(f"squared norms (all M/N = 3/7): {vector_norms_sq(f)[:3]}")
print(f"frame potential (M for any Parseval frame): {frame_potential(f):.12f}")
print(f"Gram diagonal: {np.diagonal(gram(f)).real[:3]}")

print()
print("=== scaling by sqrt(1+eps) moves both defects to eps ===")
eps = 0.2
g = Frame(math.sqrt(1.0 + eps) * f.vectors)
dg = defects(g)
print(f"eps={eps}: parseval={dg.parseval_eps:.6f} equal_norm={dg.equal_norm_eps:.6f}")

print()
print("=== canonical Parseval reduction of the scaled frame ===")
reduced = canonical_parseval(g)
dist = frame_distance(g, reduced)
closed_form = f.dim * (math.sqrt(1.0 + eps) - 1.0) ** 2
sharp = f.dim * (2.0 - eps - 2.0 * math.sqrt(1.0 - eps))
quadratic = f.dim * eps**2 / 4.0
print(f"distance to canonical Parseval frame: {dist:.9f}")
print(f"closed form M(sqrt(1+eps)-1)^2:       {closed_form:.9f}")
print(f"sharp bound M(2-eps-2 sqrt(1-eps)):   {sharp:.9f}")
print(f"quadratic reference M eps^2/4:        {quadratic:.9f}")
print("note: the sharp bound exceeds the quadratic reference at this eps,")
print("so only the sharp bound is ever asserted; the quadratic value is a")
print("diagnostic.")

print()
print("=== random nearly-Parseval frames obey the same bound ===")
for i, eps in enumerate((0.01, 0.1, 0.3)):
    h = near_parseval_frame(eps, 4, 9, seed=i)
    dh = defects(h)
    reduced = canonical_parseval(h)
    dist = frame_distance(h, reduced)
    bound = 4 * (2.0 - dh.parseval_eps - 2.0 * math.sqrt(1.0 - dh.parseval_eps))
    e = dh.max()
    norms = vector_norms_sq(reduced)
    lo = (1.0 - e) ** 2 / (1.0 + e) * 4 / 9
    hi = (1.0 + e) ** 2 / (1.0 - e) * 4 / 9
    print(
        f"eps={eps:4}: distance={dist:.6f} <= bound={bound:.6f}; "
        f"norms in [{norms.min():.4f}, {norms.max():.4f}] within [{lo:.4f}, {hi:.4f}]"
    )
