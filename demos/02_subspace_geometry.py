"""Projections, principal angles, chordal distance, and the frame lift.

The squared chordal distance between two rank-M ranges equals half the
summed squared distance between the projections' columns, and the
principal vectors, orthonormal bases of the two ranges paired along the
principal angles, realize that distance up to a factor in [1, 4].  The
frame lift carries a Parseval frame onto any prescribed Gram projection
while moving it by at most twice the projection distance.
"""

import numpy as np

from framekit import (
    Projection,
    chordal_sq,
    defects,
    frame_distance,
    frame_lift,
    gram,
    hs_norm,
    principal_angles,
    proj_distance,
    projection_from_frame,
    random_equal_norm_parseval,
    random_parseval,
)

print("=== coordinate ranges in C^4: span{e1,e2} vs span{e1,e3} ===")
p = Projection(np.diag([1.0, 1.0, 0.0, 0.0]))
q = Projection(np.diag([1.0, 0.0, 1.0, 0.0]))
ang = principal_angles(p, q)
print(f"projection distance d(P,Q) = {proj_distance(p, q):.6f}  (expected 2)")
print(f"chordal^2 = {chordal_sq(p, q):.6f}  (expected 1 = d/2)")
print(f"cosines = {ang.cosines}, angles = {ang.angles}")
s = ang.pair_distance_sq_sum()
print(f"principal-vector sum ||a_j - b_j||^2 = {s:.6f}, inside [dc^2, 4 dc^2] = [1, 4]")

print()
print("=== the identities hold for random pairs ===")
pf = random_parseval(3, 10, 1)
qf = random_parseval(3, 10, 2)
p, q = projection_from_frame(pf), projection_from_frame(qf)
d = proj_distance(p, q)
dc = chordal_sq(p, q)
print(f"d(P,Q) = {d:.6f}, chordal^2 = {dc:.6f}, |dc^2 - d/2| = {abs(dc - d / 2):.2e}")
ang = principal_angles(p, q)
print(f"sum sin^2(theta) = {ang.sin_sq_sum():.6f}")
s = ang.pair_distance_sq_sum()
print(f"principal-vector sum = {s:.6f}, sandwich [{dc:.6f}, {4 * dc:.6f}]")

print()
print("=== lifting a Parseval frame onto a prescribed Gram projection ===")
f = random_parseval(2, 6, 7)
target = random_equal_norm_parseval(2, 6, 8)  # equal-norm, so constant diagonal
q = projection_from_frame(target)
g = frame_lift(f, q)
print(f"Gram(G) vs target Q residual: {hs_norm(gram(g) - q.matrix):.2e}")
print(f"d(F,G) = {frame_distance(f, g):.6f}")
print(f"2 d(P,Q) = {2 * proj_distance(projection_from_frame(f), q):.6f}")
dg = defects(g)
print(f"lifted frame defects: parseval={dg.parseval_eps:.2e} equal_norm={dg.equal_norm_eps:.2e}")
print("constant-diagonal targets always lift to equal-norm frames.")
