"""The equal-norm Parseval nearness solver and the two equivalence chains.

Perturbed instances are solved by Newton's method on Barthe's potential
over the vectors' log-weights.  Each solved frame instance induces a projection
instance at no more than four times the distance, and each projection
instance lifts back to a frame instance at no more than twice the
distance, which is what makes the two problems interchangeable up to
constants.
"""

from framekit import (
    canonical_parseval,
    defects,
    equivalence_chain_frame_to_projection,
    equivalence_chain_projection_to_frame,
    harmonic_frame,
    nearest_equal_norm_parseval,
    perturb,
)

print("=== one instance, start to finish ===")
base = harmonic_frame(3, 7)
f = perturb(base, 0.08, seed=42)
d = defects(f)
print(f"input defects: parseval={d.parseval_eps:.5f} equal_norm={d.equal_norm_eps:.5f}")
inst = nearest_equal_norm_parseval(f)
print(f"converged={inst.converged} after {inst.iterations} iterations")
ds = defects(inst.solution)
print(f"solution defects: parseval={ds.parseval_eps:.2e} equal_norm={ds.equal_norm_eps:.2e}")
print(f"distance moved: {inst.distance:.6f}")
print(f"16 eps M reference: {inst.bound_16eM:.4f}  (ratio {inst.distance / inst.bound_16eM:.5f})")

print()
print("=== distance scaling as the perturbation shrinks ===")
print(f"{'eps':>8} {'distance':>12} {'iterations':>10} {'d/(eps M)':>10}")
for eps in (0.1, 0.05, 0.02, 0.01, 0.005):
    g = perturb(base, eps, seed=7)
    r = nearest_equal_norm_parseval(g)
    print(f"{eps:8.3f} {r.distance:12.3e} {r.iterations:10d} {r.distance / (r.eps * 3):10.5f}")
print("(how the worst case scales with eps, M, N is open; this is scatter,")
print(" not an assertion)")

print()
print("=== frame instance -> projection instance, factor 4 ===")
fp = canonical_parseval(f)
inst_p = nearest_equal_norm_parseval(fp)
rep4 = equivalence_chain_frame_to_projection(inst_p)
print(f"frame distance:      {rep4.paulsen_distance:.6e}")
print(f"projection distance: {rep4.projection_distance:.6e}")
print(f"ratio: {rep4.ratio:.4f} (bound 4), within_bound={rep4.within_bound}")

print()
print("=== projection instance -> frame instance, factor 2 ===")
rep2 = equivalence_chain_projection_to_frame(inst_p)
print(f"projection distance: {rep2.projection_distance:.6e}")
print(f"lifted frame distance: {rep2.lift_distance:.6e}")
print(f"ratio: {rep2.ratio:.4f} (bound 2), within_bound={rep2.within_bound}")
