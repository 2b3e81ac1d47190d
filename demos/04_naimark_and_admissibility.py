"""Naimark complements, the small-instance reduction, and norm feasibility.

A Parseval frame of N vectors in dimension M has a complement of N vectors
in dimension N - M with complementary Gram and norms.  Solving the
equal-norm problem on the complement and lifting back costs at most a
factor 8, so instances can always be reduced to N <= 2 * dimension.  The
admissibility tests decide which norm sequences are realizable at all.
"""

import math

import numpy as np

from framekit import (
    AdmissibleSequence,
    SpectrumSpec,
    canonical_parseval,
    complement_defect_bound,
    defects,
    gram,
    harmonic_frame,
    hs_norm,
    is_parseval_admissible,
    is_S_admissible,
    naimark_complement,
    naimark_reduction_check,
    nearest_prescribed_norm_parseval,
    perturb,
    reduce_to_small,
    vector_norms_sq,
)

print("=== complement of the 3-vector frame for C^2 ===")
f = harmonic_frame(2, 3)
comp = naimark_complement(f)
print(f"complement: {comp.n_vectors} vectors in dimension {comp.dim}")
print(f"norms^2: {vector_norms_sq(comp)}  (1 - 2/3 each)")
resid = hs_norm(gram(comp) + gram(f) - np.eye(3))
print(f"Gram(F) + Gram(complement) = I residual: {resid:.2e}")

print()
print("=== equal-norm defect transfers as eps * M/(N-M) ===")
g = canonical_parseval(perturb(harmonic_frame(2, 6), 0.08, seed=5))
eps = defects(g).equal_norm_eps
comp_eps = defects(naimark_complement(g)).equal_norm_eps
print(f"frame defect {eps:.5f} -> complement defect {comp_eps:.5f} "
      f"(bound {complement_defect_bound(eps, 2, 6):.5f})")

print()
print("=== solving through the complement costs at most a factor 8 ===")
rep = naimark_reduction_check(g)
print(f"complement solve distance: {rep.complement_distance:.6e}")
print(f"lifted solution distance:  {rep.lift_distance:.6e}")
print(f"ratio {rep.ratio:.4f} (bound 8), within_bound={rep.within_bound}")

print()
print("=== reduction to small instances ===")
for m, n in [(3, 5), (3, 6), (2, 7)]:
    reduced, flag = reduce_to_small(harmonic_frame(m, n))
    print(f"M={m} N={n}: {flag:12s} -> {reduced.n_vectors} vectors in dim {reduced.dim} "
          f"(N <= 2M: {reduced.n_vectors <= 2 * reduced.dim})")

print()
print("=== which norm sequences are realizable? ===")
cases = [
    ("unit norms, square case", AdmissibleSequence(np.ones(3), 3), None),
    ("uniform sqrt(M/N)", AdmissibleSequence(np.full(5, math.sqrt(2 / 5)), 2), None),
    ("one norm above 1", AdmissibleSequence([1.2, math.sqrt(0.31), 0.5], 2), None),
    (
        "majorized by spectrum (2,1)",
        AdmissibleSequence([1.0, 1.0, 1.0], 2),
        SpectrumSpec([2.0, 1.0]),
    ),
    (
        "leading square 2.5 > 2",
        AdmissibleSequence([math.sqrt(2.5), 0.5, 0.5], 2),
        SpectrumSpec([2.0, 1.0]),
    ),
]
for label, seq, spec in cases:
    verdict = is_parseval_admissible(seq) if spec is None else is_S_admissible(seq, spec)
    out = "admissible" if verdict else f"not admissible ({verdict.violated})"
    print(f"{label:30s}: {out}")

print()
print("=== solving toward prescribed (non-uniform) norms ===")
targets = AdmissibleSequence([0.8, 0.7, 0.6, math.sqrt(2 - 0.64 - 0.49 - 0.36)], 2)
assert is_parseval_admissible(targets)
f = perturb(harmonic_frame(2, 4), 0.05, seed=9)
inst = nearest_prescribed_norm_parseval(f, targets)
print(f"converged={inst.converged} in {inst.iterations} iterations, distance {inst.distance:.5f}")
print(f"solution norms^2: {vector_norms_sq(inst.solution)}")
print(f"targets^2:        {targets.original**2}")
