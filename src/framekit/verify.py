"""Seeded property suites behind the ``verify`` subcommand.

Each suite replays the package's numerical identities and inequality
contracts over freshly generated random instances and reports the worst
observed slack per property.  A property passes when its worst slack stays
at or below the stated limit.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._seeding import derive_seed
from .admissibility import (
    AdmissibleSequence,
    SpectrumSpec,
    feasible_norm_targets,
    is_parseval_admissible,
    is_S_admissible,
    nearest_prescribed_norm_parseval,
)
from .frames import (
    Frame,
    analysis_image_distance,
    canonical_parseval,
    defects,
    frame_distance,
    gram,
    vector_norms_sq,
)
from .linalg import hs_norm
from .naimark import naimark_complement, naimark_reduction_check, reduce_to_small
from .paulsen import (
    SolverConfig,
    equivalence_chain_frame_to_projection,
    equivalence_chain_projection_to_frame,
    haar_unitary,
    near_parseval_frame,
    nearest_equal_norm_parseval,
    parseval_pair,
    perturb,
    random_equal_norm_parseval,
    random_parseval,
    random_projection_pair,
)
from .subspaces import (
    Projection,
    aligned_bases,
    chordal_sq,
    frame_lift,
    principal_angles,
    proj_distance,
    projection_from_frame,
)

__all__ = [
    "PropertyCheck",
    "suite_geometry",
    "suite_equivalence",
    "suite_naimark",
    "suite_admissible",
    "SUITES",
    "run_suite",
]


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    trials: int
    worst: float
    limit: float
    passed: bool


def _check(name: str, trials: int, worst: float, limit: float) -> PropertyCheck:
    return PropertyCheck(name, trials, float(worst), limit, worst <= limit)


# ---------------------------------------------------------------------------
# geometry


def suite_geometry(seed: int = 0, trials: int = 200) -> list[PropertyCheck]:
    checks = []

    worst_half = worst_trace = worst_sandwich = worst_pairing = 0.0
    worst_basis = worst_perm = 0.0
    for t in range(trials):
        p, q = random_projection_pair(derive_seed(seed, "geo", t))
        d = proj_distance(p, q)
        dc = chordal_sq(p, q)
        ang = principal_angles(p, q)
        worst_half = max(worst_half, abs(dc - 0.5 * d) / max(1.0, d))
        worst_trace = max(worst_trace, abs(dc - ang.sin_sq_sum()))
        ab = aligned_bases(p, q)
        pair_sum = ab.pair_distance_sq_sum()
        worst_sandwich = max(worst_sandwich, dc - pair_sum, pair_sum - 4.0 * dc)
        cross = ab.first.conj().T @ ab.second
        worst_pairing = max(
            worst_pairing,
            float(np.max(np.abs(cross - np.diag(ang.cosines)))),
            float(
                np.max(
                    np.abs(
                        np.sum(np.abs(ab.first - ab.second) ** 2, axis=0)
                        - 2.0 * (1.0 - ang.cosines)
                    )
                )
            ),
        )
        rng = np.random.default_rng(derive_seed(seed, "rot", t))
        cos_rot = np.linalg.svd(
            _rotated_range_basis(p, rng).conj().T @ _rotated_range_basis(q, rng),
            compute_uv=False,
        )
        worst_basis = max(
            worst_basis, float(np.max(np.abs(np.sort(cos_rot) - np.sort(ang.cosines))))
        )
        perm = rng.permutation(p.size)
        pp = Projection(p.matrix[np.ix_(perm, perm)])
        qq = Projection(q.matrix[np.ix_(perm, perm)])
        worst_perm = max(
            worst_perm,
            abs(chordal_sq(pp, qq) - dc),
            float(np.max(np.abs(principal_angles(pp, qq).cosines - ang.cosines))),
        )
    checks.append(_check("chordal-equals-half-projection-distance", trials, worst_half, 1e-8))
    checks.append(_check("chordal-equals-angle-sin-squared-sum", trials, worst_trace, 1e-8))
    checks.append(_check("aligned-basis-sandwich", trials, worst_sandwich, 1e-9))
    checks.append(_check("aligned-basis-pairing", trials, worst_pairing, 1e-9))
    checks.append(_check("principal-angle-basis-independence", trials, worst_basis, 1e-9))
    checks.append(_check("coordinate-permutation-invariance", trials, worst_perm, 1e-9))

    worst_idem = worst_diag = worst_factor4 = 0.0
    rng = np.random.default_rng(derive_seed(seed, "pairs"))
    for t in range(trials):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(m, 19))
        delta = float(10.0 ** rng.uniform(-3.5, -0.5))
        f, g = parseval_pair(derive_seed(seed, "pair", t), delta, m, n)
        gf = gram(f)
        worst_idem = max(worst_idem, hs_norm(gf @ gf - gf))
        worst_diag = max(
            worst_diag,
            float(np.max(np.abs(np.diagonal(gf).real - vector_norms_sq(f)))),
        )
        d = frame_distance(f, g)
        worst_factor4 = max(
            worst_factor4, (analysis_image_distance(f, g) - 4.0 * d) / max(1.0, d)
        )
    checks.append(_check("parseval-gram-idempotent", trials, worst_idem, 1e-9))
    checks.append(_check("parseval-gram-diagonal-norms", trials, worst_diag, 1e-9))
    checks.append(_check("gram-image-distance-factor-4", trials, worst_factor4, 1e-9))

    worst_lift_gram = worst_lift_dist = worst_lift_norm = 0.0
    rng = np.random.default_rng(derive_seed(seed, "lift"))
    for t in range(trials):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(m + 1, 19))
        f = random_parseval(m, n, derive_seed(seed, "liftf", t))
        equal_norm_target = bool(rng.integers(2))
        if equal_norm_target:
            q = projection_from_frame(
                random_equal_norm_parseval(m, n, derive_seed(seed, "liftq", t))
            )
        else:
            q = projection_from_frame(random_parseval(m, n, derive_seed(seed, "liftq", t)))
        g = frame_lift(f, q)
        worst_lift_gram = max(worst_lift_gram, hs_norm(gram(g) - q.matrix))
        worst_lift_dist = max(
            worst_lift_dist,
            frame_distance(f, g) - 2.0 * proj_distance(projection_from_frame(f), q),
        )
        if equal_norm_target:
            worst_lift_norm = max(worst_lift_norm, defects(g).equal_norm_eps)
    checks.append(_check("frame-lift-gram-matches-target", trials, worst_lift_gram, 1e-8))
    checks.append(_check("frame-lift-distance-factor-2", trials, worst_lift_dist, 1e-8))
    checks.append(_check("frame-lift-equal-norm-transfer", trials, worst_lift_norm, 1e-8))

    worst_idem2 = worst_near = worst_norm_bounds = 0.0
    rng = np.random.default_rng(derive_seed(seed, "canon"))
    for t in range(trials):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(m, 19))
        eps = float(rng.choice([0.01, 0.05, 0.1, 0.3]))
        if t % 2 == 0:
            f = near_parseval_frame(eps, m, n, derive_seed(seed, "canonf", t))
        else:
            f = perturb(
                random_equal_norm_parseval(m, n, derive_seed(seed, "canonb", t)),
                eps,
                derive_seed(seed, "canonp", t),
            )
        d = defects(f)
        g = canonical_parseval(f)
        worst_idem2 = max(worst_idem2, frame_distance(g, canonical_parseval(g)))
        ep = d.parseval_eps
        worst_near = max(
            worst_near, frame_distance(f, g) - m * (2.0 - ep - 2.0 * math.sqrt(1.0 - ep))
        )
        e = d.max()
        lo = (1.0 - e) ** 2 / (1.0 + e) * m / n
        hi = (1.0 + e) ** 2 / (1.0 - e) * m / n
        norms_sq = vector_norms_sq(g)
        worst_norm_bounds = max(
            worst_norm_bounds, float(np.max(lo - norms_sq)), float(np.max(norms_sq - hi))
        )
    checks.append(_check("canonical-parseval-idempotent", trials, worst_idem2, 1e-9))
    checks.append(_check("canonical-parseval-distance-bound", trials, worst_near, 1e-9))
    checks.append(_check("canonical-parseval-norm-bounds", trials, worst_norm_bounds, 1e-9))
    return checks


def _rotated_range_basis(p: Projection, rng: np.random.Generator) -> np.ndarray:
    basis = np.linalg.svd(p.matrix, full_matrices=False)[0][:, : p.rank]
    return basis @ haar_unitary(p.rank, rng)


# ---------------------------------------------------------------------------
# equivalence


def suite_equivalence(seed: int = 0, trials: int = 100) -> list[PropertyCheck]:
    checks = []
    cfg = SolverConfig()
    worst4 = worst_diag = worst2 = worst_extract = 0.0
    rng = np.random.default_rng(derive_seed(seed, "eq"))
    for t in range(trials):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(m, 19))
        eps = float(rng.uniform(0.01, 0.1))
        f = canonical_parseval(
            perturb(
                random_equal_norm_parseval(m, n, derive_seed(seed, "eqb", t)),
                eps,
                derive_seed(seed, "eqp", t),
            )
        )
        inst = nearest_equal_norm_parseval(f, cfg)
        r4 = equivalence_chain_frame_to_projection(inst)
        worst4 = max(worst4, r4.projection_distance - 4.0 * r4.paulsen_distance)
        worst_diag = max(worst_diag, r4.solution_diagonal_defect)
        r2 = equivalence_chain_projection_to_frame(inst)
        worst2 = max(worst2, r2.lift_distance - 2.0 * r2.projection_distance)
        worst_extract = max(worst_extract, r2.extraction_residual)
    checks.append(_check("frame-to-projection-factor-4", trials, worst4, 1e-8))
    checks.append(_check("solved-gram-constant-diagonal", trials, worst_diag, 1e-8))
    checks.append(_check("projection-to-frame-factor-2", trials, worst2, 1e-8))
    checks.append(_check("projection-frame-extraction", trials, worst_extract, 1e-9))

    worst_dom = worst_unitary = worst_perm = 0.0
    rng = np.random.default_rng(derive_seed(seed, "sol"))
    for t in range(trials):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(m, 19))
        eps = float(rng.uniform(0.01, 0.1))
        f = perturb(
            random_equal_norm_parseval(m, n, derive_seed(seed, "solb", t)),
            eps,
            derive_seed(seed, "solp", t),
        )
        inst = nearest_equal_norm_parseval(f, cfg)
        if not inst.converged:
            worst_dom = math.inf
            continue
        worst_dom = max(worst_dom, frame_distance(f, canonical_parseval(f)) - inst.distance)
        u = haar_unitary(m, rng)
        inst_u = nearest_equal_norm_parseval(Frame(f.vectors @ u.T), cfg)
        worst_unitary = max(worst_unitary, abs(inst_u.distance - inst.distance))
        perm = rng.permutation(n)
        inst_p = nearest_equal_norm_parseval(Frame(f.vectors[perm]), cfg)
        worst_perm = max(
            worst_perm,
            float(np.max(np.abs(inst_p.solution.vectors - inst.solution.vectors[perm]))),
        )
    checks.append(_check("solver-beats-unconstrained-nearest", trials, worst_dom, 1e-9))
    checks.append(_check("solver-unitary-invariant-distance", trials, worst_unitary, 1e-8))
    checks.append(_check("solver-permutation-equivariant", trials, worst_perm, 1e-8))
    return checks


# ---------------------------------------------------------------------------
# naimark


def suite_naimark(seed: int = 0, trials: int = 100) -> list[PropertyCheck]:
    checks = []
    cfg = SolverConfig()
    worst_gram = worst_norm = worst_transfer = worst_double = worst8 = 0.0
    bad_reductions = 0
    rng = np.random.default_rng(derive_seed(seed, "nk"))
    for t in range(trials):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(m + 1, 19))
        eps = float(rng.uniform(0.01, 0.1))
        f = canonical_parseval(
            perturb(
                random_equal_norm_parseval(m, n, derive_seed(seed, "nkb", t)),
                eps,
                derive_seed(seed, "nkp", t),
            )
        )
        comp = naimark_complement(f)
        worst_gram = max(worst_gram, hs_norm(gram(comp) + gram(f) - np.eye(n)))
        worst_norm = max(
            worst_norm,
            float(np.max(np.abs(vector_norms_sq(comp) + vector_norms_sq(f) - 1.0))),
        )
        d = defects(f)
        worst_transfer = max(
            worst_transfer, defects(comp).equal_norm_eps - d.equal_norm_eps * m / (n - m)
        )
        worst_double = max(worst_double, hs_norm(gram(naimark_complement(comp)) - gram(f)))
        rep = naimark_reduction_check(f, cfg)
        worst8 = max(worst8, rep.lift_distance - 8.0 * rep.complement_distance)
        reduced, _flag = reduce_to_small(f)
        if reduced.n_vectors > 2 * reduced.dim:
            bad_reductions += 1
    checks.append(_check("complement-gram-identity", trials, worst_gram, 1e-9))
    checks.append(_check("complement-norm-identity", trials, worst_norm, 1e-10))
    checks.append(_check("complement-defect-transfer", trials, worst_transfer, 1e-9))
    checks.append(_check("double-complement-restores-gram", trials, worst_double, 1e-8))
    checks.append(_check("complement-route-factor-8", trials, worst8, 1e-8))
    checks.append(_check("reduction-always-small", trials, bad_reductions, 0.0))
    return checks


# ---------------------------------------------------------------------------
# admissible


def suite_admissible(seed: int = 0, trials: int = 1000) -> list[PropertyCheck]:
    checks = []

    parseval_cases = [
        (AdmissibleSequence(np.ones(3), 3), True),
        (AdmissibleSequence(np.full(6, math.sqrt(2.0 / 6.0)), 2), True),
        (AdmissibleSequence([1.2, math.sqrt(0.31), math.sqrt(0.25)], 2), False),
    ]
    wrong = sum(
        1 for seq, expect in parseval_cases if bool(is_parseval_admissible(seq)) != expect
    )
    checks.append(_check("parseval-admissibility-verdicts", len(parseval_cases), wrong, 0.0))

    spectrum_cases = [
        (AdmissibleSequence([1.0, 1.0, 1.0], 2), SpectrumSpec([2.0, 1.0]), True),
        (AdmissibleSequence([math.sqrt(2.5), 0.5, 0.5], 2), SpectrumSpec([2.0, 1.0]), False),
        (AdmissibleSequence(np.full(5, math.sqrt(3.0 / 5.0)), 3), SpectrumSpec(np.ones(3)), True),
    ]
    wrong = sum(
        1 for seq, spec, expect in spectrum_cases if bool(is_S_admissible(seq, spec)) != expect
    )
    checks.append(_check("spectrum-admissibility-verdicts", len(spectrum_cases), wrong, 0.0))

    rng = np.random.default_rng(derive_seed(seed, "adm"))
    disagreements = 0
    for _ in range(trials):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(m, 25))
        a = rng.uniform(0.05, 1.3, size=n)
        if rng.integers(2):
            a *= math.sqrt(m / np.sum(a**2))
        seq = AdmissibleSequence(a, m)
        if bool(is_parseval_admissible(seq)) != bool(
            is_S_admissible(seq, SpectrumSpec(np.ones(m)))
        ):
            disagreements += 1
    checks.append(_check("identity-spectrum-agreement", trials, disagreements, 0.0))

    cfg = SolverConfig()
    worst_norms = worst_parseval = 0.0
    rng = np.random.default_rng(derive_seed(seed, "admsol"))
    n_solver = min(50, max(1, trials // 20))
    for t in range(n_solver):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(m + 1, 19))
        seq = feasible_norm_targets(m, n, rng)
        f = perturb(
            random_equal_norm_parseval(m, n, derive_seed(seed, "admb", t)),
            0.05,
            derive_seed(seed, "admp", t),
        )
        inst = nearest_prescribed_norm_parseval(f, seq, cfg)
        if not inst.converged:
            worst_parseval = math.inf
            continue
        worst_norms = max(
            worst_norms,
            float(np.max(np.abs(vector_norms_sq(inst.solution) / seq.original**2 - 1.0))),
        )
        worst_parseval = max(worst_parseval, defects(inst.solution).parseval_eps)
    checks.append(_check("prescribed-norm-solver-hits-targets", n_solver, worst_norms, 1e-9))
    checks.append(_check("prescribed-norm-solver-parseval", n_solver, worst_parseval, 1e-9))
    return checks


SUITES = {
    "geometry": suite_geometry,
    "equivalence": suite_equivalence,
    "naimark": suite_naimark,
    "admissible": suite_admissible,
}


def run_suite(name: str, seed: int = 0, trials: int | None = None) -> list[PropertyCheck]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if trials is None:
        return SUITES[name](seed=seed)
    return SUITES[name](seed=seed, trials=trials)
