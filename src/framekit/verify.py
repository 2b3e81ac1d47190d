"""Seeded property suites behind the ``verify`` subcommand.

Each suite replays the package's numerical identities and inequality
contracts over freshly generated random instances and reports the worst
observed slack per property.  A property passes when its worst slack stays
at or below its entry in ``LIMITS``.

One instance's slack comes from a module-level function: a ``*_slack``
function serves one check, a ``*_slacks`` function the checks that share an
instance, and a ``*_violation`` function returns 1 for a wrong answer.  The
acceptance criteria and unit tests call the same functions on their own
instances.
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
    prescribed_norm_defect,
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
from .naimark import complement_defect_bound, naimark_complement, naimark_reduction_check
from .naimark import reduce_to_small
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
    chordal_sq,
    frame_lift,
    principal_angles,
    proj_distance,
    projection_from_frame,
)

__all__ = [
    "PropertyCheck",
    "LIMITS",
    "chordal_half_slack",
    "angle_sum_slack",
    "aligned_basis_slacks",
    "invariance_slacks",
    "parseval_gram_slacks",
    "factor4_slack",
    "lift_slacks",
    "canonical_slacks",
    "chain4_slacks",
    "chain2_slacks",
    "solver_slacks",
    "complement_slacks",
    "complement_route_slack",
    "reduction_violation",
    "identity_spectrum_violation",
    "prescribed_solver_slacks",
    "suite_geometry",
    "suite_equivalence",
    "suite_naimark",
    "suite_admissible",
    "SUITES",
    "run_suite",
]

# The largest slack each check accepts, by suite in report order.  Counts of
# wrong verdicts and oversized reductions allow none.
_SUITE_LIMITS = {
    "geometry": {
        "chordal-equals-half-projection-distance": 1e-8,
        "chordal-equals-angle-sin-squared-sum": 1e-8,
        "aligned-basis-sandwich": 1e-9,
        "aligned-basis-pairing": 1e-9,
        "principal-angle-basis-independence": 1e-9,
        "coordinate-permutation-invariance": 1e-9,
        "parseval-gram-idempotent": 1e-9,
        "parseval-gram-diagonal-norms": 1e-9,
        "gram-image-distance-factor-4": 1e-9,
        "frame-lift-gram-matches-target": 1e-8,
        "frame-lift-distance-factor-2": 1e-8,
        "frame-lift-equal-norm-transfer": 1e-8,
        "canonical-parseval-idempotent": 1e-9,
        "canonical-parseval-distance-bound": 1e-9,
        "canonical-parseval-norm-bounds": 1e-9,
    },
    "equivalence": {
        "frame-to-projection-factor-4": 1e-8,
        "solved-gram-constant-diagonal": 1e-8,
        "projection-to-frame-factor-2": 1e-8,
        "projection-frame-extraction": 1e-9,
        "solver-beats-unconstrained-nearest": 1e-9,
        "solver-unitary-invariant-distance": 1e-8,
        "solver-permutation-equivariant": 1e-8,
    },
    "naimark": {
        "complement-gram-identity": 1e-9,
        "complement-norm-identity": 1e-10,
        "complement-defect-transfer": 1e-9,
        "double-complement-restores-gram": 1e-8,
        "complement-route-factor-8": 1e-8,
        "reduction-always-small": 0.0,
    },
    "admissible": {
        "parseval-admissibility-verdicts": 0.0,
        "spectrum-admissibility-verdicts": 0.0,
        "identity-spectrum-agreement": 0.0,
        "prescribed-norm-solver-hits-targets": 1e-9,
        "prescribed-norm-solver-parseval": 1e-9,
    },
}
LIMITS = {name: limit for limits in _SUITE_LIMITS.values() for name, limit in limits.items()}


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    trials: int
    worst: float
    limit: float
    passed: bool


def _check(name: str, trials: int, worst: float) -> PropertyCheck:
    limit = LIMITS[name]
    return PropertyCheck(name, trials, float(worst), limit, worst <= limit)


def _checks(trials: int, rows: list, *names: str) -> list[PropertyCheck]:
    """One check per name, from the worst slack in its column of ``rows``."""
    worst = [0.0] * len(names)
    for row in rows:
        worst = [max(w, s) for w, s in zip(worst, row)]
    return [_check(name, trials, w) for name, w in zip(names, worst)]


def _perturbed(seed: int, label: str, t: int, m: int, n: int, eps: float) -> Frame:
    base = random_equal_norm_parseval(m, n, derive_seed(seed, label + "b", t))
    return perturb(base, eps, derive_seed(seed, label + "p", t))


# ---------------------------------------------------------------------------
# geometry


def chordal_half_slack(p: Projection, q: Projection) -> float:
    d = proj_distance(p, q)
    return abs(chordal_sq(p, q) - 0.5 * d) / max(1.0, d)


def angle_sum_slack(p: Projection, q: Projection) -> float:
    return abs(chordal_sq(p, q) - principal_angles(p, q).sin_sq_sum())


def aligned_basis_slacks(p: Projection, q: Projection) -> tuple:
    """How far sum_j ||a_j - b_j||^2 over the aligned bases leaves [dc^2, 4 dc^2],
    and how far the bases are from pairing along the principal cosines:
    A^H B = diag(cos) and ||a_j - b_j||^2 = 2 (1 - cos_j)."""
    dc = chordal_sq(p, q)
    ang = principal_angles(p, q)
    pair_sum = ang.pair_distance_sq_sum()
    cos = ang.cosines
    col_dist = np.sum(np.abs(ang.first - ang.second) ** 2, axis=0)
    pairing = max(
        float(np.max(np.abs(ang.first.conj().T @ ang.second - np.diag(cos)))),
        float(np.max(np.abs(col_dist - 2.0 * (1.0 - cos)))),
    )
    return max(dc - pair_sum, pair_sum - 4.0 * dc), pairing


def invariance_slacks(p: Projection, q: Projection, rng: np.random.Generator) -> tuple:
    """The principal cosines from Haar-rotated range bases, and dc^2 and the
    cosines after a random coordinate permutation, against the reference."""
    cos = principal_angles(p, q).cosines
    cos_rot = np.linalg.svd(
        _rotated_range_basis(p, rng).conj().T @ _rotated_range_basis(q, rng), compute_uv=False
    )
    perm = rng.permutation(p.size)
    pp = Projection(p.matrix[np.ix_(perm, perm)])
    qq = Projection(q.matrix[np.ix_(perm, perm)])
    return (
        float(np.max(np.abs(np.sort(cos_rot) - np.sort(cos)))),
        max(
            abs(chordal_sq(pp, qq) - chordal_sq(p, q)),
            float(np.max(np.abs(principal_angles(pp, qq).cosines - cos))),
        ),
    )


def _rotated_range_basis(p: Projection, rng: np.random.Generator) -> np.ndarray:
    basis = np.linalg.svd(p.matrix, full_matrices=False)[0][:, : p.rank]
    return basis @ haar_unitary(p.rank, rng)


def parseval_gram_slacks(f: Frame) -> tuple:
    """A Parseval frame's Gram is idempotent, with the squared norms on its diagonal."""
    gf = gram(f)
    diagonal = float(np.max(np.abs(np.diagonal(gf).real - vector_norms_sq(f))))
    return hs_norm(gf @ gf - gf), diagonal


def factor4_slack(f: Frame, g: Frame) -> float:
    d = frame_distance(f, g)
    return (analysis_image_distance(f, g) - 4.0 * d) / max(1.0, d)


def lift_slacks(f: Frame, q: Projection) -> tuple:
    """The lift G of F onto Q: Gram(G) against Q, d(F, G) over 2 d(Gram F, Q),
    and G's equal-norm defect (bounded only when Q has constant diagonal)."""
    g = frame_lift(f, q)
    return (
        hs_norm(gram(g) - q.matrix),
        frame_distance(f, g) - 2.0 * proj_distance(projection_from_frame(f), q),
        defects(g).equal_norm_eps,
    )


def canonical_slacks(f: Frame) -> tuple:
    """The canonical Parseval frame G of F: idempotence, the sharp distance
    bound M (2 - e - 2 sqrt(1 - e)), and the window for its squared norms."""
    m, n = f.dim, f.n_vectors
    d = defects(f)
    g = canonical_parseval(f)
    ep = d.parseval_eps
    e = d.max()
    lo = (1.0 - e) ** 2 / (1.0 + e) * m / n
    hi = (1.0 + e) ** 2 / (1.0 - e) * m / n
    norms_sq = vector_norms_sq(g)
    return (
        frame_distance(g, canonical_parseval(g)),
        frame_distance(f, g) - m * (2.0 - ep - 2.0 * math.sqrt(1.0 - ep)),
        max(float(np.max(lo - norms_sq)), float(np.max(norms_sq - hi))),
    )


def suite_geometry(seed: int = 0, trials: int = 200) -> list[PropertyCheck]:
    rows = [[] for _ in range(trials)]
    for t, row in enumerate(rows):
        p, q = random_projection_pair(derive_seed(seed, "geo", t))
        rng = np.random.default_rng(derive_seed(seed, "rot", t))
        row += [chordal_half_slack(p, q), angle_sum_slack(p, q), *aligned_basis_slacks(p, q)]
        row += invariance_slacks(p, q, rng)

    rng = np.random.default_rng(derive_seed(seed, "pairs"))
    for t, row in enumerate(rows):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(m, 19))
        delta = float(10.0 ** rng.uniform(-3.5, -0.5))
        f, g = parseval_pair(derive_seed(seed, "pair", t), delta, m, n)
        row += [*parseval_gram_slacks(f), factor4_slack(f, g)]

    rng = np.random.default_rng(derive_seed(seed, "lift"))
    for t, row in enumerate(rows):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(m + 1, 19))
        f = random_parseval(m, n, derive_seed(seed, "liftf", t))
        equal_norm_target = bool(rng.integers(2))
        make_target = random_equal_norm_parseval if equal_norm_target else random_parseval
        q = projection_from_frame(make_target(m, n, derive_seed(seed, "liftq", t)))
        gram_s, dist_s, norm_s = lift_slacks(f, q)
        row += [gram_s, dist_s, norm_s if equal_norm_target else 0.0]

    rng = np.random.default_rng(derive_seed(seed, "canon"))
    for t, row in enumerate(rows):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(m, 19))
        eps = float(rng.choice([0.01, 0.05, 0.1, 0.3]))
        if t % 2 == 0:
            f = near_parseval_frame(eps, m, n, derive_seed(seed, "canonf", t))
        else:
            f = _perturbed(seed, "canon", t, m, n, eps)
        row += canonical_slacks(f)
    return _checks(trials, rows, *_SUITE_LIMITS["geometry"])


# ---------------------------------------------------------------------------
# equivalence


def chain4_slacks(r4) -> tuple:
    """Chain 4's report: its projection distance over 4x its frame distance,
    and the solved Gram's diagonal defect."""
    return r4.bound_slack, r4.solution_diagonal_defect


def chain2_slacks(r2) -> tuple:
    """Chain 2's report: its lift distance over 2x its projection distance,
    and its extraction residual."""
    return r2.bound_slack, r2.extraction_residual


def solver_slacks(f: Frame, cfg: SolverConfig, rng: np.random.Generator) -> tuple:
    """The solve of F is no nearer than the canonical Parseval frame, and its
    distance and solution follow a Haar unitary and a permutation of F.  An
    unconverged solve reads infinite on the first and 0 on the others, and
    draws nothing from ``rng``."""
    inst = nearest_equal_norm_parseval(f, cfg)
    if not inst.converged:
        return math.inf, 0.0, 0.0
    dominance = frame_distance(f, canonical_parseval(f)) - inst.distance
    inst_u = nearest_equal_norm_parseval(Frame(f.vectors @ haar_unitary(f.dim, rng).T), cfg)
    perm = rng.permutation(f.n_vectors)
    inst_p = nearest_equal_norm_parseval(Frame(f.vectors[perm]), cfg)
    return (
        dominance,
        abs(inst_u.distance - inst.distance),
        float(np.max(np.abs(inst_p.solution.vectors - inst.solution.vectors[perm]))),
    )


def suite_equivalence(seed: int = 0, trials: int = 100) -> list[PropertyCheck]:
    cfg = SolverConfig()
    rows = [[] for _ in range(trials)]
    rng = np.random.default_rng(derive_seed(seed, "eq"))
    for t, row in enumerate(rows):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(m, 19))
        eps = float(rng.uniform(0.01, 0.1))
        f = canonical_parseval(_perturbed(seed, "eq", t, m, n, eps))
        inst = nearest_equal_norm_parseval(f, cfg)
        row += chain4_slacks(equivalence_chain_frame_to_projection(inst))
        row += chain2_slacks(equivalence_chain_projection_to_frame(inst))

    rng = np.random.default_rng(derive_seed(seed, "sol"))
    for t, row in enumerate(rows):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(m, 19))
        eps = float(rng.uniform(0.01, 0.1))
        row += solver_slacks(_perturbed(seed, "sol", t, m, n, eps), cfg, rng)
    return _checks(trials, rows, *_SUITE_LIMITS["equivalence"])


# ---------------------------------------------------------------------------
# naimark


def complement_slacks(f: Frame) -> tuple:
    """The complement C of F: Gram(C) + Gram(F) = I, ||c_i||^2 + ||f_i||^2 = 1,
    C's equal-norm defect over :func:`complement_defect_bound` of F's, and
    the double complement's Gram against Gram(F)."""
    m, n = f.dim, f.n_vectors
    comp = naimark_complement(f)
    return (
        hs_norm(gram(comp) + gram(f) - np.eye(n)),
        float(np.max(np.abs(vector_norms_sq(comp) + vector_norms_sq(f) - 1.0))),
        defects(comp).equal_norm_eps - complement_defect_bound(defects(f).equal_norm_eps, m, n),
        hs_norm(gram(naimark_complement(comp)) - gram(f)),
    )


def complement_route_slack(rep) -> float:
    """A Naimark reduction report's lift distance over 8x its complement distance."""
    return rep.bound_slack


def reduction_violation(f: Frame) -> int:
    reduced = reduce_to_small(f)[0]
    return int(reduced.n_vectors > 2 * reduced.dim)


def suite_naimark(seed: int = 0, trials: int = 100) -> list[PropertyCheck]:
    cfg = SolverConfig()
    rows = []
    oversized = 0
    rng = np.random.default_rng(derive_seed(seed, "nk"))
    for t in range(trials):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(m + 1, 19))
        eps = float(rng.uniform(0.01, 0.1))
        f = canonical_parseval(_perturbed(seed, "nk", t, m, n, eps))
        rep = naimark_reduction_check(f, cfg)
        rows.append([*complement_slacks(f), complement_route_slack(rep)])
        oversized += reduction_violation(f)
    *slack_names, reduction = _SUITE_LIMITS["naimark"]
    return _checks(trials, rows, *slack_names) + [_check(reduction, trials, oversized)]


# ---------------------------------------------------------------------------
# admissible


def identity_spectrum_violation(seq: AdmissibleSequence) -> int:
    """1 when the Parseval test and the identity-spectrum test disagree."""
    identity = SpectrumSpec(np.ones(seq.target_dim))
    return int(bool(is_parseval_admissible(seq)) != bool(is_S_admissible(seq, identity)))


def prescribed_solver_slacks(f: Frame, seq: AdmissibleSequence, cfg: SolverConfig) -> tuple:
    """The prescribed-norm solve of F hits its squared-norm targets and is
    Parseval; an unconverged solve reads infinite on the second."""
    inst = nearest_prescribed_norm_parseval(f, seq, cfg)
    if not inst.converged:
        return 0.0, math.inf
    return prescribed_norm_defect(inst.solution, seq), defects(inst.solution).parseval_eps


def suite_admissible(seed: int = 0, trials: int = 1000) -> list[PropertyCheck]:
    parseval_cases = [
        (AdmissibleSequence(np.ones(3), 3), True),
        (AdmissibleSequence(np.full(6, math.sqrt(2.0 / 6.0)), 2), True),
        (AdmissibleSequence([1.2, math.sqrt(0.31), math.sqrt(0.25)], 2), False),
    ]
    spectrum_cases = [
        (AdmissibleSequence([1.0, 1.0, 1.0], 2), SpectrumSpec([2.0, 1.0]), True),
        (AdmissibleSequence([math.sqrt(2.5), 0.5, 0.5], 2), SpectrumSpec([2.0, 1.0]), False),
        (AdmissibleSequence(np.full(5, math.sqrt(3.0 / 5.0)), 3), SpectrumSpec(np.ones(3)), True),
    ]
    wrong = sum(
        1 for seq, expect in parseval_cases if bool(is_parseval_admissible(seq)) != expect
    )
    checks = [_check("parseval-admissibility-verdicts", len(parseval_cases), wrong)]
    wrong = sum(
        1 for seq, spec, expect in spectrum_cases if bool(is_S_admissible(seq, spec)) != expect
    )
    checks.append(_check("spectrum-admissibility-verdicts", len(spectrum_cases), wrong))

    rng = np.random.default_rng(derive_seed(seed, "adm"))
    disagreements = 0
    for _ in range(trials):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(m, 25))
        a = rng.uniform(0.05, 1.3, size=n)
        if rng.integers(2):
            a *= math.sqrt(m / np.sum(a**2))
        disagreements += identity_spectrum_violation(AdmissibleSequence(a, m))
    checks.append(_check("identity-spectrum-agreement", trials, disagreements))

    cfg = SolverConfig()
    rows = []
    rng = np.random.default_rng(derive_seed(seed, "admsol"))
    n_solver = min(50, max(1, trials // 20))
    for t in range(n_solver):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(m + 1, 19))
        seq = feasible_norm_targets(m, n, rng)
        rows.append(prescribed_solver_slacks(_perturbed(seed, "adm", t, m, n, 0.05), seq, cfg))
    return checks + _checks(
        n_solver, rows, "prescribed-norm-solver-hits-targets", "prescribed-norm-solver-parseval"
    )


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
    if trials < 1:
        # no trials would check nothing, and every check would pass
        raise ValueError(f"trials must be at least 1, got {trials}")
    return SUITES[name](seed=seed, trials=trials)
