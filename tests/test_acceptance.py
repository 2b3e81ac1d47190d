"""Acceptance suite: every exit criterion at its stated trial count and
tolerance, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import within
from framekit import (
    SolverConfig,
    canonical_parseval,
    defects,
    derive_seed,
    equivalence_chain_frame_to_projection,
    equivalence_chain_projection_to_frame,
    frame_distance,
    is_parseval_admissible,
    is_S_admissible,
    naimark_reduction_check,
    near_parseval_frame,
    nearest_equal_norm_parseval,
    parseval_pair,
    perturb,
    projection_from_frame,
    random_equal_norm_parseval,
    random_parseval,
    random_projection_pair,
    AdmissibleSequence,
    SpectrumSpec,
)
from framekit.serialize import dump_json
from framekit.verify import (
    aligned_basis_slacks,
    angle_sum_slack,
    canonical_slacks,
    chain2_slacks,
    chain4_slacks,
    chordal_half_slack,
    complement_route_slack,
    complement_slacks,
    factor4_slack,
    identity_spectrum_violation,
    lift_slacks,
    reduction_violation,
)

SEED = 20260401


def report(line):
    print(f"\n{line}")


@pytest.fixture(scope="module")
def projection_pairs_200():
    return [random_projection_pair(derive_seed(SEED, "pairs", t)) for t in range(200)]


def test_criterion_01_chordal_is_half_projection_distance():
    start = time.monotonic()
    worst = 0.0
    for t in range(200):
        p, q = random_projection_pair(derive_seed(SEED, "pairs", t))
        worst = max(worst, chordal_half_slack(p, q))
    elapsed = time.monotonic() - start
    within("chordal-equals-half-projection-distance", worst)
    assert elapsed <= 10.0
    report(
        f"[PASS] criterion 1: chordal^2 = d/2 on 200 pairs, "
        f"worst residual {worst:.3e} (limit 1e-8), {elapsed:.2f}s"
    )


def test_criterion_02_trace_formula_matches_angle_sum(projection_pairs_200):
    worst = 0.0
    for p, q in projection_pairs_200:
        worst = max(worst, angle_sum_slack(p, q))
    within("chordal-equals-angle-sin-squared-sum", worst)
    report(f"[PASS] criterion 2: rank - Tr PQ = sum sin^2 on 200 pairs, worst {worst:.3e}")


def test_criterion_03_aligned_basis_sandwich():
    worst = 0.0
    for t in range(500):
        p, q = random_projection_pair(derive_seed(SEED, "sandwich", t))
        worst = max(worst, aligned_basis_slacks(p, q)[0])
    within("aligned-basis-sandwich", worst)
    report(f"[PASS] criterion 3: dc^2 <= sum||a-b||^2 <= 4 dc^2 on 500 pairs, worst {worst:.3e}")


def test_criterion_04_gram_image_distance_factor_4():
    rng = np.random.default_rng(derive_seed(SEED, "factor4"))
    worst = 0.0
    for t in range(200):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(m, 19))
        target = float(10.0 ** rng.uniform(math.log10(4e-4), math.log10(0.25)))
        f, g = parseval_pair(derive_seed(SEED, "factor4", t), target, m, n)
        assert 1e-4 <= frame_distance(f, g) <= 1.0
        worst = max(worst, factor4_slack(f, g))
    within("gram-image-distance-factor-4", worst)
    report(f"[PASS] criterion 4: Gram-image distance <= 4 delta on 200 pairs, worst {worst:.3e}")


def test_criterion_05_frame_lift_construction():
    rng = np.random.default_rng(derive_seed(SEED, "lift"))
    worst_gram = worst_dist = worst_norm = 0.0
    equal_norm_cases = 0
    for t in range(200):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(m + 1, 19))
        f = random_parseval(m, n, derive_seed(SEED, "liftf", t))
        use_equal_norm = t % 2 == 0
        if use_equal_norm:
            target = random_equal_norm_parseval(m, n, derive_seed(SEED, "liftq", t))
            equal_norm_cases += 1
        else:
            target = random_parseval(m, n, derive_seed(SEED, "liftq", t))
        gram_slack, dist_slack, norm_slack = lift_slacks(f, projection_from_frame(target))
        worst_gram = max(worst_gram, gram_slack)
        worst_dist = max(worst_dist, dist_slack)
        if use_equal_norm:
            worst_norm = max(worst_norm, norm_slack)
    within("frame-lift-gram-matches-target", worst_gram)
    within("frame-lift-distance-factor-2", worst_dist)
    within("frame-lift-equal-norm-transfer", worst_norm)
    report(
        f"[PASS] criterion 5: lift on 200 cases ({equal_norm_cases} equal-norm targets): "
        f"gram {worst_gram:.3e}, dist slack {worst_dist:.3e}, norm defect {worst_norm:.3e}"
    )


def test_criterion_06_canonical_reduction_bounds():
    worst_dist = worst_norm = 0.0
    cases = 0
    for eps in (0.01, 0.05, 0.1, 0.3):
        for t in range(25):
            rng = np.random.default_rng(derive_seed(SEED, "canon", eps, t))
            m = int(rng.integers(1, 7))
            n = int(rng.integers(m, 19))
            if t % 2 == 0:
                # frame-operator spectrum attains both ends of [1-eps, 1+eps]
                f = near_parseval_frame(eps, m, n, derive_seed(SEED, "canonf", eps, t))
            else:
                # generic perturbed instance; canonical output norms vary
                f = perturb(
                    random_equal_norm_parseval(m, n, derive_seed(SEED, "canonb", eps, t)),
                    eps,
                    derive_seed(SEED, "canonp", eps, t),
                )
            assert defects(f).parseval_eps <= eps + 1e-12
            _, dist_slack, norm_slack = canonical_slacks(f)
            worst_dist = max(worst_dist, dist_slack)
            worst_norm = max(worst_norm, norm_slack)
            cases += 1
    assert cases == 100
    within("canonical-parseval-distance-bound", worst_dist)
    within("canonical-parseval-norm-bounds", worst_norm)
    report(
        f"[PASS] criterion 6: canonical reduction on 100 frames (both generators): "
        f"distance slack {worst_dist:.3e}, norm-bound slack {worst_norm:.3e}"
    )


def test_criterion_07_equivalence_chains():
    cfg = SolverConfig()
    worst4 = worst2 = 0.0
    for t in range(200):
        rng = np.random.default_rng(derive_seed(SEED, "chain", t))
        m = int(rng.integers(1, 7))
        n = int(rng.integers(m, 19))
        eps = float(rng.uniform(0.005, 0.1))
        f = canonical_parseval(
            perturb(
                random_equal_norm_parseval(m, n, derive_seed(SEED, "chainb", t)),
                eps,
                derive_seed(SEED, "chainp", t),
            )
        )
        inst = nearest_equal_norm_parseval(f, cfg)
        r4 = equivalence_chain_frame_to_projection(inst)
        assert r4.within_bound
        worst4 = max(worst4, chain4_slacks(r4)[0])
        r2 = equivalence_chain_projection_to_frame(inst)
        assert r2.within_bound
        worst2 = max(worst2, chain2_slacks(r2)[0])
    within("frame-to-projection-factor-4", worst4)
    within("projection-to-frame-factor-2", worst2)
    report(
        f"[PASS] criterion 7: 200+200 chain instances: factor-4 slack {worst4:.3e}, "
        f"factor-2 slack {worst2:.3e}"
    )


def test_criterion_08_complement_identities_and_factor_8():
    cfg = SolverConfig()
    worst_gram = worst_transfer = worst8 = 0.0
    branch_ok = True
    for t in range(100):
        rng = np.random.default_rng(derive_seed(SEED, "naimark", t))
        m = int(rng.integers(1, 7))
        n = int(rng.integers(m + 1, 19))
        eps = float(rng.uniform(0.005, 0.1))
        f = canonical_parseval(
            perturb(
                random_equal_norm_parseval(m, n, derive_seed(SEED, "nkb", t)),
                eps,
                derive_seed(SEED, "nkp", t),
            )
        )
        gram_slack, _, transfer_slack, _ = complement_slacks(f)
        worst_gram = max(worst_gram, gram_slack)
        worst_transfer = max(worst_transfer, transfer_slack)
        worst8 = max(worst8, complement_route_slack(naimark_reduction_check(f, cfg)))
        branch_ok = branch_ok and not reduction_violation(f)
    within("complement-gram-identity", worst_gram)
    within("complement-defect-transfer", worst_transfer)
    within("complement-route-factor-8", worst8)
    assert branch_ok
    report(
        f"[PASS] criterion 8: 100 complement instances: gram identity {worst_gram:.3e}, "
        f"defect transfer slack {worst_transfer:.3e}, factor-8 slack {worst8:.3e}, "
        f"reduction branch always small"
    )


def test_criterion_09_solver_viability():
    start = time.monotonic()
    cfg = SolverConfig(tolerance=1e-10, max_iterations=10000)
    converged = 0
    violations_16 = []
    max_iters = 0
    for t in range(500):
        rng = np.random.default_rng(derive_seed(SEED, "solver", t))
        m = int(rng.integers(1, 9))
        n = int(rng.integers(m, 25))
        eps = float(rng.uniform(0.005, 0.1))
        f = perturb(
            random_equal_norm_parseval(m, n, derive_seed(SEED, "solverb", t)),
            eps,
            derive_seed(SEED, "solverp", t),
        )
        inst = nearest_equal_norm_parseval(f, cfg)
        if inst.converged:
            converged += 1
            d = defects(inst.solution)
            assert d.parseval_eps <= 1e-10 and d.equal_norm_eps <= 1e-10
            max_iters = max(max_iters, inst.iterations)
            if inst.distance > inst.bound_16eM:
                violations_16.append((m, n, eps, inst.distance, inst.bound_16eM))
    elapsed = time.monotonic() - start
    for v in violations_16:
        # reported, never failed: the 16 eps M reference is an observation
        print(f"  16epsM exceeded: M={v[0]} N={v[1]} eps={v[2]:.4f} d={v[3]:.4e} ref={v[4]:.4e}")
    assert converged >= 495  # >= 99% of 500
    assert elapsed <= 300.0
    report(
        f"[PASS] criterion 9: {converged}/500 converged (>=495 required), "
        f"max iterations {max_iters}, {len(violations_16)} reference exceedances, "
        f"{elapsed:.1f}s (limit 300s)"
    )


def test_criterion_10_admissibility_verdicts():
    parseval_cases = [
        (AdmissibleSequence(np.ones(3), 3), True),
        (AdmissibleSequence(np.full(5, math.sqrt(2.0 / 5.0)), 2), True),
        (AdmissibleSequence([1.2, math.sqrt(0.31), math.sqrt(0.25)], 2), False),
    ]
    for seq, expected in parseval_cases:
        assert bool(is_parseval_admissible(seq)) is expected

    spectrum_cases = [
        (AdmissibleSequence([1.0, 1.0, 1.0], 2), SpectrumSpec([2.0, 1.0]), True),
        (AdmissibleSequence([math.sqrt(2.5), 0.5, 0.5], 2), SpectrumSpec([2.0, 1.0]), False),
        (
            AdmissibleSequence(np.full(6, math.sqrt(4.0 / 6.0)), 4),
            SpectrumSpec(np.ones(4)),
            True,
        ),
    ]
    for seq, spec, expected in spectrum_cases:
        assert bool(is_S_admissible(seq, spec)) is expected

    rng = np.random.default_rng(derive_seed(SEED, "admissible"))
    for _ in range(1000):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(m, 25))
        a = rng.uniform(0.05, 1.3, size=n)
        if rng.integers(2):
            a *= math.sqrt(m / np.sum(a**2))
        within("identity-spectrum-agreement", identity_spectrum_violation(AdmissibleSequence(a, m)))
    report(
        "[PASS] criterion 10: tabulated verdicts exact; identity-spectrum test agrees "
        "with the Parseval test on 1000 random sequences"
    )


def test_criterion_11_sweep_determinism(tmp_path):
    config = {
        "M_range": [2, 3],
        "N_range": [4, 6],
        "eps_list": [0.05],
        "trials_per_cell": 2,
        "master_seed": 11,
        "tolerance": 1e-10,
        "output_path": str(tmp_path / "a.csv"),
    }
    cfg_path = tmp_path / "config.json"
    dump_json(config, str(cfg_path))

    def run(out, jobs):
        out_path = tmp_path / out
        res = subprocess.run(
            [
                sys.executable,
                "-m",
                "framekit",
                "sweep",
                str(cfg_path),
                "--out",
                str(out_path),
                "--jobs",
                str(jobs),
            ],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0, res.stderr
        return out_path.read_bytes()

    first = run("a.csv", 1)
    second = run("b.csv", 1)
    parallel = run("c.csv", 8)
    assert first == second
    assert first == parallel
    rows = [line for line in first.decode().splitlines() if not line.startswith("#")]
    assert len(rows) == 1 + 8  # header + 4 cells x 2 trials
    report(
        "[PASS] criterion 11: sweep CSV byte-identical across repeated runs "
        "and --jobs 1 vs --jobs 8"
    )
