import math

import numpy as np
import pytest

from conftest import complex_gaussian, within
from framekit import (
    AdmissibleSequence,
    Frame,
    SolverConfig,
    SpectrumSpec,
    defects,
    feasible_norm_targets,
    frame_operator,
    harmonic_frame,
    is_parseval_admissible,
    is_S_admissible,
    nearest_equal_norm_parseval,
    nearest_prescribed_norm_parseval,
    perturb,
    prescribed_norm_defect,
    random_equal_norm_parseval,
    vector_norms_sq,
)
from framekit.verify import identity_spectrum_violation


class TestSequenceTypes:
    def test_sorted_descending_with_original_kept(self):
        seq = AdmissibleSequence([0.5, 1.0, 0.7], 2)
        assert np.allclose(seq.values, [1.0, 0.7, 0.5])
        assert np.allclose(seq.original, [0.5, 1.0, 0.7])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            AdmissibleSequence([1.0, 0.0], 1)

    @pytest.mark.parametrize("target_dim", [2.5, True])
    def test_target_dim_must_be_an_integer(self, target_dim):
        with pytest.raises(ValueError, match="target_dim must be an integer >= 1"):
            AdmissibleSequence([1.0, 1.0, 0.5], target_dim)

    def test_spectrum_sorted(self):
        spec = SpectrumSpec([1.0, 3.0, 2.0])
        assert np.allclose(spec.eigenvalues, [3.0, 2.0, 1.0])


class TestParsevalAdmissible:
    def test_unit_norms_square_case(self):
        assert is_parseval_admissible(AdmissibleSequence(np.ones(3), 3))

    def test_uniform_norms(self):
        seq = AdmissibleSequence(np.full(7, math.sqrt(3.0 / 7.0)), 3)
        assert is_parseval_admissible(seq)

    def test_value_above_one_rejected(self):
        seq = AdmissibleSequence([1.2, math.sqrt(0.31), math.sqrt(0.25)], 2)
        verdict = is_parseval_admissible(seq)
        assert not verdict
        assert "exceeds 1" in verdict.violated

    def test_wrong_total_rejected(self):
        verdict = is_parseval_admissible(AdmissibleSequence([0.5, 0.5], 2))
        assert not verdict
        assert "sum of squares" in verdict.violated


class TestFeasibleNormTargets:
    def test_targets_are_admissible_with_every_value_below_one(self):
        for seed in range(20):
            seq = feasible_norm_targets(3, 7, np.random.default_rng(seed))
            assert is_parseval_admissible(seq)
            assert float(seq.values[0]) < 1.0

    @pytest.mark.parametrize("m, n", [(3, 3), (1, 1), (5, 3)])
    def test_needs_more_vectors_than_dimensions(self, m, n):
        with pytest.raises(ValueError, match=f"n={n}, m={m}"):
            feasible_norm_targets(m, n, np.random.default_rng(0))


class TestSpectrumAdmissible:
    def test_example_feasible(self):
        seq = AdmissibleSequence([1.0, 1.0, 1.0], 2)
        assert is_S_admissible(seq, SpectrumSpec([2.0, 1.0]))

    def test_partial_sum_violation(self):
        seq = AdmissibleSequence([math.sqrt(2.5), 0.5, 0.5], 2)
        verdict = is_S_admissible(seq, SpectrumSpec([2.0, 1.0]))
        assert not verdict
        assert "partial sum" in verdict.violated

    def test_reduces_to_parseval_for_identity_spectrum(self):
        seq = AdmissibleSequence(np.full(6, math.sqrt(4.0 / 6.0)), 4)
        assert is_S_admissible(seq, SpectrumSpec(np.ones(4)))

    def test_total_mismatch_rejected(self):
        seq = AdmissibleSequence([1.0, 0.5, 0.5], 2)
        verdict = is_S_admissible(seq, SpectrumSpec([2.0, 1.0]))
        assert not verdict
        assert "total" in verdict.violated

    def test_requires_enough_norms(self):
        with pytest.raises(ValueError, match="at least as many"):
            is_S_admissible(AdmissibleSequence([1.0], 1), SpectrumSpec([1.0, 1.0]))

    def test_verdicts_on_norms_and_spectra_read_off_random_frames(self, rng):
        # Schur-Horn: the squared norms of any frame are majorized by the
        # spectrum of its frame operator, with equal totals
        for _ in range(200):
            m = int(rng.integers(2, 9))
            n = int(rng.integers(m, 25))
            f = Frame(complex_gaussian(rng, (n, m)))
            norms_sq = vector_norms_sq(f)
            evals = np.linalg.eigvalsh(frame_operator(f))
            spec = SpectrumSpec(evals)
            assert is_S_admissible(AdmissibleSequence(np.sqrt(norms_sq), m), spec)
            # push the largest squared norm past the largest eigenvalue and
            # scale the others down so that the total is unchanged
            total = float(np.sum(norms_sq))
            lam_max = float(evals[-1])
            raised = lam_max + (total - lam_max) * 10.0 ** rng.uniform(-4.0, -0.5)
            rest = np.delete(norms_sq, np.argmax(norms_sq))
            rest *= (total - raised) / np.sum(rest)
            verdict = is_S_admissible(
                AdmissibleSequence(np.sqrt(np.append(rest, raised)), m), spec
            )
            assert not verdict
            assert "partial sum" in verdict.violated

    def test_identity_spectrum_agreement_on_random_sequences(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(m, 15))
            a = rng.uniform(0.05, 1.3, size=n)
            if rng.integers(2):
                a *= math.sqrt(m / np.sum(a**2))
            seq = AdmissibleSequence(a, m)
            within("identity-spectrum-agreement", identity_spectrum_violation(seq), a)


class TestPrescribedNormSolver:
    def test_uniform_targets_match_equal_norm_solver(self):
        f = perturb(harmonic_frame(2, 5), 0.06, 3)
        seq = AdmissibleSequence(np.full(5, math.sqrt(2.0 / 5.0)), 2)
        a = nearest_prescribed_norm_parseval(f, seq)
        b = nearest_equal_norm_parseval(f)
        assert a.converged and b.converged
        assert np.array_equal(a.solution.vectors, b.solution.vectors)
        assert a.distance == b.distance

    def test_zero_distance_when_targets_already_met(self):
        f = random_equal_norm_parseval(3, 7, 1)
        seq = AdmissibleSequence(np.sqrt(vector_norms_sq(f)), 3)
        inst = nearest_prescribed_norm_parseval(f, seq)
        assert inst.converged
        assert inst.distance <= 1e-12

    def test_seeded_instances_hit_targets(self):
        rng = np.random.default_rng(77)
        for t in range(10):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(m + 1, 12))
            seq = feasible_norm_targets(m, n, rng)
            f = perturb(random_equal_norm_parseval(m, n, t), 0.05, t)
            inst = nearest_prescribed_norm_parseval(f, seq, SolverConfig())
            assert inst.converged
            assert defects(inst.solution).parseval_eps <= 1e-10
            assert prescribed_norm_defect(inst.solution, seq) <= 1e-10

    def test_targets_spread_over_thirteen_orders_are_hit(self):
        # two targets near 5e-14: tau meets them only up to its absolute
        # rounding, so convergence is judged on the rescaled iterate's own
        # defects, not on max |tau_i / c_i - 1|
        f = perturb(random_equal_norm_parseval(3, 6, 1), 0.05, 1)
        seq = AdmissibleSequence(np.sqrt([0.9, 0.9, 0.9, 0.3 - 1e-13, 5e-14, 5e-14]), 3)
        inst = nearest_prescribed_norm_parseval(f, seq)
        assert inst.converged
        assert defects(inst.solution).parseval_eps <= 1e-10
        assert prescribed_norm_defect(inst.solution, seq) <= 1e-10

    @pytest.mark.parametrize("mu", [2e-10, 9e-10])
    def test_admissible_targets_off_by_up_to_the_sum_slack_are_met(self, mu):
        # the verdict admits squares whose sum is off M by up to 1e-9
        # relative, more than the solver's tolerance
        f = perturb(random_equal_norm_parseval(3, 7, 1), 0.05, 1)
        a2 = feasible_norm_targets(3, 7, np.random.default_rng(1)).original ** 2
        seq = AdmissibleSequence(np.sqrt(a2 * (1.0 + mu)), 3)
        assert is_parseval_admissible(seq)
        inst = nearest_prescribed_norm_parseval(f, seq)
        assert inst.converged
        assert defects(inst.solution).parseval_eps <= 1e-10
        assert prescribed_norm_defect(inst.solution, seq) <= mu + 1e-10

    def test_infeasible_targets_rejected(self):
        f = harmonic_frame(2, 4)
        bad = AdmissibleSequence([1.4, 0.2, 0.2, 0.2], 2)
        with pytest.raises(ValueError, match="not admissible"):
            nearest_prescribed_norm_parseval(f, bad)

    def test_length_mismatch_rejected(self):
        f = harmonic_frame(2, 4)
        seq = AdmissibleSequence(np.full(5, math.sqrt(2.0 / 5.0)), 2)
        with pytest.raises(ValueError, match="length"):
            nearest_prescribed_norm_parseval(f, seq)

    def test_dim_mismatch_rejected(self):
        f = harmonic_frame(2, 4)
        seq = AdmissibleSequence(np.full(4, math.sqrt(3.0 / 4.0)), 3)
        with pytest.raises(ValueError, match="target_dim"):
            nearest_prescribed_norm_parseval(f, seq)
