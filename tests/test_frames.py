import math
import warnings

import numpy as np
import pytest

from framekit import (
    Frame,
    RankDeficientError,
    analysis_matrix,
    canonical_parseval,
    defects,
    frame_bounds,
    frame_distance,
    frame_operator,
    frame_potential,
    gram,
    harmonic_frame,
    haar_unitary,
    herm_eig,
    hs_norm,
    near_parseval_frame,
    parseval_pair,
    random_equal_norm_parseval,
    random_parseval,
    vector_norms_sq,
)
from framekit.verify import canonical_slacks, factor4_slack, parseval_gram_slacks

from conftest import complex_gaussian, within


def scaled_frame(frame, c):
    return Frame(c * frame.vectors)


class TestFrameConstruction:
    def test_needs_at_least_dim_vectors(self):
        with pytest.raises(ValueError, match="at least dim"):
            Frame(np.eye(3)[:2])

    def test_rejects_repeated_single_direction(self):
        v = np.array([[1.0, 0.0], [1.0, 0.0]]) / math.sqrt(2)
        with pytest.raises(RankDeficientError):
            Frame(v)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="NaN"):
            Frame(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_rejects_vectors_whose_frame_operator_overflows(self):
        v = 1e200 * harmonic_frame(3, 7).vectors
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="too large: the frame operator overflows"):
                Frame(v)

    def test_vectors_are_immutable(self):
        f = harmonic_frame(2, 3)
        with pytest.raises(ValueError):
            f.vectors[0, 0] = 1.0

    @pytest.mark.parametrize("c", [1e-7, 1e-3, 1e3, 1e7])
    def test_span_floor_is_relative_to_scale(self, c):
        a, b = frame_bounds(scaled_frame(harmonic_frame(3, 7), c))
        assert abs(a / c**2 - 1.0) <= 1e-10 and abs(b / c**2 - 1.0) <= 1e-10
        v = np.array([[1.0, 0.0], [1.0, 0.0]]) / math.sqrt(2)
        with pytest.raises(RankDeficientError):
            Frame(c * v)


class TestAnalysisAndOperator:
    def test_standard_basis_analysis_is_identity(self):
        f = Frame(np.eye(2))
        assert np.allclose(analysis_matrix(f), np.eye(2))

    def test_parseval_analysis_is_isometry(self):
        f = random_parseval(3, 8, 5)
        t = analysis_matrix(f)
        assert hs_norm(t.conj().T @ t - np.eye(3)) <= 1e-10

    def test_analysis_rows_give_inner_products(self, rng):
        f = random_parseval(3, 7, 9)
        x = complex_gaussian(rng, (3, 1))[:, 0]
        coeff = analysis_matrix(f) @ x
        direct = np.array([np.vdot(fi, x) for fi in f.vectors])
        assert np.allclose(coeff, direct)

    def test_operator_of_orthonormal_basis(self):
        assert np.allclose(frame_operator(Frame(np.eye(3))), np.eye(3))

    def test_operator_of_doubled_basis(self):
        f = Frame(np.vstack([np.eye(3), np.eye(3)]))
        assert np.allclose(frame_operator(f), 2.0 * np.eye(3))

    def test_trace_equals_norm_sum(self, rng):
        for _ in range(20):
            v = complex_gaussian(rng, (9, 4))
            f = Frame(v)
            assert abs(np.trace(frame_operator(f)).real - np.sum(vector_norms_sq(f))) <= 1e-10 * max(
                1.0, float(np.sum(vector_norms_sq(f)))
            )


class TestFrameBounds:
    def test_parseval_bounds_are_one(self):
        a, b = frame_bounds(random_parseval(2, 6, 3))
        assert abs(a - 1.0) <= 1e-10 and abs(b - 1.0) <= 1e-10

    def test_scaled_basis(self):
        a, b = frame_bounds(Frame(np.array([[2.0, 0.0], [0.0, 1.0]])))
        assert np.allclose([a, b], [1.0, 4.0])

    def test_frame_inequality_spot_check(self, rng):
        f = Frame(complex_gaussian(rng, (10, 4)))
        a, b = frame_bounds(f)
        t = analysis_matrix(f)
        for _ in range(100):
            x = complex_gaussian(rng, (4, 1))[:, 0]
            energy = float(np.sum(np.abs(t @ x) ** 2))
            nx = float(np.sum(np.abs(x) ** 2))
            assert a * nx - 1e-9 <= energy <= b * nx + 1e-9


class TestDefects:
    def test_equal_norm_parseval_is_defect_free(self):
        f = harmonic_frame(3, 7)
        d = defects(f)
        assert d.parseval_eps <= 1e-10 and d.equal_norm_eps <= 1e-10
        assert np.allclose(vector_norms_sq(f), 3.0 / 7.0)

    @pytest.mark.parametrize("eps", [0.05, 0.2, 0.5])
    def test_scaling_moves_both_defects_equally(self, eps):
        f = scaled_frame(harmonic_frame(2, 5), math.sqrt(1.0 + eps))
        d = defects(f)
        assert abs(d.parseval_eps - eps) <= 1e-10
        assert abs(d.equal_norm_eps - eps) <= 1e-10

    def test_defects_scale_linearly_with_perturbation(self):
        base = harmonic_frame(3, 8)
        rng = np.random.default_rng(4)
        direction = complex_gaussian(rng, base.vectors.shape)
        direction /= hs_norm(direction)
        ratios = []
        for delta in [1e-4, 1e-3, 1e-2]:
            d = defects(Frame(base.vectors + delta * direction))
            ratios.append(d.max() / delta)
        # continuity: defect / delta stays bounded by a modest constant
        assert max(ratios) <= 10.0


class TestCanonicalParseval:
    def test_fixes_parseval_frames(self):
        f = random_parseval(3, 7, 11)
        assert frame_distance(f, canonical_parseval(f)) <= 1e-10

    def test_scaled_frame_closed_form(self):
        eps, m = 0.1, 3
        base = random_equal_norm_parseval(m, 8, 21)
        f = scaled_frame(base, math.sqrt(1.0 + eps))
        g = canonical_parseval(f)
        d = frame_distance(f, g)
        closed_form = m * (math.sqrt(1.0 + eps) - 1.0) ** 2
        assert abs(d - closed_form) <= 1e-10
        within("canonical-parseval-distance-bound", canonical_slacks(f)[1])

    def test_sharp_bound_beats_quadratic_at_large_eps(self):
        # At eps = 0.2, M = 4 the sharp value exceeds M eps^2 / 4, so only
        # the sharp bound is asserted anywhere in this package.
        eps, m = 0.2, 4
        sharp = m * (2.0 - eps - 2.0 * math.sqrt(1.0 - eps))
        quadratic = m * eps**2 / 4.0
        assert abs(sharp - 0.0445824720006732) <= 1e-12
        assert sharp > quadratic

    def test_distance_bound_and_norm_bounds_on_random_inputs(self):
        for i, eps in enumerate([0.01, 0.1, 0.3]):
            _, dist_slack, norm_slack = canonical_slacks(near_parseval_frame(eps, 4, 9, 100 + i))
            within("canonical-parseval-distance-bound", dist_slack, eps)
            within("canonical-parseval-norm-bounds", norm_slack, eps)

    def test_idempotent(self):
        f = near_parseval_frame(0.3, 3, 7, 31)
        within("canonical-parseval-idempotent", canonical_slacks(f)[0])


class TestSpectrumReuse:
    """The frame operator is decomposed once, when the frame is validated."""

    def test_construction_decomposes_once(self, rng, eigh_calls):
        Frame(complex_gaussian(rng, (7, 3)))
        assert eigh_calls == [(3, 3)]

    def test_readers_reuse_the_construction_decomposition(self, eigh_calls):
        f = near_parseval_frame(0.1, 3, 7, 5)
        eigh_calls.clear()
        frame_bounds(f)
        defects(f)
        assert eigh_calls == []
        canonical_parseval(f)
        # only the returned frame's own validation
        assert eigh_calls == [(3, 3)]

    def test_cached_spectrum_equals_recomputation(self, rng):
        inputs = [
            complex_gaussian(rng, (7, 3)),
            complex_gaussian(rng, (4, 9)).T,  # a non-contiguous view
            rng.standard_normal((5, 5)),
            near_parseval_frame(0.3, 4, 9, 2).vectors,
        ]
        for v in inputs:
            f = Frame(v)
            evals = herm_eig(frame_operator(f)).eigenvalues
            assert frame_bounds(f) == (float(evals[0]), float(evals[-1]))
            assert np.array_equal(f.eig.eigenvectors, herm_eig(frame_operator(f)).eigenvectors)

    def test_eig_is_ascending_read_only_and_fresh(self, rng):
        f = Frame(complex_gaussian(rng, (7, 3)))
        evals, evecs = f.eig
        assert np.all(np.diff(evals) >= 0)
        fresh = herm_eig(frame_operator(f))
        assert np.array_equal(evals, fresh.eigenvalues)
        assert np.array_equal(evecs, fresh.eigenvectors)
        with pytest.raises(AttributeError):
            f.eig = None
        for arr in (evals, evecs):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


class TestDistanceAndPotential:
    def test_distance_zero_iff_identical(self):
        f = harmonic_frame(2, 4)
        assert frame_distance(f, f) == 0.0
        g = Frame(f.vectors + 1e-3)
        assert frame_distance(f, g) > 0.0

    def test_distance_of_negated_frame(self):
        f = random_parseval(2, 5, 8)
        g = Frame(-f.vectors)
        assert abs(frame_distance(f, g) - 4.0 * np.sum(vector_norms_sq(f))) <= 1e-10

    def test_distance_unitary_invariance(self, rng):
        f = random_parseval(3, 6, 2)
        g = random_parseval(3, 6, 4)
        u = haar_unitary(3, rng)
        fu = Frame(f.vectors @ u.T)
        gu = Frame(g.vectors @ u.T)
        assert abs(frame_distance(fu, gu) - frame_distance(f, g)) <= 1e-10

    def test_distance_shape_mismatch(self):
        with pytest.raises(ValueError, match="incompatible"):
            frame_distance(harmonic_frame(2, 4), harmonic_frame(2, 5))

    def test_potential_values(self):
        assert abs(frame_potential(Frame(np.eye(3))) - 3.0) <= 1e-12
        assert abs(frame_potential(random_parseval(4, 9, 6)) - 4.0) <= 1e-9
        doubled = Frame(np.vstack([np.eye(2), np.eye(2)]))
        assert abs(frame_potential(doubled) - 8.0) <= 1e-12

    def test_potential_lower_bound_with_tightness(self, rng):
        f = Frame(complex_gaussian(rng, (7, 3)))
        total = float(np.sum(vector_norms_sq(f)))
        assert frame_potential(f) >= total**2 / 3.0 - 1e-9
        tight = harmonic_frame(3, 7)
        total_t = float(np.sum(vector_norms_sq(tight)))
        assert abs(frame_potential(tight) - total_t**2 / 3.0) <= 1e-9


class TestGram:
    def test_orthonormal_basis_gram_is_identity(self):
        assert np.allclose(gram(Frame(np.eye(3))), np.eye(3))

    def test_parseval_gram_idempotent_with_norm_diagonal(self):
        idempotent, diagonal = parseval_gram_slacks(random_parseval(3, 8, 13))
        within("parseval-gram-idempotent", idempotent)
        within("parseval-gram-diagonal-norms", diagonal)

    def test_harmonic_gram_diagonal(self):
        g = gram(harmonic_frame(2, 3))
        assert np.allclose(np.diagonal(g).real, 2.0 / 3.0)

    def test_gram_entries_are_pair_inner_products(self):
        f = random_parseval(2, 4, 17)
        g = gram(f)
        v = f.vectors
        for i in range(4):
            for j in range(4):
                assert abs(g[i, j] - np.vdot(v[i], v[j])) <= 1e-12


class TestAnalysisImageDistance:
    def test_factor_four_over_seeded_parseval_pairs(self):
        for t in range(50):
            f, g = parseval_pair(t, 10.0 ** (-4 + 0.08 * t), 3, 8)
            within("gram-image-distance-factor-4", factor4_slack(f, g), t)
