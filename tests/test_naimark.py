import numpy as np
import pytest

from conftest import aligned_lift, far_start, suite_frames, warm_start_inputs, within
from framekit import (
    Frame,
    Projection,
    canonical_parseval,
    derive_seed,
    frame_distance,
    frame_from_projection,
    gram,
    harmonic_frame,
    naimark_branch,
    naimark_complement,
    naimark_reduction_check,
    nearest_equal_norm_parseval,
    perturb,
    proj_distance,
    projection_from_frame,
    random_equal_norm_parseval,
    random_parseval,
    reduce_to_small,
    vector_norms_sq,
)
from framekit.paulsen import chain_bound
from framekit.verify import complement_slacks, reduction_violation


class TestComplement:
    def test_harmonic_2_3_complement(self):
        comp = naimark_complement(harmonic_frame(2, 3))
        assert comp.n_vectors == 3 and comp.dim == 1
        assert np.allclose(vector_norms_sq(comp), 1.0 / 3.0)

    def test_gram_identity(self):
        for seed in range(10):
            f = random_parseval(3, 8, seed)
            within("complement-gram-identity", complement_slacks(f)[0], seed)

    def test_norm_identity(self):
        within("complement-norm-identity", complement_slacks(random_parseval(2, 7, 4))[1])

    def test_double_complement_restores_gram(self):
        within("double-complement-restores-gram", complement_slacks(random_parseval(3, 7, 9))[3])

    def test_defect_transfer(self):
        for seed in range(10):
            f = canonical_parseval(
                perturb(random_equal_norm_parseval(2, 6, seed), 0.08, seed)
            )
            within("complement-defect-transfer", complement_slacks(f)[2], seed)

    def test_rejects_square_frame(self):
        with pytest.raises(ValueError, match="dimension is zero"):
            naimark_complement(harmonic_frame(3, 3))

    def test_rejects_non_parseval(self):
        f = Frame(1.2 * harmonic_frame(2, 5).vectors)
        with pytest.raises(ValueError, match="not Parseval"):
            naimark_complement(f)


class TestReductionCheck:
    def test_equal_norm_input_gives_zero_distances(self):
        rep = naimark_reduction_check(harmonic_frame(2, 5))
        assert rep.complement_distance <= 1e-12
        assert rep.lift_distance <= 1e-10
        assert rep.within_bound

    def test_complement_dimension_one(self):
        for seed in range(10):
            f = canonical_parseval(
                perturb(random_equal_norm_parseval(3, 4, seed), 0.06, seed)
            )
            rep = naimark_reduction_check(f)
            assert rep.within_bound
            assert rep.complement_equal_norm_eps <= rep.transfer_bound + 1e-9

    def test_wide_grid_complement_solve_steps(self):
        # The complement solve of the wide-grid trial (M, N, eps) = (6, 30,
        # 0.05), master seed 11, trial 0, in dimension 24.  It took 26
        # iterations with the Anderson-accelerated map.
        seed = derive_seed(11, 6, 30, 0.05, 0)
        base = random_equal_norm_parseval(6, 30, derive_seed(seed, "base"))
        fp = canonical_parseval(perturb(base, 0.05, derive_seed(seed, "perturb")))
        instance = naimark_reduction_check(fp).complement_instance
        assert instance.converged
        assert instance.iterations <= 4

    def test_frame_coordinates_match_the_projection_reference(self):
        # The complement from an eigendecomposition of I - Gram F, and the
        # solved complement's Gram mapped back and lifted by aligned bases.
        for t, f in enumerate(suite_frames("nk", 1)):
            rep = naimark_reduction_check(f)
            n = f.n_vectors
            comp = frame_from_projection(Projection(np.eye(n) - gram(f)))
            inst = nearest_equal_norm_parseval(comp).require_converged()
            q = Projection(np.eye(n) - gram(inst.solution), atol=1e-7)
            lift = frame_distance(f, aligned_lift(f, q))
            dist = proj_distance(projection_from_frame(f), q)
            assert abs(rep.complement_distance - inst.distance) <= 1e-10, t
            assert abs(rep.projection_distance - dist) <= 1e-10, t
            assert abs(rep.lift_distance - lift) <= 1e-10, t
            assert abs(rep.ratio - chain_bound(lift, 8.0, inst.distance)["ratio"]) <= 1e-10, t

    def test_wide_frame_complement_branch(self):
        f = canonical_parseval(perturb(random_equal_norm_parseval(2, 6, 17), 0.05, 17))
        rep = naimark_reduction_check(f)
        assert rep.within_bound
        reduced, flag = reduce_to_small(f)
        assert flag == "complemented"
        assert reduced.dim == 4 and reduced.n_vectors == 6
        within("reduction-always-small", reduction_violation(f))


class TestWarmStart:
    @staticmethod
    def complemented():
        for k, f in enumerate(warm_start_inputs()):
            if f.n_vectors > f.dim:
                yield k, f, canonical_parseval(f)

    def test_complement_starts_from_the_negated_weights(self):
        # The weighted complement's analysis range is the orthogonal
        # complement of the weighted frame's, so -t* is its minimiser.
        for k, f, fp in self.complemented():
            t = nearest_equal_norm_parseval(f).require_converged().log_weights
            cold = naimark_reduction_check(fp)
            warm = naimark_reduction_check(fp, None, t)
            assert warm.complement_instance.converged, k
            assert warm.complement_instance.iterations <= 2, k
            assert abs(warm.ratio - cold.ratio) <= 1e-9, k

    def test_far_start_converges_to_the_cold_distance(self):
        for k, f, fp in self.complemented():
            cold = naimark_reduction_check(fp)
            warm = naimark_reduction_check(fp, None, far_start(f.n_vectors, k))
            assert abs(warm.complement_distance - cold.complement_distance) <= 1e-9, k
            assert abs(warm.ratio - cold.ratio) <= 1e-9, k

    def test_rejects_a_bad_start(self):
        f = canonical_parseval(perturb(random_equal_norm_parseval(2, 6, 3), 0.05, 3))
        with pytest.raises(ValueError, match=r"got shape \(5,\)"):
            naimark_reduction_check(f, None, np.zeros(5))
        start = np.zeros(6)
        start[2] = np.nan
        with pytest.raises(ValueError, match="entry 2 is nan"):
            naimark_reduction_check(f, None, start)


class TestReduceToSmall:
    def test_narrow_frame_kept(self):
        f = harmonic_frame(3, 5)
        reduced, flag = reduce_to_small(f)
        assert flag == "original"
        assert reduced is f

    def test_wide_frame_complemented(self):
        f = harmonic_frame(2, 7)
        reduced, flag = reduce_to_small(f)
        assert flag == "complemented"
        assert reduced.dim == 5 and reduced.n_vectors == 7
        within("reduction-always-small", reduction_violation(f))

    def test_boundary_two_m_keeps_original(self):
        f = harmonic_frame(3, 6)
        reduced, flag = reduce_to_small(f)
        assert flag == "original"
        assert reduced is f

    def test_branch_rule_is_the_reduction_flag(self):
        for m, n, branch in [(3, 5, "original"), (3, 6, "original"), (2, 7, "complemented")]:
            assert naimark_branch(m, n) == branch
            assert reduce_to_small(harmonic_frame(m, n))[1] == branch
