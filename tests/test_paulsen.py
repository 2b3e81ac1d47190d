import itertools
import math
import re

import numpy as np
import pytest

from conftest import aligned_lift, far_start, suite_frames, warm_start_inputs
from framekit import (
    ConvergenceError,
    Frame,
    SolverConfig,
    canonical_parseval,
    defects,
    derive_seed,
    diagonal_defect,
    equivalence_chain_frame_to_projection,
    equivalence_chain_projection_to_frame,
    frame_distance,
    frame_from_projection,
    frame_lift,
    frame_operator,
    gram,
    haar_unitary,
    harmonic_frame,
    hs_norm,
    near_parseval_frame,
    nearest_equal_norm_parseval,
    paulsen,
    perturb,
    proj_distance,
    projection_from_frame,
    random_equal_norm_parseval,
    random_parseval,
    vector_norms_sq,
)
from framekit.paulsen import chain_bound


class TestHarmonicFrame:
    def test_square_case_is_orthonormal_up_to_phases(self):
        f = harmonic_frame(4, 4)
        g = gram(f)
        assert hs_norm(g - np.eye(4)) <= 1e-10

    def test_2_3_norms_and_operator(self):
        f = harmonic_frame(2, 3)
        assert np.allclose(vector_norms_sq(f), 2.0 / 3.0)
        assert hs_norm(frame_operator(f) - np.eye(2)) <= 1e-10

    def test_3_7_gram_diagonal(self):
        g = gram(harmonic_frame(3, 7))
        assert np.allclose(np.diagonal(g).real, 3.0 / 7.0)

    def test_rejects_m_greater_than_n(self):
        with pytest.raises(ValueError):
            harmonic_frame(4, 3)


class TestRandomParseval:
    def test_deterministic_per_seed(self):
        f1 = random_parseval(3, 9, 7)
        f2 = random_parseval(3, 9, 7)
        assert np.array_equal(f1.vectors, f2.vectors)
        f3 = random_parseval(3, 9, 8)
        assert not np.array_equal(f1.vectors, f3.vectors)

    def test_is_parseval(self):
        for seed in range(10):
            assert defects(random_parseval(4, 11, seed)).parseval_eps <= 1e-9

    def test_dimension_one(self):
        f = random_parseval(1, 6, 2)
        assert abs(float(np.sum(vector_norms_sq(f))) - 1.0) <= 1e-10


class TestHaarUnitary:
    def test_unitarity(self, rng):
        u = haar_unitary(5, rng)
        assert hs_norm(u.conj().T @ u - np.eye(5)) <= 1e-12


class TestRandomEqualNormParseval:
    @pytest.mark.parametrize("m, n", [(1, 1), (1, 6), (3, 8), (5, 5), (8, 40)])
    def test_rotates_the_harmonic_frame_with_one_eigh(self, m, n, eigh_calls):
        for seed in range(3):
            expected = harmonic_frame(m, n).vectors @ haar_unitary(m, np.random.default_rng(seed)).T
            eigh_calls.clear()
            f = random_equal_norm_parseval(m, n, seed)
            assert np.array_equal(f.vectors, expected)
            assert eigh_calls == [(m, m)]


def perturb_cases(count: int = 200):
    """Seeded (M, N, eps, seed) for perturb: M 1-8, N from M to 40, eps
    log-uniform from 1e-9 to 0.99, with the corners and every fourth draw
    square, and two draws whose first frame rounds over the cap."""
    corners = [(m, n, eps) for m, n in [(1, 1), (1, 40), (8, 8), (8, 40)] for eps in (1e-9, 0.99)]
    for seed, (m, n, eps) in enumerate(corners):
        yield m, n, eps, seed
    yield 8, 35, 1.0365406239147395e-06, 546008
    yield 7, 25, 1.0309582062134762e-06, 663954
    rng = np.random.default_rng(608)
    for seed in range(len(corners), count):
        m = int(rng.integers(1, 9))
        n = m if seed % 4 == 0 else int(rng.integers(m, 41))
        yield m, n, float(10.0 ** rng.uniform(-9.0, math.log10(0.99))), seed


class TestPerturb:
    def test_defect_cap_always_holds(self):
        base = harmonic_frame(3, 8)
        for seed in range(25):
            eps = 0.01 + 0.004 * seed
            d = defects(perturb(base, eps, seed))
            assert d.parseval_eps <= eps and d.equal_norm_eps <= eps

    def test_outputs_sit_near_the_cap(self):
        base = harmonic_frame(3, 8)
        d = defects(perturb(base, 0.05, 3))
        assert d.max() >= 0.045

    def test_deterministic(self):
        base = harmonic_frame(2, 5)
        a = perturb(base, 0.05, 11)
        b = perturb(base, 0.05, 11)
        assert np.array_equal(a.vectors, b.vectors)

    def test_small_eps_gives_small_distance(self):
        base = harmonic_frame(2, 5)
        close = perturb(base, 1e-6, 5)
        far = perturb(base, 0.2, 5)
        assert frame_distance(base, close) < 1e-8
        assert frame_distance(base, close) < frame_distance(base, far)

    def test_defect_lands_just_below_the_cap(self):
        rng = np.random.default_rng(606)
        for seed in range(200):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(m, 25))
            eps = float(10.0 ** rng.uniform(-3.0, -0.7))
            f = perturb(random_equal_norm_parseval(m, n, seed), eps, seed)
            assert (1.0 - 1e-3) * eps <= defects(f).max() <= eps

    def test_runs_no_eigvalsh_and_one_eigh(self, eigh_calls, eigvalsh_calls):
        rng = np.random.default_rng(607)
        for seed in range(50):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(m, 25))
            base = random_equal_norm_parseval(m, n, seed)
            eigh_calls.clear()
            eigvalsh_calls.clear()
            perturb(base, float(rng.uniform(0.005, 0.2)), seed)
            assert eigvalsh_calls == []
            # the returned Frame's own decomposition, and nothing else
            assert eigh_calls == [(m, m)]

    def test_cap_holds_when_exit_roots_come_out_large(self, monkeypatch):
        # roots s = 1/t shrunk by 0.1% place the Parseval exit 0.1% past the
        # cap; the result must still meet it
        bases = [random_equal_norm_parseval(3, 8, seed) for seed in range(20)]
        unbiased = [perturb(base, 0.05, seed) for seed, base in enumerate(bases)]
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: eigvals(a) / (1.0 + 1e-3))
        moved = 0
        for seed, base in enumerate(bases):
            f = perturb(base, 0.05, seed)
            assert defects(f).max() <= 0.05
            moved += not np.array_equal(f.vectors, unbiased[seed].vectors)
        # the Parseval exit comes first for some of these seeds
        assert moved > 0

    def test_cap_holds_through_halving_when_no_root_is_real(self, monkeypatch, eigh_calls):
        # with no real root the Parseval exit is lost; where it comes first
        # the norm exit lies past the cap, and only the coarse steps, which
        # cut the amplitude by more than 1%, get back in
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: np.full(np.shape(a)[:-1], 1j))
        # one eigh per frame built; attempt k steps back by (2^k - 1) 1e-9
        coarse = math.log2(1.0 + 0.01 / paulsen.PERTURB_EXIT_RTOL)
        halved = 0
        for seed in range(20):
            base = random_equal_norm_parseval(3, 8, seed)
            eigh_calls.clear()
            f = perturb(base, 0.05, seed)
            assert defects(f).max() <= 0.05
            halved += len(eigh_calls) > coarse + 1
        assert halved > 0

    def test_first_exit_lands_at_the_cap(self):
        for m, n, eps, seed in perturb_cases():
            d = defects(perturb(random_equal_norm_parseval(m, n, seed), eps, seed)).max()
            assert d <= eps, (m, n, eps, seed)
            if eps >= 1e-6:
                assert d >= (1.0 - 1e-6) * eps, (m, n, eps, seed)

    def test_no_earlier_exit_is_skipped(self):
        # every amplitude up to the returned one keeps both defects in the cap
        for m, n, eps, seed in perturb_cases():
            base = random_equal_norm_parseval(m, n, seed)
            step = perturb(base, eps, seed).vectors - base.vectors
            for t in np.linspace(0.0, 1.0, 64):
                assert defects(Frame(base.vectors + t * step)).max() <= eps, (m, n, eps, seed, t)

    def test_rejects_non_equal_norm_input(self):
        with pytest.raises(ValueError, match="equal-norm Parseval"):
            perturb(Frame(np.array([[2.0, 0.0], [0.0, 1.0]])), 0.1, 0)

    def test_rejects_eps_out_of_range(self):
        with pytest.raises(ValueError, match="eps"):
            perturb(harmonic_frame(2, 4), 1.5, 0)

    def test_rejects_eps_below_input_defect_floor(self):
        # defects 5e-10 pass the validity gate but exceed a 1e-10 cap
        f = Frame(math.sqrt(1.0 + 5e-10) * harmonic_frame(2, 4).vectors)
        assert defects(f).max() <= 1e-9
        with pytest.raises(ValueError, match="defect floor"):
            perturb(f, 1e-10, 3)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tolerance=0.0)
        with pytest.raises(ValueError, match="tolerance must be a finite positive number"):
            SolverConfig(tolerance=math.inf)
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)

    @pytest.mark.parametrize(
        "field, value", [("max_iterations", 1.5), ("max_iterations", True), ("tolerance", True)]
    )
    def test_rejects_non_integer_counts_and_bools(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})

    def test_accepts_numpy_scalars(self):
        cfg = SolverConfig(tolerance=np.float64(1e-8), max_iterations=np.int64(5))
        inst = nearest_equal_norm_parseval(perturb(harmonic_frame(2, 5), 0.05, 1), cfg)
        assert inst.converged and inst.iterations > 0


class TestNearParsevalFrame:
    def test_parseval_defect_is_eps(self):
        for eps in (0.0, 0.3):
            assert abs(defects(near_parseval_frame(eps, 3, 7, 4)).parseval_eps - eps) <= 1e-12

    @pytest.mark.parametrize("eps", [-0.1, 1.0, math.nan])
    def test_eps_outside_unit_interval_rejected(self, eps):
        with pytest.raises(ValueError, match="eps must lie in"):
            near_parseval_frame(eps, 3, 7, 0)


class TestNearestEqualNormParseval:
    def test_fixed_point_input(self):
        f = harmonic_frame(3, 7)
        inst = nearest_equal_norm_parseval(f)
        assert inst.converged
        assert inst.iterations <= 1
        assert inst.distance <= 1e-12
        assert np.array_equal(inst.solution.vectors, f.vectors)

    def test_perturbed_harmonic_within_reference_bound(self):
        f = perturb(harmonic_frame(2, 3), 0.05, 99)
        inst = nearest_equal_norm_parseval(f)
        assert inst.converged
        assert inst.distance <= 16.0 * 0.05 * 2  # = 1.6
        d = defects(inst.solution)
        assert d.parseval_eps <= 1e-10 and d.equal_norm_eps <= 1e-10

    def test_instance_bookkeeping(self):
        f = perturb(harmonic_frame(3, 9), 0.08, 5)
        inst = nearest_equal_norm_parseval(f)
        assert inst.eps == defects(f).max()
        assert abs(inst.bound_16eM - 16.0 * inst.eps * 3) <= 1e-12
        assert abs(inst.distance - frame_distance(f, inst.solution)) <= 1e-12
        assert not inst.degenerate

    def test_solution_not_closer_than_canonical(self):
        for seed in range(10):
            f = perturb(random_equal_norm_parseval(3, 8, seed), 0.1, seed)
            inst = nearest_equal_norm_parseval(f)
            assert inst.converged
            assert inst.distance >= frame_distance(f, canonical_parseval(f)) - 1e-9

    def test_zero_vector_input_takes_degenerate_path(self):
        v = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], dtype=complex)
        inst = nearest_equal_norm_parseval(Frame(v))
        assert inst.degenerate
        assert inst.converged
        d = defects(inst.solution)
        assert d.parseval_eps <= 1e-10 and d.equal_norm_eps <= 1e-10

    def test_degenerate_restart_is_deterministic(self):
        v = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], dtype=complex)
        a = nearest_equal_norm_parseval(Frame(v))
        b = nearest_equal_norm_parseval(Frame(v))
        assert np.array_equal(a.solution.vectors, b.solution.vectors)

    def test_near_zero_vector_is_scaled_not_restarted(self):
        # tau_3 is about 1e-20 at the start, far below the Hessian's rounding;
        # the first step, a rescale onto the targets, brings it to scale
        v = np.array([[1.0, 0.0], [0.0, 1.0], [1e-10, 1e-10]], dtype=complex)
        inst = nearest_equal_norm_parseval(Frame(v))
        assert inst.converged and not inst.degenerate
        assert defects(inst.solution).max() <= 1e-10

    @pytest.mark.parametrize("first, second", [("skew", "skew"), ("twisted", "skew")])
    def test_orthogonal_blocks_converge_through_a_singular_hessian(self, first, second):
        # Two blocks of three vectors in orthogonal planes: no weight moves
        # a block's share of the norms, so the Hessian is exactly singular,
        # but the Newton system is consistent and is solved by least squares.
        block = {
            "skew": np.array([[1, 0], [0, 2], [1, 1]]),
            "twisted": np.array([[2, 0], [0, 1], [1, 1j]]),
        }
        v = np.zeros((6, 4), dtype=complex)
        v[:3, :2] = block[first]
        v[3:, 2:] = block[second]
        inst = nearest_equal_norm_parseval(Frame(v))
        assert inst.converged
        assert defects(inst.solution).max() <= 1e-10

    @pytest.mark.parametrize("rotate", [False, True])
    def test_stationary_clumped_frame_stops_at_once(self, rotate, rng):
        # the second vector is orthogonal to the other two, so under every
        # weighting it keeps squared norm 1 in the canonical Parseval frame:
        # no weights make the frame equal-norm Parseval, and its Parseval
        # defect stays at 1/3
        v = math.sqrt(2 / 3) * np.array([[1, 0], [0, 1], [1, 0]], dtype=complex)
        if rotate:
            v = v @ haar_unitary(2, rng).T
        inst = nearest_equal_norm_parseval(Frame(v))
        assert not inst.converged
        assert inst.iterations <= 10
        assert abs(defects(inst.solution).parseval_eps - 1 / 3) <= 1e-12

    @pytest.mark.parametrize("m, n", [(20, 60), (40, 120)])
    def test_newton_steps_per_solve(self, m, n):
        # the Anderson-accelerated map took 32 iterations at (20, 60) and 52
        # at (40, 120); the rescale step and two Newton steps reach 1e-10
        f = perturb(random_equal_norm_parseval(m, n, 1), 0.05, 2)
        inst = nearest_equal_norm_parseval(f)
        assert inst.converged
        assert inst.iterations <= 3

    @pytest.mark.parametrize(
        "m, n, eps, seed", [(6, 18, 0.1, 4), (4, 5, 0.05, 1121), (5, 13, 0.6, 3), (3, 12, 0.9, 8)]
    )
    def test_one_eigh_per_step(self, m, n, eps, seed, eigh_calls, eigvalsh_calls):
        # The start reuses the input Frame's decomposition, each step makes
        # one of its weighted frame operator (no step here is halved) and the
        # solution Frame one more.  Each iterate's defects, the start's among
        # them, take one eigvalsh.
        f = perturb(random_equal_norm_parseval(m, n, seed), eps, seed)
        eigh_calls.clear()
        eigvalsh_calls.clear()
        inst = nearest_equal_norm_parseval(f)
        assert inst.converged
        assert eigh_calls == [(m, m)] * (inst.iterations + 1)
        assert eigvalsh_calls == [(m, m)] * (inst.iterations + 1)

    def test_procrustes_rotation_never_lengthens_the_distance(self, monkeypatch):
        inputs = [
            perturb(random_equal_norm_parseval(m, n, seed), eps, seed)
            for seed, (m, n, eps) in enumerate(
                [(2, 5, 0.05), (3, 7, 0.2), (4, 17, 0.1), (5, 13, 0.6), (6, 30, 0.05), (8, 20, 0.9)]
            )
        ]
        rotated = [nearest_equal_norm_parseval(f).distance for f in inputs]
        # factors whose product, the rotation, is the identity
        monkeypatch.setattr(np.linalg, "svd", lambda a: (np.eye(len(a)), None, np.eye(len(a))))
        unrotated = [nearest_equal_norm_parseval(f).distance for f in inputs]
        assert all(r <= u for r, u in zip(rotated, unrotated))
        assert any(r < u for r, u in zip(rotated, unrotated))

    def test_tight_tolerance_still_converges(self):
        # the stagnation stop must not fire on steps that still make progress
        for seed in range(10):
            f = perturb(random_equal_norm_parseval(5, 13, seed), 0.1, seed)
            inst = nearest_equal_norm_parseval(f, SolverConfig(tolerance=1e-14))
            assert inst.converged

    def test_tolerance_below_rounding_stops_early(self):
        # both defects sit at rounding level (about 1e-16) long before a
        # 1e-16 tolerance could be met; the solve must not run to the cap
        f = perturb(random_equal_norm_parseval(3, 7, 1), 0.05, 1)
        inst = nearest_equal_norm_parseval(f, SolverConfig(tolerance=1e-16))
        assert not inst.converged
        assert inst.iterations <= 50
        assert defects(inst.solution).max() <= 1e-14

    def test_non_convergence_reports_best_iterate(self):
        f = perturb(harmonic_frame(2, 5), 0.2, 1)
        inst = nearest_equal_norm_parseval(f, SolverConfig(max_iterations=1))
        assert not inst.converged
        assert inst.iterations <= 1
        assert inst.solution is not None

    def test_unitary_invariant_distance(self, rng):
        f = perturb(random_equal_norm_parseval(3, 7, 6), 0.07, 6)
        inst = nearest_equal_norm_parseval(f)
        u = haar_unitary(3, rng)
        inst_u = nearest_equal_norm_parseval(Frame(f.vectors @ u.T))
        assert abs(inst.distance - inst_u.distance) <= 1e-8

    def test_permutation_equivariance(self, rng):
        f = perturb(random_equal_norm_parseval(2, 6, 9), 0.05, 9)
        inst = nearest_equal_norm_parseval(f)
        perm = rng.permutation(6)
        inst_p = nearest_equal_norm_parseval(Frame(f.vectors[perm]))
        assert np.max(np.abs(inst_p.solution.vectors - inst.solution.vectors[perm])) <= 1e-8

    def test_combined_defect_monotone_between_full_iterates(self):
        # re-run the iteration by hand and watch the combined defect; the
        # input itself is excluded from the comparison (its defect can sit
        # entirely in the measure the first round trades away)
        f = perturb(random_equal_norm_parseval(4, 10, 12), 0.1, 12)
        current = f
        prev = None
        for _ in range(60):
            step_a = canonical_parseval(current)
            v = step_a.vectors.copy()
            norms = np.sqrt(np.sum(np.abs(v) ** 2, axis=1))
            v = v * (math.sqrt(4 / 10) / norms)[:, None]
            current = Frame(v)
            combined = defects(current).max()
            if prev is not None:
                assert combined <= prev + 1e-12
            prev = combined
            if combined <= 1e-10:
                break


class TestStopReasons:
    """Each solve names why it stopped; these are the reasons an input can
    reach; a rising defect, which no input has shown, and span_floor, which
    no equal-norm input reaches, are forced through the names the solver
    reads."""

    def test_converged(self):
        inst = nearest_equal_norm_parseval(perturb(random_equal_norm_parseval(3, 7, 1), 0.05, 1))
        assert inst.stop_reason == "converged" and inst.converged

    def test_max_iterations(self):
        f = perturb(random_equal_norm_parseval(6, 18, 4), 0.1, 4)
        inst = nearest_equal_norm_parseval(f, SolverConfig(max_iterations=2))
        assert inst.stop_reason == "max_iterations" and not inst.converged
        assert inst.iterations == 2

    def test_stagnated(self):
        v = math.sqrt(2 / 3) * np.array([[1, 0], [0, 1], [1, 0]], dtype=complex)
        inst = nearest_equal_norm_parseval(Frame(v))
        assert inst.stop_reason == "stagnated" and not inst.converged

    def test_stagnated_on_an_exactly_singular_hessian(self):
        # three copies of e_1 share one dimension while the targets ask for
        # 9/5 of it; the Newton system is singular and inconsistent
        v = np.array([[1, 0, 0], [1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=complex)
        inst = nearest_equal_norm_parseval(Frame(v))
        assert inst.stop_reason == "stagnated" and inst.iterations <= 10

    def test_stalled(self):
        f = perturb(random_equal_norm_parseval(3, 7, 1), 0.05, 1)
        inst = nearest_equal_norm_parseval(f, SolverConfig(tolerance=1e-16))
        assert inst.stop_reason == "stalled" and not inst.converged

    def test_stalled_on_a_rising_defect(self, monkeypatch):
        # no input has been seen to raise the combined defect; a norm defect
        # that grows with every evaluation makes each iterate look worse
        # than the last, and the solve ends with the input as its best
        f = perturb(random_equal_norm_parseval(3, 7, 1), 0.05, 1)
        calls = itertools.count()
        monkeypatch.setattr(paulsen, "norm_defect", lambda *args: 1.0 + next(calls))
        inst = nearest_equal_norm_parseval(f)
        assert inst.stop_reason == "stalled" and inst.iterations == paulsen.STALL_ITERATIONS
        assert np.array_equal(inst.solution.vectors, f.vectors)

    def test_span_floor_with_a_floor_above_every_spectrum(self, monkeypatch):
        # the line search never steps to a point below the floor, so only a
        # floor raised past lambda_min / lambda_max = 1 reaches this stop; the
        # solution Frame is still checked against the real floor
        f = perturb(random_equal_norm_parseval(3, 7, 1), 0.05, 1)
        monkeypatch.setattr(paulsen, "clears_floor", lambda lo, hi: lo > 2.0 * hi)
        inst = nearest_equal_norm_parseval(f)
        assert inst.stop_reason == "span_floor" and inst.iterations == 0

    def test_require_converged_names_the_reason(self):
        f = perturb(random_equal_norm_parseval(6, 18, 4), 0.1, 4)
        inst = nearest_equal_norm_parseval(f, SolverConfig(max_iterations=2))
        with pytest.raises(ConvergenceError, match=r"stopped \(max_iterations\) after 2 iterations"):
            inst.require_converged()


class TestWarmStart:
    def test_weights_describe_the_returned_iterate(self):
        # solution_i = e^{w_i / 2} f_i B for one M x M matrix B; at M = 1 the
        # first rescale already converges and carries all of the weight
        for k, f in enumerate(warm_start_inputs()):
            inst = nearest_equal_norm_parseval(f).require_converged()
            weighted = np.exp(0.5 * inst.log_weights)[:, None] * f.vectors
            b = np.linalg.lstsq(weighted, inst.solution.vectors)[0]
            assert hs_norm(weighted @ b - inst.solution.vectors) <= 1e-12, k

    def test_returned_input_has_zero_weights(self):
        inst = nearest_equal_norm_parseval(harmonic_frame(2, 6))
        assert inst.iterations == 0
        assert inst.log_weights.shape == (6,) and not inst.log_weights.any()

    def test_same_analysis_range_starts_at_the_minimiser(self):
        # Barthe's potential of F S^{-1/2} or of F A differs from F's by a
        # constant, so F's weights minimise it too: solves of all three from
        # them stop at once (the bound of 2 steps leaves room for rounding)
        # and land on one Gram matrix.
        for k, f in enumerate(warm_start_inputs()):
            t = nearest_equal_norm_parseval(f).require_converged().log_weights
            again = nearest_equal_norm_parseval(f, None, t)
            assert again.converged and again.iterations <= 2, k
            rng = np.random.default_rng(derive_seed(k, "A"))
            a = rng.standard_normal((f.dim, f.dim)) + 1j * rng.standard_normal((f.dim, f.dim))
            for g in (canonical_parseval(f), Frame(f.vectors @ a.T)):
                warm = nearest_equal_norm_parseval(g, None, t)
                assert warm.converged and warm.iterations <= 2, k
                assert hs_norm(gram(warm.solution) - gram(again.solution)) <= 1e-12, k

    def test_far_start_converges_to_the_cold_solution(self):
        # From its far start, the first of these inputs, (4, 13), takes a
        # first Newton step that halves ||tau - c|| while Phi rises from 4 to
        # 47 and one weight falls towards zero; the line search must halve
        # it, or the solve stagnates.
        for k, f in enumerate(warm_start_inputs()):
            cold = nearest_equal_norm_parseval(f)
            warm = nearest_equal_norm_parseval(f, None, far_start(f.n_vectors, k))
            assert warm.converged, k
            assert abs(warm.distance - cold.distance) <= 1e-9, k

    @pytest.mark.parametrize("shape", [(5,), (7,), (6, 1), ()])
    def test_rejects_a_start_of_another_shape(self, shape):
        for f in (perturb(harmonic_frame(2, 6), 0.05, 1), harmonic_frame(2, 6)):
            with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
                nearest_equal_norm_parseval(f, None, np.zeros(shape))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_start(self, bad):
        start = np.zeros(6)
        start[4] = bad
        for f in (perturb(harmonic_frame(2, 6), 0.05, 1), harmonic_frame(2, 6)):
            with pytest.raises(ValueError, match=f"entry 4 is {bad!r}"):
                nearest_equal_norm_parseval(f, None, start)


class TestEquivalenceChains:
    def test_frame_to_projection_on_solved_input(self):
        f = harmonic_frame(2, 6)
        rep = equivalence_chain_frame_to_projection(nearest_equal_norm_parseval(f))
        assert rep.paulsen_distance <= 1e-12
        assert rep.projection_distance <= 1e-10
        assert rep.within_bound

    def test_frame_to_projection_seeded(self):
        for seed in range(15):
            f = canonical_parseval(
                perturb(random_equal_norm_parseval(3, 8, seed), 0.08, seed)
            )
            rep = equivalence_chain_frame_to_projection(nearest_equal_norm_parseval(f))
            assert rep.within_bound
            assert rep.solution_diagonal_defect <= 1e-8
            assert rep.ratio <= 4.0 + 1e-6

    def test_projection_to_frame_on_constant_diagonal(self):
        rep = equivalence_chain_projection_to_frame(
            nearest_equal_norm_parseval(harmonic_frame(2, 6))
        )
        assert rep.paulsen_distance <= 1e-12
        assert rep.lift_distance <= 1e-10
        assert rep.within_bound

    def test_projection_to_frame_seeded(self):
        for m, n, seed in [(2, 4, s) for s in range(15)] + [(4, 200, 0), (6, 300, 0)]:
            f = canonical_parseval(
                perturb(random_equal_norm_parseval(m, n, 100 + seed), 0.08, seed)
            )
            rep = equivalence_chain_projection_to_frame(nearest_equal_norm_parseval(f))
            assert rep.within_bound
            assert rep.extraction_residual <= 1e-9

    def test_projection_to_frame_matches_a_solve_of_the_extracted_frame(self):
        # the extracted frame is the input up to a unitary, so solving it
        # again finds the same projection Q
        for m, n, seed in [(3, 7, s) for s in range(10)] + [(4, 200, 0), (6, 300, 0)]:
            f = canonical_parseval(
                perturb(random_equal_norm_parseval(m, n, 200 + seed), 0.05, seed)
            )
            rep = equivalence_chain_projection_to_frame(nearest_equal_norm_parseval(f))
            g = frame_from_projection(projection_from_frame(f))
            resolved = nearest_equal_norm_parseval(g)
            q = projection_from_frame(resolved.solution)
            assert abs(resolved.distance - rep.paulsen_distance) <= 1e-12
            assert abs(frame_distance(g, frame_lift(g, q)) - rep.lift_distance) <= 1e-12

    def test_frame_coordinates_match_the_projection_reference(self):
        # Chain 4 is the N x N computation bit for bit; chain 2's lift is the
        # aligned-basis lift within rounding.
        for t, f in enumerate(suite_frames("eq", 0)):
            inst = nearest_equal_norm_parseval(f)
            r4 = equivalence_chain_frame_to_projection(inst)
            r2 = equivalence_chain_projection_to_frame(inst)
            p = projection_from_frame(f)
            q = projection_from_frame(inst.solution)
            dist = proj_distance(p, q)
            assert r4.projection_distance == r2.projection_distance == dist, t
            assert abs(r4.solution_diagonal_defect - diagonal_defect(q)) <= 1e-10, t
            extracted = frame_from_projection(p)
            lift = frame_distance(extracted, aligned_lift(extracted, q))
            assert abs(r2.lift_distance - lift) <= 1e-10, t
            assert abs(r2.ratio - chain_bound(lift, 2.0, dist)["ratio"]) <= 1e-10, t

    def test_extraction_residual_matches_the_gram_reference(self):
        # read from the QR's triangular factor; the N x N Grams are the reference
        tall = canonical_parseval(perturb(random_equal_norm_parseval(4, 1000, 1), 0.05, 2))
        for t, f in enumerate([*suite_frames("eq", 0), tall]):
            r2 = equivalence_chain_projection_to_frame(nearest_equal_norm_parseval(f))
            extracted = Frame(np.conj(np.linalg.qr(np.conj(f.vectors))[0]))
            reference = hs_norm(gram(extracted) - gram(f))
            assert abs(r2.extraction_residual - reference) <= 1e-14, t

    def test_both_chains_form_one_projection_distance(self, monkeypatch):
        f = canonical_parseval(perturb(random_equal_norm_parseval(3, 8, 1), 0.05, 2))
        inst = nearest_equal_norm_parseval(f)
        calls = []
        distance = paulsen.analysis_image_distance

        def counting(*args):
            calls.append(args)
            return distance(*args)

        monkeypatch.setattr(paulsen, "analysis_image_distance", counting)
        r4 = equivalence_chain_frame_to_projection(inst)
        r2 = equivalence_chain_projection_to_frame(inst)
        assert len(calls) == 1
        assert r4.projection_distance == r2.projection_distance == inst.projection_distance

    def test_rejects_non_parseval_frame(self):
        f = Frame(1.1 * harmonic_frame(2, 6).vectors)
        with pytest.raises(ValueError, match="not Parseval"):
            equivalence_chain_frame_to_projection(nearest_equal_norm_parseval(f))

    def test_checks_parseval_before_convergence(self):
        f = Frame(1.1 * perturb(harmonic_frame(2, 5), 0.2, 3).vectors)
        inst = nearest_equal_norm_parseval(f, SolverConfig(max_iterations=1))
        assert not inst.converged
        with pytest.raises(ValueError, match="not Parseval"):
            equivalence_chain_frame_to_projection(inst)

    def test_propagates_non_convergence(self):
        f = canonical_parseval(perturb(harmonic_frame(2, 5), 0.2, 3))
        with pytest.raises(ConvergenceError):
            equivalence_chain_frame_to_projection(
                nearest_equal_norm_parseval(f, SolverConfig(max_iterations=1))
            )

    def test_projection_to_frame_checks_parseval_then_convergence(self):
        f = Frame(1.1 * harmonic_frame(2, 6).vectors)
        with pytest.raises(ValueError, match="not Parseval"):
            equivalence_chain_projection_to_frame(nearest_equal_norm_parseval(f))
        f = Frame(1.1 * perturb(harmonic_frame(2, 5), 0.2, 3).vectors)
        inst = nearest_equal_norm_parseval(f, SolverConfig(max_iterations=1))
        with pytest.raises(ValueError, match="not Parseval"):
            equivalence_chain_projection_to_frame(inst)
        f = canonical_parseval(perturb(harmonic_frame(2, 5), 0.2, 3))
        with pytest.raises(ConvergenceError):
            equivalence_chain_projection_to_frame(
                nearest_equal_norm_parseval(f, SolverConfig(max_iterations=1))
            )
