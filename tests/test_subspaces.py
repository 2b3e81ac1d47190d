import math
import re

import numpy as np
import pytest

from conftest import aligned_lift, within
from framekit import (
    Frame,
    Projection,
    canonical_parseval,
    chordal_sq,
    defects,
    diagonal_defect,
    frame_distance,
    frame_from_projection,
    frame_lift,
    gram,
    harmonic_frame,
    herm_eig,
    hs_norm,
    principal_angles,
    proj_distance,
    projection_from_frame,
    random_equal_norm_parseval,
    random_parseval,
    random_projection_pair,
    vector_norms_sq,
)
from framekit.verify import aligned_basis_slacks, angle_sum_slack, chordal_half_slack, lift_slacks


def coordinate_projection(n, coords):
    p = np.zeros((n, n))
    for i in coords:
        p[i, i] = 1.0
    return Projection(p)


@pytest.fixture
def c4_pair():
    # rank-2 projections in C^4 sharing one coordinate direction
    return coordinate_projection(4, [0, 1]), coordinate_projection(4, [0, 2])


class TestProjectionType:
    def test_rejects_non_hermitian(self):
        m = np.array([[1.0, 0.5], [0.0, 0.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            Projection(m)

    def test_rejects_non_idempotent(self):
        with pytest.raises(ValueError, match="idempotent"):
            Projection(0.5 * np.eye(2))

    def test_rank_and_size(self):
        p = coordinate_projection(5, [1, 3])
        assert p.size == 5 and p.rank == 2

    def test_matrix_immutable(self):
        p = coordinate_projection(3, [0])
        with pytest.raises(ValueError):
            p.matrix[0, 0] = 2.0

    def test_idempotency_defect_is_the_matrix_defect(self):
        # the defect is read from the spectrum; the N x N product is the reference
        rng = np.random.default_rng(29)
        for t in range(50):
            n = int(rng.integers(1, 13))
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = 0.5 * (x + x.conj().T)
            if t % 2:
                # near a projection, where the defect is small
                u = np.linalg.qr(x)[0][:, : int(rng.integers(1, n + 1))]
                h = u @ u.conj().T + 10.0 ** rng.uniform(-6.0, -1.0) * h
            with pytest.raises(ValueError, match="not idempotent") as err:
                Projection(h)
            printed = float(re.search(r"defect (\S+)$", str(err.value)).group(1))
            reference = hs_norm(h @ h - h)
            assert abs(printed - reference) <= 1e-3 * reference, t

    def test_rejects_a_spectrum_that_does_not_split(self):
        # a loose atol lets the idempotency and trace checks pass
        with pytest.raises(ValueError, match="does not split"):
            Projection(np.diag([0.4, 0.6, 1.0]), atol=0.5)

    def test_basis_spans_the_range(self):
        for t in range(20):
            for p in random_projection_pair(t):
                basis = p.basis
                assert basis.shape == (p.size, p.rank)
                with pytest.raises(ValueError):
                    basis[0, 0] = 2.0
                assert hs_norm(basis.conj().T @ basis - np.eye(p.rank)) <= 1e-12
                assert hs_norm(p.matrix @ basis - basis) <= 1e-12


class TestDiagonalDefect:
    def test_constant_diagonal_projection(self):
        p = projection_from_frame(harmonic_frame(2, 3))
        assert diagonal_defect(p) <= 1e-10

    def test_identity_projection(self):
        assert diagonal_defect(Projection(np.eye(4))) == 0.0

    def test_coordinate_projection_defect_one(self):
        assert abs(diagonal_defect(coordinate_projection(2, [0])) - 1.0) <= 1e-12

    def test_matches_equal_norm_defect_of_frame(self):
        f = canonical_parseval(random_parseval(3, 9, 77))
        p = projection_from_frame(f)
        assert abs(diagonal_defect(p) - defects(f).equal_norm_eps) <= 1e-10


class TestProjDistance:
    def test_zero_for_equal(self, c4_pair):
        p, _ = c4_pair
        assert proj_distance(p, p) == 0.0

    def test_coordinate_example(self, c4_pair):
        p, q = c4_pair
        assert abs(proj_distance(p, q) - 2.0) <= 1e-12
        assert abs(proj_distance(q, p) - 2.0) <= 1e-12

    def test_orthogonal_ranges(self):
        p = coordinate_projection(6, [0, 1])
        q = coordinate_projection(6, [2, 3])
        assert abs(proj_distance(p, q) - 2.0 * 2) <= 1e-12

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="sizes differ"):
            proj_distance(coordinate_projection(3, [0]), coordinate_projection(4, [0]))


class TestPrincipalAngles:
    def test_equal_projections_have_zero_angles(self):
        p = projection_from_frame(random_parseval(3, 7, 5))
        ang = principal_angles(p, p)
        assert np.allclose(ang.cosines, 1.0)
        assert np.allclose(ang.angles, 0.0)

    def test_coordinate_example(self, c4_pair):
        p, q = c4_pair
        ang = principal_angles(p, q)
        assert np.allclose(ang.cosines, [1.0, 0.0], atol=1e-12)
        assert np.allclose(ang.angles, [0.0, math.pi / 2], atol=1e-12)

    def test_rank_mismatch(self, c4_pair):
        p, _ = c4_pair
        with pytest.raises(ValueError, match="ranks differ"):
            principal_angles(p, coordinate_projection(4, [0]))

    def test_cosines_descending_in_unit_interval(self):
        for t in range(30):
            p, q = random_projection_pair(t)
            c = principal_angles(p, q).cosines
            assert np.all(np.diff(c) <= 1e-15)
            assert np.all((0.0 <= c) & (c <= 1.0))


class TestRangeBasisReuse:
    """A projection is decomposed once, when it is validated."""

    def test_principal_angles_makes_no_decomposition(self, eigh_calls, svd_calls):
        for t in range(5):
            p, q = random_projection_pair(t)
            eigh_calls.clear()
            svd_calls.clear()
            principal_angles(p, q)
            assert eigh_calls == []
            assert svd_calls == [(p.rank, q.rank)]

    def test_frame_from_projection_decomposes_only_the_new_frame(self, eigh_calls):
        for t in range(20):
            for p in random_projection_pair(t):
                eigh_calls.clear()
                f = frame_from_projection(p)
                assert eigh_calls == [(p.rank, p.rank)]
                # a fresh decomposition of the matrix is the reference
                basis = herm_eig(p.matrix).eigenvectors[:, -p.rank :]
                assert np.array_equal(f.vectors, np.conj(basis)), t


    def test_frame_lift_decomposes_only_the_new_frame(self, eigh_calls):
        f = random_parseval(3, 8, 55)
        q = projection_from_frame(random_parseval(3, 8, 56))
        eigh_calls.clear()
        frame_lift(f, q)
        assert eigh_calls == [(3, 3)]


class TestChordal:
    def test_zero_for_equal(self, c4_pair):
        p, _ = c4_pair
        assert abs(chordal_sq(p, p)) <= 1e-12

    def test_orthogonal_ranges_give_rank(self):
        p = coordinate_projection(6, [0, 1, 2])
        q = coordinate_projection(6, [3, 4, 5])
        assert abs(chordal_sq(p, q) - 3.0) <= 1e-12

    def test_coordinate_example_matches_half_distance(self, c4_pair):
        p, q = c4_pair
        assert abs(chordal_sq(p, q) - 1.0) <= 1e-12
        assert abs(chordal_sq(p, q) - 0.5 * proj_distance(p, q)) <= 1e-12

    def test_identities_on_random_pairs(self):
        for t in range(50):
            p, q = random_projection_pair(1000 + t)
            within("chordal-equals-half-projection-distance", chordal_half_slack(p, q), t)
            within("chordal-equals-angle-sin-squared-sum", angle_sum_slack(p, q), t)


class TestAlignedBases:
    def test_equal_projections_align_exactly(self):
        p = projection_from_frame(random_parseval(2, 6, 3))
        ab = principal_angles(p, p)
        assert ab.pair_distance_sq_sum() <= 1e-18

    def test_coordinate_example_value(self, c4_pair):
        p, q = c4_pair
        # angles (0, pi/2): 4 sin^2(0) + 4 sin^2(pi/4) = 2, inside [1, 4]
        ab = principal_angles(p, q)
        s = ab.pair_distance_sq_sum()
        assert abs(s - 2.0) <= 1e-12
        dc = chordal_sq(p, q)
        assert dc - 1e-9 <= s <= 4.0 * dc + 1e-9

    def test_invariants_and_sandwich_on_random_pairs(self):
        for t in range(60):
            p, q = random_projection_pair(2000 + t)
            sandwich, pairing = aligned_basis_slacks(p, q)
            within("aligned-basis-pairing", pairing, t)
            ab = principal_angles(p, q)
            half_angles = ab.angles / 2.0
            col_dist = np.sum(np.abs(ab.first - ab.second) ** 2, axis=0)
            assert np.max(np.abs(col_dist - 4.0 * np.sin(half_angles) ** 2)) <= 1e-9
            within("aligned-basis-sandwich", sandwich, t)

    def test_columns_stay_orthonormal(self):
        p, q = random_projection_pair(999)
        ab = principal_angles(p, q)
        m = p.rank
        assert hs_norm(ab.first.conj().T @ ab.first - np.eye(m)) <= 1e-10
        assert hs_norm(ab.second.conj().T @ ab.second - np.eye(m)) <= 1e-10


class TestProjectionFromFrame:
    def test_orthonormal_basis_gives_identity(self):
        p = projection_from_frame(Frame(np.eye(3)))
        assert np.allclose(p.matrix, np.eye(3))

    def test_harmonic_constant_diagonal(self):
        p = projection_from_frame(harmonic_frame(2, 3))
        assert np.allclose(np.diagonal(p.matrix).real, 2.0 / 3.0)

    def test_rejects_non_parseval_with_defect_in_message(self):
        f = Frame(1.2 * harmonic_frame(2, 5).vectors)
        with pytest.raises(ValueError, match="not Parseval"):
            projection_from_frame(f)

    def test_roundtrip_through_frame_from_projection(self):
        p = projection_from_frame(random_parseval(3, 8, 55))
        f = frame_from_projection(p)
        assert hs_norm(gram(f) - p.matrix) <= 1e-9
        assert defects(f).parseval_eps <= 1e-9


class TestFrameLift:
    def test_lift_to_own_gram_is_identity(self):
        f = random_parseval(2, 6, 10)
        g = frame_lift(f, projection_from_frame(f))
        assert frame_distance(f, g) <= 1e-8

    def test_harmonic_to_other_equal_norm_target(self):
        f = harmonic_frame(2, 3)
        other = random_equal_norm_parseval(2, 3, 123)
        q = projection_from_frame(other)
        gram_slack, dist_slack, norm_slack = lift_slacks(f, q)
        within("frame-lift-gram-matches-target", gram_slack)
        assert defects(frame_lift(f, q)).parseval_eps <= 1e-9
        within("frame-lift-equal-norm-transfer", norm_slack)
        within("frame-lift-distance-factor-2", dist_slack)

    def test_random_cases_meet_all_postconditions(self):
        for t in range(40):
            rng = np.random.default_rng(3000 + t)
            m = int(rng.integers(1, 5))
            n = int(rng.integers(m + 1, 12))
            f = random_parseval(m, n, 4000 + t)
            q = projection_from_frame(random_parseval(m, n, 5000 + t))
            gram_slack, dist_slack, _ = lift_slacks(f, q)
            within("frame-lift-gram-matches-target", gram_slack, t)
            assert defects(frame_lift(f, q)).parseval_eps <= 1e-9
            within("frame-lift-distance-factor-2", dist_slack, t)

    def test_matches_the_aligned_basis_lift(self):
        for t in range(40):
            rng = np.random.default_rng(6000 + t)
            m = int(rng.integers(1, 7))
            n = int(rng.integers(m + 1, 19))
            f = random_parseval(m, n, 7000 + t)
            q = projection_from_frame(random_parseval(m, n, 8000 + t))
            lifted = frame_lift(f, q)
            assert np.max(np.abs(lifted.vectors - aligned_lift(f, q).vectors)) <= 1e-12, t

    def test_norms_follow_target_diagonal(self):
        f = random_parseval(2, 5, 42)
        q = projection_from_frame(random_parseval(2, 5, 43))
        g = frame_lift(f, q)
        assert np.allclose(vector_norms_sq(g), np.diagonal(q.matrix).real, atol=1e-8)

    def test_rank_and_size_mismatches(self):
        f = random_parseval(2, 6, 1)
        with pytest.raises(ValueError, match="rank"):
            frame_lift(f, projection_from_frame(random_parseval(3, 6, 2)))
        with pytest.raises(ValueError, match="size"):
            frame_lift(f, projection_from_frame(random_parseval(2, 7, 3)))

    def test_rejects_non_parseval_frame(self):
        f = Frame(1.1 * harmonic_frame(2, 6).vectors)
        q = projection_from_frame(random_parseval(2, 6, 4))
        with pytest.raises(ValueError, match="not Parseval"):
            frame_lift(f, q)
