"""Orthogonal projections, principal angles, chordal distance, and the
alignment machinery that moves between Parseval frames and projections.

Projections of rank M on C^N stand in for M-dimensional subspaces (their
ranges).  The central quantities:

* ``proj_distance``   d(P, Q) = sum_i ||P e_i - Q e_i||^2 = ||P - Q||_HS^2
* ``principal_angles``  cosines are singular values of A^H B for the range
  bases A, B (basis independent); the same SVD gives the principal vectors
* ``chordal_sq``      sum_j sin^2(theta_j) = M - Tr PQ = d(P, Q) / 2
* ``frame_lift``      given a Parseval frame F and a target projection Q,
  the Parseval frame G with Gram(G) = Q nearest to F (a Procrustes
  rotation), and sum ||f_i - g_i||^2 <= d(Gram(F), Q)
"""

from dataclasses import dataclass

import numpy as np

from .frames import Frame, frame_bounds, gram, norm_defect, parseval_defect
from .linalg import as_matrix, herm_eig, hs_norm

__all__ = [
    "Projection",
    "PrincipalAngles",
    "require_parseval",
    "projection_from_frame",
    "frame_from_projection",
    "diagonal_defect",
    "proj_distance",
    "principal_angles",
    "chordal_sq",
    "procrustes_rotate",
    "frame_lift",
]

# Principal-angle cosines may overshoot 1 by roundoff; anything beyond this
# indicates a bug rather than accumulation error.
COSINE_OVERSHOOT = 1e-12

PARSEVAL_ATOL = 1e-8


class Projection:
    """N x N Hermitian idempotent matrix of rank M.

    Validation (relative to max(1, HS norm)): Hermiticity and idempotency
    within ``atol``, trace within 1e-8 of the rank inferred from the
    eigenvalue split at 1/2, and a spectrum that splits at that rank.  One
    eigendecomposition serves all of it; of it only the range basis is
    kept, as :attr:`basis`.
    """

    __slots__ = ("_matrix", "_rank", "_basis")

    def __init__(self, matrix, *, atol: float = 1e-9):
        p = as_matrix(matrix, "matrix")
        n, n2 = p.shape
        if n != n2:
            raise ValueError(f"projection matrix must be square, got shape {p.shape}")
        scale = max(1.0, hs_norm(p))
        herm_defect = hs_norm(p - p.conj().T)
        if herm_defect > atol * scale:
            raise ValueError(f"matrix is not Hermitian: defect {herm_defect:.3e}")
        p = 0.5 * (p + p.conj().T)
        evals, evecs = herm_eig(p)
        # ||P^2 - P||_HS = ||lambda^2 - lambda|| for Hermitian P
        idem_defect = hs_norm(evals * evals - evals)
        if idem_defect > atol * scale:
            raise ValueError(f"matrix is not idempotent: defect {idem_defect:.3e}")
        rank = int(np.count_nonzero(evals > 0.5))
        if rank == 0:
            raise ValueError("projection has rank 0")
        trace = float(np.trace(p).real)
        if abs(trace - rank) > 1e-8 * max(1.0, rank):
            raise ValueError(f"trace {trace!r} is not consistent with rank {rank}")
        # Each eigenvalue lies within 1e-6 of 0 or 1 unless a loose atol let
        # a matrix that is no projection through.
        k = n - rank
        if evals[k] < 1.0 - 1e-6 or (k > 0 and evals[k - 1] > 1e-6):
            raise ValueError("projection spectrum does not split at rank; matrix is corrupt")
        basis = np.ascontiguousarray(evecs[:, k:])
        p.flags.writeable = False
        basis.flags.writeable = False
        self._matrix = p
        self._rank = rank
        self._basis = basis

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def size(self) -> int:
        return self._matrix.shape[0]

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def basis(self) -> np.ndarray:
        """Read-only N x M matrix with orthonormal columns spanning range(P):
        the eigenvectors of the top ``rank`` eigenvalues."""
        return self._basis

    def __repr__(self) -> str:
        return f"Projection(size={self.size}, rank={self.rank})"


@dataclass(frozen=True)
class PrincipalAngles:
    """Angles between two equal-rank subspaces, cosines descending in [0, 1],
    and orthonormal basis matrices of the two ranges, column-paired along
    the angles: <a_j, b_j> = cos(theta_j) (real, nonnegative),
    <a_j, b_k> = 0 for j != k, and ||a_j - b_j||^2 = 4 sin^2(theta_j / 2).
    """

    cosines: np.ndarray
    angles: np.ndarray
    first: np.ndarray
    second: np.ndarray

    def sin_sq_sum(self) -> float:
        return float(np.sum(np.sin(self.angles) ** 2))

    def pair_distance_sq_sum(self) -> float:
        return float(np.sum(np.abs(self.first - self.second) ** 2))


def require_parseval(frame: Frame) -> None:
    """Raise ``ValueError`` unless the frame's Parseval defect is at most
    ``PARSEVAL_ATOL``, so that its Gram matrix is a projection."""
    eps = parseval_defect(*frame_bounds(frame))
    if eps > PARSEVAL_ATOL:
        raise ValueError(f"frame is not Parseval: defect {eps:.3e} exceeds {PARSEVAL_ATOL:.0e}")


def projection_from_frame(frame: Frame) -> Projection:
    """Gram matrix of a Parseval frame as the projection onto its analysis range."""
    require_parseval(frame)
    # Wrap tolerance is looser than the gate: a frame at the gate boundary
    # produces a Gram whose idempotency defect is of the same order.
    return Projection(gram(frame), atol=10.0 * PARSEVAL_ATOL)


def frame_from_projection(p: Projection) -> Frame:
    """Parseval frame {P e_i} in coordinates of an orthonormal basis of range(P).

    The resulting frame's Gram matrix reproduces ``p.matrix``.
    """
    return Frame(np.conj(p.basis))


def diagonal_defect(p: Projection) -> float:
    """Smallest eps with (1-eps) M/N <= P_ii <= (1+eps) M/N for all i."""
    return norm_defect(np.real(np.diagonal(p.matrix)), p.rank / p.size)


def proj_distance(p: Projection, q: Projection) -> float:
    """d(P, Q) = sum_i ||P e_i - Q e_i||^2 = ||P - Q||_HS^2."""
    if p.size != q.size:
        raise ValueError(f"projection sizes differ: {p.size} vs {q.size}")
    return hs_norm(p.matrix - q.matrix) ** 2


def _check_equal_ranks(p: Projection, q: Projection) -> None:
    if p.size != q.size:
        raise ValueError(f"projection sizes differ: {p.size} vs {q.size}")
    if p.rank != q.rank:
        raise ValueError(f"projection ranks differ: {p.rank} vs {q.rank}")


def _clamped_cosines(s: np.ndarray) -> np.ndarray:
    if s.size and float(s[0]) > 1.0 + COSINE_OVERSHOOT:
        raise ArithmeticError(f"principal-angle cosine overshoot: {float(s[0])!r}")
    return np.clip(s, 0.0, 1.0)


def principal_angles(p: Projection, q: Projection) -> PrincipalAngles:
    """Principal angles and vectors of range(P) and range(Q) from one SVD
    U S V^H of A^H B for their range bases A and B: the cosines S and the
    paired bases A U and B V.  The singular vectors' phases make each
    <a_j, b_j> real and nonnegative, as the pairing needs over C."""
    _check_equal_ranks(p, q)
    a, b = p.basis, q.basis
    u, s, vh = np.linalg.svd(a.conj().T @ b)
    cos = _clamped_cosines(s)
    return PrincipalAngles(cosines=cos, angles=np.arccos(cos), first=a @ u, second=b @ vh.conj().T)


def chordal_sq(p: Projection, q: Projection) -> float:
    """Squared chordal distance M - Tr PQ between the two ranges."""
    _check_equal_ranks(p, q)
    return float(p.rank - np.trace(p.matrix @ q.matrix).real)


def procrustes_rotate(vectors: np.ndarray, onto: np.ndarray) -> np.ndarray:
    """(N, M) frame vectors V times the unitary W minimising sum_i ||v_i W - o_i||^2
    for the vectors O of ``onto`` (orthogonal Procrustes: W = L R for the SVD
    L S R of V^H O).  Of the frames with V's Gram matrix, this is the nearest to O."""
    left, _, right = np.linalg.svd(vectors.conj().T @ onto)
    return vectors @ (left @ right)


def frame_lift(frame: Frame, q: Projection) -> Frame:
    """Parseval frame G with Gram(G) = Q nearest to a Parseval frame F: the
    frame of :func:`frame_from_projection` rotated onto F by
    :func:`procrustes_rotate`.  With c_j the principal cosines of the two
    ranges, sum_i ||f_i - g_i||^2 = 2 sum_j (1 - c_j) <= d(Gram F, Q), and if
    Q has constant diagonal the output is equal norm.
    """
    require_parseval(frame)
    if q.size != frame.n_vectors:
        raise ValueError(f"projection size {q.size} != frame vector count {frame.n_vectors}")
    if q.rank != frame.dim:
        raise ValueError(f"projection rank {q.rank} != frame dimension {frame.dim}")
    return Frame(procrustes_rotate(np.conj(q.basis), frame.vectors))
