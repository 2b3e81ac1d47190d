"""Frames for finite-dimensional complex Hilbert spaces.

A frame is an ordered, spanning family of N vectors in C^M, stored as the
(N, M) array whose rows are the vectors.  Inner products are linear in the
first slot, <x, y> = sum_k x_k conj(y_k).  With vector rows V this fixes the
conventions used throughout:

* analysis matrix      T = conj(V), so (T f)_i = <f, f_i>
* frame operator       S = T^H T = V^T conj(V)
* Gram matrix          G = T T^H,  G[i, j] = <f_j, f_i>

For a Parseval frame (S = I) the Gram matrix is the orthogonal projection of
C^N onto the range of the analysis matrix, which is what ties frames to the
subspace geometry in :mod:`framekit.subspaces`.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, clears_floor, herm_eig, hs_norm

__all__ = [
    "RankDeficientError",
    "Frame",
    "FrameDefects",
    "analysis_matrix",
    "frame_operator",
    "frame_bounds",
    "gram",
    "vector_norms_sq",
    "parseval_defect",
    "norm_defect",
    "defects",
    "canonical_parseval",
    "frame_distance",
    "vector_distance",
    "frame_potential",
    "analysis_image_distance",
]


class RankDeficientError(ValueError):
    """The supplied vectors do not span the ambient space."""


class Frame:
    """Ordered spanning family of N vectors in C^M (N >= M).

    Construction validates finiteness of the vectors and of their frame
    operator (vectors so large that it overflows are rejected with a
    ``ValueError``) and the spanning property (the frame-operator spectrum
    passes :func:`framekit.linalg.clears_floor`); rank-deficient vector
    lists are rejected outright.  The eigendecomposition of the frame
    operator made for that check is kept as :attr:`eig`, and every reader
    of the spectrum reuses it.  Instances are immutable.
    """

    __slots__ = ("_vectors", "_eig")

    def __init__(self, vectors):
        v = as_matrix(vectors, "vectors")
        n, m = v.shape
        if n < m:
            raise ValueError(
                f"a frame needs at least dim vectors: got {n} vectors in dimension {m}"
            )
        v = v.copy()
        v.flags.writeable = False
        with np.errstate(over="ignore", invalid="ignore"):
            s = v.T @ v.conj()
        if not np.isfinite(s).all():
            raise ValueError(
                "vectors are too large: the frame operator overflows to Inf or NaN"
            )
        eig = herm_eig(s)
        lam_min, lam_max = float(eig.eigenvalues[0]), float(eig.eigenvalues[-1])
        if not clears_floor(lam_min, lam_max):
            raise RankDeficientError(
                f"vectors do not span C^{m}: smallest frame-operator eigenvalue "
                f"{lam_min:.3e}, largest {lam_max:.3e}"
            )
        eig.eigenvalues.flags.writeable = False
        eig.eigenvectors.flags.writeable = False
        self._vectors = v
        self._eig = eig

    @property
    def vectors(self) -> np.ndarray:
        """(N, M) array; row i is the i-th frame vector."""
        return self._vectors

    @property
    def eig(self):
        """Read-only eigendecomposition of the frame operator, as
        :func:`framekit.linalg.herm_eig` returns it: eigenvalues ascending."""
        return self._eig

    @property
    def dim(self) -> int:
        return self._vectors.shape[1]

    @property
    def n_vectors(self) -> int:
        return self._vectors.shape[0]

    def __repr__(self) -> str:
        return f"Frame(n_vectors={self.n_vectors}, dim={self.dim})"


@dataclass(frozen=True)
class FrameDefects:
    """How far a frame is from Parseval (:func:`parseval_defect`) and from
    equal norm (:func:`norm_defect` against targets M/N)."""

    parseval_eps: float
    equal_norm_eps: float

    def max(self) -> float:
        return max(self.parseval_eps, self.equal_norm_eps)


def analysis_matrix(frame: Frame) -> np.ndarray:
    """N x M matrix T with (T f)_i = <f, f_i>; row i is conj(f_i)."""
    return np.conj(frame.vectors)


def frame_operator(frame: Frame) -> np.ndarray:
    """M x M Hermitian positive-definite S = T^H T = sum_i f_i f_i^H."""
    v = frame.vectors
    s = v.T @ v.conj()
    return 0.5 * (s + s.conj().T)


def frame_bounds(frame: Frame) -> tuple[float, float]:
    """Optimal frame bounds (A, B) = extreme eigenvalues of the frame operator."""
    evals = frame.eig.eigenvalues
    return float(evals[0]), float(evals[-1])


def gram(frame: Frame) -> np.ndarray:
    """N x N Gram matrix with entries G[i, j] = <f_j, f_i>."""
    v = frame.vectors
    g = np.conj(v) @ v.T
    return 0.5 * (g + g.conj().T)


def vector_norms_sq(frame: Frame) -> np.ndarray:
    """Real array of squared vector norms ||f_i||^2."""
    return np.sum(np.abs(frame.vectors) ** 2, axis=1)


def parseval_defect(lam_min: float, lam_max: float) -> float:
    """Smallest eps with (1-eps) I <= S <= (1+eps) I, for a frame operator S
    with extreme eigenvalues ``lam_min`` and ``lam_max``."""
    return max(1.0 - float(lam_min), float(lam_max) - 1.0)


def norm_defect(norms_sq: np.ndarray, targets_sq) -> float:
    """Smallest eps with (1-eps) t_i <= ||f_i||^2 <= (1+eps) t_i for every i,
    where ``targets_sq`` holds the t_i or one t for all."""
    return float(np.abs(norms_sq / targets_sq - 1.0).max())


def defects(frame: Frame) -> FrameDefects:
    return FrameDefects(
        parseval_eps=parseval_defect(*frame_bounds(frame)),
        equal_norm_eps=norm_defect(vector_norms_sq(frame), frame.dim / frame.n_vectors),
    )


def canonical_parseval(frame: Frame) -> Frame:
    """The Parseval frame {S^{-1/2} f_i}, the closest Parseval frame to F."""
    evals, evecs = frame.eig
    r = (evecs * evals**-0.5) @ evecs.conj().T
    return Frame(frame.vectors @ (0.5 * (r + r.conj().T)).T)


def _check_same_shape(f: Frame, g: Frame) -> None:
    if f.n_vectors != g.n_vectors or f.dim != g.dim:
        raise ValueError(
            f"frames are incompatible: ({f.n_vectors}, {f.dim}) vs ({g.n_vectors}, {g.dim})"
        )


def frame_distance(f: Frame, g: Frame) -> float:
    """Summed squared vector distance sum_i ||f_i - g_i||^2."""
    _check_same_shape(f, g)
    return vector_distance(f.vectors, g.vectors)


def vector_distance(v: np.ndarray, w: np.ndarray) -> float:
    """sum_i ||v_i - w_i||^2 for two (N, M) arrays of frame vectors."""
    return float(np.sum(np.abs(v - w) ** 2))


def frame_potential(frame: Frame) -> float:
    """sum_{i,j} |<f_i, f_j>|^2 = ||Gram||_HS^2 = Tr S^2."""
    return hs_norm(gram(frame)) ** 2


def analysis_image_distance(f: Frame, g: Frame) -> float:
    """Summed squared distance between the analysis images of two frames.

    For frames with analysis matrices T_1, T_2 this is
    sum_i ||T_1 f_i - T_2 g_i||^2, computed basis-free as the squared
    Hilbert-Schmidt distance between the Gram matrices (T_1 f_i is the
    i-th column of the Gram matrix of F).
    """
    _check_same_shape(f, g)
    return hs_norm(gram(f) - gram(g)) ** 2
