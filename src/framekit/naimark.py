"""Naimark complements of Parseval frames and the reduction they induce.

A Parseval frame of N vectors for C^M has Gram matrix P, a rank-M
projection, and its analysis matrix is an orthonormal basis of range(P).
The complement frame realizes I - P as the Gram of N vectors in dimension
N - M; its analysis matrix, from a complete QR, is an orthonormal basis of
range(P)'s complement.  Norms satisfy ||comp_i||^2 = 1 - ||f_i||^2, so an
equal-norm defect eps on the frame transfers to at most eps * M / (N - M)
on the complement.  Solving the equal-norm nearness problem on the
complement and lifting back costs at most a factor 8 in distance, which
lets every instance be reduced to one with N <= 2 * dimension.
"""

from dataclasses import dataclass

import numpy as np

from .frames import Frame, defects, vector_distance
from .paulsen import PaulsenInstance, SolverConfig, chain_bound, nearest_equal_norm_parseval
from .subspaces import procrustes_rotate, require_parseval

__all__ = [
    "NaimarkReductionReport",
    "complement_defect_bound",
    "naimark_branch",
    "naimark_complement",
    "naimark_reduction_check",
    "reduce_to_small",
]


def _complement_vectors(vectors: np.ndarray) -> np.ndarray:
    """Vectors whose analysis matrix spans range(conj(vectors))'s complement (complete QR)."""
    q = np.linalg.qr(np.conj(vectors), mode="complete")[0]
    return np.conj(q[:, vectors.shape[1] :])


def naimark_complement(frame: Frame) -> Frame:
    """Parseval frame of N vectors for dimension N - M with Gram I - Gram(F)."""
    require_parseval(frame)
    if frame.n_vectors == frame.dim:
        raise ValueError("complement dimension is zero: frame has n_vectors == dim")
    return Frame(_complement_vectors(frame.vectors))


def complement_defect_bound(eps: float, m: int, n: int) -> float:
    """eps * M / (N - M): the complement's equal-norm defect bound, for F's defect eps."""
    return eps * m / (n - m)


@dataclass(frozen=True)
class NaimarkReductionReport:
    """Per-instance check of the complement route: solve the equal-norm
    problem on the complement, map the solved Gram back, lift, and compare
    d(F, lifted) against 8x the complement distance; ``bound_slack`` is the excess."""

    equal_norm_eps: float
    complement_equal_norm_eps: float
    transfer_bound: float
    complement_distance: float
    projection_distance: float
    lift_distance: float
    ratio: float
    bound_slack: float
    within_bound: bool
    complement_instance: PaulsenInstance


def naimark_reduction_check(
    frame: Frame, cfg: SolverConfig | None = None, start: np.ndarray | None = None
) -> NaimarkReductionReport:
    """Solve the complement of the Parseval ``frame`` and lift the solution
    back (see :class:`NaimarkReductionReport`).

    ``start`` holds the log-weights of a solve of ``frame``, or of any frame
    with the same analysis range (``PaulsenInstance.log_weights``).  The
    complement's analysis range is the orthogonal complement of the weighted
    one, so its solve starts from ``-start``; without it, from zero weights.
    """
    comp = naimark_complement(frame)
    eps = defects(frame).equal_norm_eps
    if start is not None:
        start = -np.asarray(start, dtype=np.float64)
    instance = nearest_equal_norm_parseval(comp, cfg, start).require_converged()
    lifted = procrustes_rotate(_complement_vectors(instance.solution.vectors), frame.vectors)
    lift_distance = vector_distance(frame.vectors, lifted)
    return NaimarkReductionReport(
        equal_norm_eps=eps,
        complement_equal_norm_eps=defects(comp).equal_norm_eps,
        transfer_bound=complement_defect_bound(eps, frame.dim, frame.n_vectors),
        complement_distance=instance.distance,
        projection_distance=instance.projection_distance,
        lift_distance=lift_distance,
        complement_instance=instance,
        **chain_bound(lift_distance, 8.0, instance.distance),
    )


def naimark_branch(m: int, n: int) -> str:
    """``"original"`` when N <= 2M, otherwise ``"complemented"``: the
    complement of N vectors in dimension N - M then has N <= 2 (N - M).

    The boundary N == 2M keeps the original.
    """
    return "original" if n <= 2 * m else "complemented"


def reduce_to_small(frame: Frame) -> tuple[Frame, str]:
    """Return the frame or its Naimark complement, flagged by ``naimark_branch``."""
    branch = naimark_branch(frame.dim, frame.n_vectors)
    if branch == "original":
        return frame, branch
    return naimark_complement(frame), branch
