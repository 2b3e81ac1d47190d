"""Naimark complements of Parseval frames and the reduction they induce.

A Parseval frame of N vectors for C^M has Gram matrix P, a rank-M
projection; the complement frame realizes I - P as the Gram of N vectors in
dimension N - M.  Norms satisfy ||comp_i||^2 = 1 - ||f_i||^2, so an
equal-norm defect eps on the frame transfers to at most eps * M / (N - M)
on the complement.  Solving the equal-norm nearness problem on the
complement and lifting back costs at most a factor 8 in distance, which
lets every instance be reduced to one with N <= 2 * dimension.
"""

from dataclasses import dataclass

import numpy as np

from .frames import Frame, defects, frame_distance, gram
from .paulsen import PaulsenInstance, SolverConfig, chain_bound, nearest_equal_norm_parseval
from .subspaces import (
    PARSEVAL_ATOL,
    Projection,
    frame_from_projection,
    frame_lift,
    proj_distance,
    projection_from_frame,
)

__all__ = [
    "NaimarkReductionReport",
    "naimark_branch",
    "naimark_complement",
    "naimark_reduction_check",
    "reduce_to_small",
]


def naimark_complement(frame: Frame) -> Frame:
    """Parseval frame of N vectors for dimension N - M with Gram I - Gram(F)."""
    eps = defects(frame).parseval_eps
    if eps > PARSEVAL_ATOL:
        raise ValueError(f"frame is not Parseval: defect {eps:.3e} exceeds {PARSEVAL_ATOL:.0e}")
    n, m = frame.n_vectors, frame.dim
    if n == m:
        raise ValueError("complement dimension is zero: frame has n_vectors == dim")
    comp = Projection(np.eye(n) - gram(frame), atol=max(1e-9, 10.0 * PARSEVAL_ATOL))
    return frame_from_projection(comp)


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


def naimark_reduction_check(frame: Frame, cfg: SolverConfig | None = None) -> NaimarkReductionReport:
    comp = naimark_complement(frame)
    eps = defects(frame).equal_norm_eps
    comp_eps = defects(comp).equal_norm_eps
    n, m = frame.n_vectors, frame.dim
    instance = nearest_equal_norm_parseval(comp, cfg).require_converged()
    q = Projection(np.eye(n) - gram(instance.solution), atol=1e-7)
    lifted = frame_lift(frame, q)
    lift_distance = frame_distance(frame, lifted)
    dist = proj_distance(projection_from_frame(frame), q)
    return NaimarkReductionReport(
        equal_norm_eps=eps,
        complement_equal_norm_eps=comp_eps,
        transfer_bound=eps * m / (n - m),
        complement_distance=instance.distance,
        projection_distance=dist,
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
