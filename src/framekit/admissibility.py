"""Feasibility tests for prescribed norm sequences.

A norm sequence is realizable by a Parseval frame for C^M exactly when the
squares sum to M and no single value exceeds 1.  Against a general positive
spectrum it is realizable exactly when the sorted squared norms are
majorized by the eigenvalues: every leading partial sum of squares stays at
or below the corresponding eigenvalue partial sum, with equal totals.  Only
the feasibility tests live here; constructing a realizing frame for an
arbitrary admissible pair is out of scope.  The prescribed-norm nearness
solver reuses the Newton loop with per-vector targets c_i = a_i^2.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .frames import Frame, defects, norm_defect, vector_norms_sq
from .paulsen import PaulsenInstance, SolverConfig

__all__ = [
    "AdmissibleSequence",
    "SpectrumSpec",
    "AdmissibilityVerdict",
    "feasible_norm_targets",
    "is_parseval_admissible",
    "is_S_admissible",
    "prescribed_norm_defect",
    "nearest_prescribed_norm_parseval",
]

SUM_SLACK = 1e-9
VALUE_SLACK = 1e-12


def _positive_floats(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D sequence")
    if not np.isfinite(arr).all() or np.any(arr <= 0.0):
        raise ValueError(f"{name} must be positive and finite")
    return arr


class AdmissibleSequence:
    """Candidate norm sequence for ``target_dim``-dimensional frames.

    ``values`` is sorted descending; the original order is retained in
    ``original`` for assigning per-vector norm targets.
    """

    __slots__ = ("values", "original", "target_dim")

    def __init__(self, values, target_dim: int):
        arr = _positive_floats(values, "values")
        dim = target_dim
        if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) or dim < 1:
            raise ValueError(f"target_dim must be an integer >= 1, got {dim!r}")
        self.original = arr.copy()
        self.values = np.sort(arr)[::-1].copy()
        self.target_dim = int(dim)

    def __len__(self) -> int:
        return self.values.size

    def __repr__(self) -> str:
        return f"AdmissibleSequence(n={len(self)}, target_dim={self.target_dim})"


class SpectrumSpec:
    """Prescribed positive eigenvalues, sorted descending."""

    __slots__ = ("eigenvalues",)

    def __init__(self, eigenvalues):
        self.eigenvalues = np.sort(_positive_floats(eigenvalues, "eigenvalues"))[::-1].copy()

    def __len__(self) -> int:
        return self.eigenvalues.size

    def __repr__(self) -> str:
        return f"SpectrumSpec(n={len(self)})"


def feasible_norm_targets(m: int, n: int, rng: np.random.Generator) -> AdmissibleSequence:
    """Random Parseval-admissible sequence of n > m norms (squares sum to m, all < 1)."""
    if n <= m:
        raise ValueError(f"need more vectors than dimensions, got n={n!r}, m={m!r}")
    a2 = rng.uniform(0.2, 1.0, size=n)
    a2 *= m / np.sum(a2)
    top = float(np.max(a2))
    if top > 0.99:
        lam = (0.99 - m / n) / (top - m / n)
        a2 = lam * a2 + (1.0 - lam) * (m / n)
    return AdmissibleSequence(np.sqrt(a2), m)


@dataclass(frozen=True)
class AdmissibilityVerdict:
    admissible: bool
    violated: str | None = None

    def __bool__(self) -> bool:
        return self.admissible

    def to_dict(self) -> dict:
        return {"admissible": self.admissible, "violated": self.violated}


def is_parseval_admissible(seq: AdmissibleSequence) -> AdmissibilityVerdict:
    """Feasible for a Parseval frame iff sum a_i^2 = target_dim and each a_i <= 1."""
    m = seq.target_dim
    total = float(np.sum(seq.values**2))
    if abs(total - m) > SUM_SLACK * m:
        return AdmissibilityVerdict(False, f"sum of squares {total!r} != target_dim {m}")
    top = float(seq.values[0])
    if top > 1.0 + VALUE_SLACK:
        return AdmissibilityVerdict(False, f"largest value {top!r} exceeds 1")
    return AdmissibilityVerdict(True)


def is_S_admissible(seq: AdmissibleSequence, spectrum: SpectrumSpec) -> AdmissibilityVerdict:
    """Feasible for a frame with the prescribed positive spectrum iff the
    sorted squared norms are majorized by the eigenvalues.

    Requires at least as many norms as eigenvalues.  Partial sums are
    compared for k = 1 .. len(spectrum) with slack 1e-9 and the totals
    must agree within 1e-9.
    """
    if len(seq) < len(spectrum):
        raise ValueError(
            f"need at least as many norms as eigenvalues: {len(seq)} < {len(spectrum)}"
        )
    sq = seq.values**2
    partial_norms = np.cumsum(sq)
    partial_eigs = np.cumsum(spectrum.eigenvalues)
    k = len(spectrum)
    excess = partial_norms[:k] - partial_eigs
    worst = int(np.argmax(excess))
    if float(excess[worst]) > SUM_SLACK:
        return AdmissibilityVerdict(
            False,
            f"partial sum {float(partial_norms[worst])!r} exceeds "
            f"{float(partial_eigs[worst])!r} at k={worst + 1}",
        )
    total_norms = float(partial_norms[-1])
    total_eigs = float(partial_eigs[-1])
    if abs(total_norms - total_eigs) > SUM_SLACK:
        return AdmissibilityVerdict(
            False, f"total {total_norms!r} != eigenvalue sum {total_eigs!r}"
        )
    return AdmissibilityVerdict(True)


def prescribed_norm_defect(frame: Frame, seq: AdmissibleSequence) -> float:
    """Smallest eps with (1-eps) a_i^2 <= ||f_i||^2 <= (1+eps) a_i^2 (original order)."""
    return norm_defect(vector_norms_sq(frame), seq.original**2)


def nearest_prescribed_norm_parseval(
    frame: Frame, seq: AdmissibleSequence, cfg: SolverConfig | None = None
) -> PaulsenInstance:
    """The Newton solver with per-vector norm targets a_i (original order).

    The target sequence must be Parseval admissible for the frame's
    dimension and match its vector count.
    """
    cfg = cfg or SolverConfig()
    if seq.target_dim != frame.dim:
        raise ValueError(f"sequence target_dim {seq.target_dim} != frame dim {frame.dim}")
    if len(seq) != frame.n_vectors:
        raise ValueError(f"sequence length {len(seq)} != vector count {frame.n_vectors}")
    verdict = is_parseval_admissible(seq)
    if not verdict:
        raise ValueError(f"norm sequence is not admissible: {verdict.violated}")
    eps = max(defects(frame).parseval_eps, prescribed_norm_defect(frame, seq))
    # The verdict admits squares summing to M within SUM_SLACK, above a solve's
    # tolerance; a Parseval frame's squared norms sum to M, so the solve aims there.
    targets_sq = seq.original**2
    return PaulsenInstance.solve(frame, targets_sq * (frame.dim / targets_sq.sum()), cfg, eps)
