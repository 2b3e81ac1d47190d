"""Dense complex linear-algebra kernel.

Thin, contract-checked wrappers around LAPACK (via ``numpy.linalg``): the
validated Hermitian eigendecomposition that every ``Frame`` and
``Projection`` runs on construction, and the inverse square root taken
from it.
All routines take and return 2-D ``complex128`` arrays; real input is
embedded with a zero imaginary part.  Hermitian inputs are symmetrized
before decomposition to absorb accumulation error.

Not every decomposition goes through here.  The Newton solver calls
``numpy.linalg`` directly on its raw arrays, with no validation per step:
``eigh`` of each weighted frame operator (ascending eigenvalues),
``eigvalsh`` of each iterate's, ``solve`` for each Newton step and ``svd``
for the closing Procrustes rotation.
``subspaces`` calls ``numpy.linalg.svd`` for principal angles, aligned bases
and every lift's Procrustes rotation, and ``numpy.linalg.qr`` serves
``naimark``'s complement bases, chain 2's extracted frame and
``paulsen.haar_unitary``.
"""

from typing import NamedTuple

import numpy as np

__all__ = [
    "SingularMatrixError",
    "HermEig",
    "as_matrix",
    "hs_norm",
    "herm_eig",
    "clears_floor",
    "inv_sqrt_eig",
]

EIG_FLOOR = 1e-12


class SingularMatrixError(np.linalg.LinAlgError):
    """A nominally positive-definite matrix is numerically singular."""


class HermEig(NamedTuple):
    """Hermitian eigendecomposition, eigenvalues sorted descending."""

    eigenvalues: np.ndarray  # real, descending
    eigenvectors: np.ndarray  # unitary; column j pairs with eigenvalues[j]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite 2-D complex128 array, validating shape."""
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError(f"{name} must have positive dimensions, got shape {arr.shape}")
    arr = arr.astype(np.complex128, copy=False)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return arr


def hs_norm(a: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(a))


def herm_eig(h) -> HermEig:
    """Eigendecomposition of a Hermitian matrix.

    The input is replaced by (H + H^H)/2 before decomposing, so callers may
    pass matrices that are Hermitian only up to roundoff.
    """
    h = as_matrix(h, "H")
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"H must be square, got shape {h.shape}")
    h = 0.5 * (h + h.conj().T)
    evals, evecs = np.linalg.eigh(h)
    return HermEig(np.ascontiguousarray(evals[::-1]), np.ascontiguousarray(evecs[:, ::-1]))


def clears_floor(lam_min: float, lam_max: float) -> bool:
    """Whether the smallest eigenvalue lies above ``EIG_FLOOR`` times the
    largest, a test that does not depend on the matrix's scale."""
    return bool(lam_min > EIG_FLOOR * lam_max)


def inv_sqrt_eig(decomp: HermEig) -> np.ndarray:
    """Inverse square root of a Hermitian matrix from its eigendecomposition.

    Returns the Hermitian R with R @ S @ R = I.  Raises
    :class:`SingularMatrixError` when the spectrum fails :func:`clears_floor`.
    """
    lam_min = float(decomp.eigenvalues[-1])
    lam_max = float(decomp.eigenvalues[0])
    if not clears_floor(lam_min, lam_max):
        raise SingularMatrixError(
            f"matrix is numerically singular: smallest eigenvalue "
            f"{lam_min:.6e} <= {EIG_FLOOR:.0e} x largest eigenvalue {lam_max:.6e}"
        )
    v = decomp.eigenvectors
    r = (v * decomp.eigenvalues**-0.5) @ v.conj().T
    return 0.5 * (r + r.conj().T)
