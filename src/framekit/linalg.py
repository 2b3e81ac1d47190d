"""Dense complex linear-algebra kernel.

Thin, contract-checked wrappers around LAPACK (via ``numpy.linalg``): the
validated Hermitian eigendecomposition that every ``Frame`` and
``Projection`` runs on construction, in numpy's one convention (eigenvalues
ascending), and ``clears_floor``, the test of a spectrum's spanning floor.
All routines take 2-D ``complex128`` arrays; real input is embedded with a
zero imaginary part.  Hermitian inputs are symmetrized before
decomposition to absorb accumulation error.

Not every decomposition goes through here.  The Newton solver calls
``numpy.linalg`` directly on its raw arrays, with no validation per step:
``eigh`` of each weighted frame operator, ``eigvalsh`` of each iterate's,
``solve`` for each Newton step and ``svd`` for the closing Procrustes
rotation.
``subspaces`` calls ``numpy.linalg.svd`` for principal angles, aligned bases
and every lift's Procrustes rotation, and ``numpy.linalg.qr`` serves
``naimark``'s complement bases, chain 2's extracted frame and
``paulsen.haar_unitary``.
"""

import numpy as np

__all__ = [
    "as_matrix",
    "hs_norm",
    "herm_eig",
    "clears_floor",
]

EIG_FLOOR = 1e-12


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


def herm_eig(h):
    """Eigendecomposition of a Hermitian matrix: ``numpy.linalg.eigh``'s
    result, eigenvalues ascending.

    The input is replaced by (H + H^H)/2 before decomposing, so callers may
    pass matrices that are Hermitian only up to roundoff.
    """
    h = as_matrix(h, "H")
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"H must be square, got shape {h.shape}")
    h = 0.5 * (h + h.conj().T)
    return np.linalg.eigh(h)


def clears_floor(lam_min: float, lam_max: float) -> bool:
    """Whether the smallest eigenvalue lies above ``EIG_FLOOR`` times the
    largest, a test that does not depend on the matrix's scale."""
    return bool(lam_min > EIG_FLOOR * lam_max)
