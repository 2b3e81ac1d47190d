import numpy as np
import pytest

from framekit.linalg import as_matrix, herm_eig, hs_norm

from conftest import complex_gaussian


def test_herm_eig_identity():
    out = herm_eig(np.eye(3))
    assert np.allclose(out.eigenvalues, [1.0, 1.0, 1.0])
    v = out.eigenvectors
    assert np.allclose(v.conj().T @ v, np.eye(3))


def test_herm_eig_diagonal():
    out = herm_eig(np.diag([2.0, 1.0]))
    assert np.allclose(out.eigenvalues, [1.0, 2.0])
    assert np.allclose(np.abs(out.eigenvectors), [[0.0, 1.0], [1.0, 0.0]])


def test_herm_eig_ascending_and_reconstruction(rng):
    for _ in range(100):
        h = complex_gaussian(rng, (8, 8))
        h = h + h.conj().T
        out = herm_eig(h)
        assert out.eigenvalues.dtype.kind == "f"
        assert np.all(np.diff(out.eigenvalues) >= 0)
        recon = (out.eigenvectors * out.eigenvalues) @ out.eigenvectors.conj().T
        assert hs_norm(h - recon) <= 1e-9 * max(1.0, hs_norm(h))


def test_herm_eig_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        herm_eig(np.ones((2, 3)))


def test_herm_eig_projection_eigenvalues_near_01(rng):
    from framekit import gram, random_parseval

    for seed in range(20):
        p = gram(random_parseval(3, 9, seed))
        evals = herm_eig(p).eigenvalues
        dist = np.minimum(np.abs(evals), np.abs(evals - 1.0))
        assert np.max(dist) <= 1e-8


def test_as_matrix_rejects_nan_and_bad_shape():
    with pytest.raises(ValueError, match="NaN"):
        as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="2-D"):
        as_matrix(np.ones(3))
