import numpy as np
import pytest

from framekit import (
    Frame,
    aligned_bases,
    analysis_matrix,
    canonical_parseval,
    derive_seed,
    perturb,
    projection_from_frame,
    random_equal_norm_parseval,
)
from framekit.verify import LIMITS


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def complex_gaussian(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def within(check: str, slack, instance=None) -> None:
    """Assert a slack (or a worst slack) against the verify suites' limit for
    ``check``, naming the instance on failure."""
    assert slack <= LIMITS[check], f"{check}: slack {slack!r} over {LIMITS[check]} at {instance}"


def aligned_lift(f, q):
    """N x N reference for the lift of a Parseval frame F onto a projection Q:
    bases of range(Gram F) and range(Q) paired along the principal angles,
    F identified with the first through C = A^H T_F, and the second carried
    back through C."""
    ab = aligned_bases(projection_from_frame(f), q)
    return Frame(np.conj(ab.second @ (ab.first.conj().T @ analysis_matrix(f))))


def suite_perturbed(label: str, least_extra: int, seed: int = 0, trials: int = 100):
    """The perturbed frames behind the Parseval inputs of the ``equivalence``
    (label "eq", N >= M) and ``naimark`` (label "nk", N > M) suites at
    ``seed``, one per trial."""
    rng = np.random.default_rng(derive_seed(seed, label))
    for t in range(trials):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(m + least_extra, 19))
        eps = float(rng.uniform(0.01, 0.1))
        base = random_equal_norm_parseval(m, n, derive_seed(seed, label + "b", t))
        yield perturb(base, eps, derive_seed(seed, label + "p", t))


def suite_frames(label: str, least_extra: int, seed: int = 0, trials: int = 100):
    """The Parseval inputs of the ``equivalence`` and ``naimark`` suites: the
    canonical Parseval frames of ``suite_perturbed``."""
    for f in suite_perturbed(label, least_extra, seed, trials):
        yield canonical_parseval(f)


def warm_start_inputs():
    """Perturbed frames of the ``equivalence`` suite's shapes, and one at
    (4, 200), for the warm-start identities."""
    yield from suite_perturbed("eq", 0)
    yield perturb(random_equal_norm_parseval(4, 200, 1), 0.05, 2)


def far_start(n: int, seed) -> np.ndarray:
    """Seeded log-weights of scale 3, far from any solve's."""
    return 3.0 * np.random.default_rng(derive_seed(seed, "far")).standard_normal(n)


def _record_calls(monkeypatch, name: str) -> list:
    calls = []
    fn = getattr(np.linalg, name)

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return fn(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


@pytest.fixture
def eigh_calls(monkeypatch):
    """Record the shape of every ``numpy.linalg.eigh`` argument from here on."""
    return _record_calls(monkeypatch, "eigh")


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Record the shape of every ``numpy.linalg.eigvalsh`` argument from here on."""
    return _record_calls(monkeypatch, "eigvalsh")
