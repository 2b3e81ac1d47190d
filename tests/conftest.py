import numpy as np
import pytest

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
