import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def complex_gaussian(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


@pytest.fixture
def eigh_calls(monkeypatch):
    """Record the shape of every ``numpy.linalg.eigh`` argument from here on."""
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls
