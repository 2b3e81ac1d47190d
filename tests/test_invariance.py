"""Property tests: the solved distance does not depend on the order of the
vectors or on a unitary change of basis."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from framekit import (
    Frame,
    haar_unitary,
    nearest_equal_norm_parseval,
    perturb,
    random_equal_norm_parseval,
)


@st.composite
def instances(draw):
    m = draw(st.integers(2, 6))
    n = draw(st.integers(m + 1, 3 * m + 2))
    eps = draw(st.floats(0.005, 0.2))
    seed = draw(st.integers(0, 2**32 - 1))
    return perturb(random_equal_norm_parseval(m, n, seed), eps, seed), seed


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(instances())
def test_distance_invariant_under_permutation_and_unitary(instance):
    f, seed = instance
    n, m = f.vectors.shape
    rng = np.random.default_rng(seed)
    base = nearest_equal_norm_parseval(f)
    permuted = nearest_equal_norm_parseval(Frame(f.vectors[rng.permutation(n)]))
    rotated = nearest_equal_norm_parseval(Frame(f.vectors @ haar_unitary(m, rng).T))
    assert base.converged and permuted.converged and rotated.converged
    assert abs(permuted.distance - base.distance) <= 1e-8
    assert abs(rotated.distance - base.distance) <= 1e-8
