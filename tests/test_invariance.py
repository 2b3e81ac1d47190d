"""Property tests: the solved distance does not depend on the order of the
vectors or on a unitary change of basis, the canonical Parseval frame and
the solve do not depend on the input's scale, and every solve, converged or
not, returns an iterate no worse than its input with a documented stop
reason."""

import re

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from framekit import (
    Frame,
    PaulsenInstance,
    SolverConfig,
    canonical_parseval,
    defects,
    feasible_norm_targets,
    haar_unitary,
    nearest_equal_norm_parseval,
    nearest_prescribed_norm_parseval,
    perturb,
    prescribed_norm_defect,
    random_equal_norm_parseval,
)

STOP_REASONS = set(re.findall(r'"(\w+)"', PaulsenInstance.__doc__))


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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(instances(), st.floats(-7.0, 7.0))
def test_canonical_parseval_and_solve_do_not_depend_on_scale(instance, log10_c):
    f, _ = instance
    scaled = Frame(10.0**log10_c * f.vectors)
    diff = canonical_parseval(scaled).vectors - canonical_parseval(f).vectors
    assert np.max(np.abs(diff)) <= 1e-12
    assert nearest_equal_norm_parseval(scaled).converged


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(instances(), st.integers(1, 30), st.booleans())
def test_solve_never_worse_than_its_input(instance, max_iterations, prescribed):
    # A cap of a few iterations stops some solves unconverged; every stop
    # returns the best iterate, whose defect cannot exceed the input's
    # (the instance's eps).
    f, seed = instance
    n, m = f.vectors.shape
    cfg = SolverConfig(max_iterations=max_iterations)
    if prescribed:
        seq = feasible_norm_targets(m, n, np.random.default_rng(seed))
        inst = nearest_prescribed_norm_parseval(f, seq, cfg)
        solved = max(defects(inst.solution).parseval_eps, prescribed_norm_defect(inst.solution, seq))
    else:
        inst = nearest_equal_norm_parseval(f, cfg)
        solved = defects(inst.solution).max()
    assert inst.stop_reason in STOP_REASONS
    assert solved <= inst.eps
