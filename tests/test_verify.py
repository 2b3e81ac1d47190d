import pytest

from framekit.verify import run_suite


@pytest.mark.parametrize(
    "suite,trials",
    [("geometry", 60), ("equivalence", 40), ("naimark", 40), ("admissible", 300)],
)
def test_suite_passes(suite, trials):
    checks = run_suite(suite, seed=3, trials=trials)
    failing = [c for c in checks if not c.passed]
    assert not failing, [f"{c.name}: worst={c.worst} limit={c.limit}" for c in failing]


def test_admissible_suite_passes_on_a_seed_that_needs_the_guard():
    # at this seed an Anderson step accepted without the defect guard, or
    # judged before its rescale onto the norm set, leaves prescribed-norm
    # solves unconverged (among them one of 4 vectors in C^3)
    checks = run_suite("admissible", seed=14, trials=200)
    failing = [c for c in checks if not c.passed]
    assert not failing, [f"{c.name}: worst={c.worst} limit={c.limit}" for c in failing]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("bogus")


def test_suites_are_deterministic():
    a = run_suite("geometry", seed=5, trials=10)
    b = run_suite("geometry", seed=5, trials=10)
    assert [(c.name, c.worst) for c in a] == [(c.name, c.worst) for c in b]
