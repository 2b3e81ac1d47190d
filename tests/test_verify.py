import pytest

from framekit.verify import run_suite

# Every check's worst at seed 5 by repr, read on Python 3.11 with numpy 2.4
# and OpenBLAS 0.3.  A change that moves these bits on purpose updates them
# and names the step that moved them.
PINNED_WORSTS = {
    ("geometry", 10): {
        "chordal-equals-half-projection-distance": "1.3322676295502451e-14",
        "chordal-equals-angle-sin-squared-sum": "2.1538326677728037e-14",
        "aligned-basis-sandwich": "5.3290705182007514e-14",
        "aligned-basis-pairing": "2.6790623659799457e-15",
        "principal-angle-basis-independence": "8.881784197001252e-16",
        "coordinate-permutation-invariance": "8.881784197001252e-16",
        "parseval-gram-idempotent": "5.277167445084866e-15",
        "parseval-gram-diagonal-norms": "3.3306690738754696e-16",
        "gram-image-distance-factor-4": "0.0",
        "frame-lift-gram-matches-target": "2.1488929551468695e-14",
        "frame-lift-distance-factor-2": "0.0",
        "frame-lift-equal-norm-transfer": "2.3314683517128287e-15",
        "canonical-parseval-idempotent": "5.871720038625605e-30",
        "canonical-parseval-distance-bound": "0.0",
        "canonical-parseval-norm-bounds": "0.0",
    },
    ("equivalence", 6): {
        "frame-to-projection-factor-4": "0.0",
        "solved-gram-constant-diagonal": "1.1102230246251565e-15",
        "projection-to-frame-factor-2": "0.0",
        "projection-frame-extraction": "3.602805222139067e-15",
        "solver-beats-unconstrained-nearest": "0.0",
        "solver-unitary-invariant-distance": "7.45931094670027e-17",
        "solver-permutation-equivariant": "1.159106867033638e-15",
    },
    ("naimark", 6): {
        "complement-gram-identity": "2.610376072716431e-15",
        "complement-norm-identity": "5.551115123125783e-16",
        "complement-defect-transfer": "6.288372600415926e-16",
        "double-complement-restores-gram": "2.8361951823619765e-15",
        "complement-route-factor-8": "0.0",
        "reduction-always-small": "0.0",
    },
    ("admissible", 60): {
        "parseval-admissibility-verdicts": "0.0",
        "spectrum-admissibility-verdicts": "0.0",
        "identity-spectrum-agreement": "0.0",
        "prescribed-norm-solver-hits-targets": "1.2212453270876722e-15",
        "prescribed-norm-solver-parseval": "6.867839630331218e-13",
    },
}


@pytest.mark.parametrize(
    "suite,trials",
    [("geometry", 60), ("equivalence", 40), ("naimark", 40), ("admissible", 300)],
)
def test_suite_passes(suite, trials):
    checks = run_suite(suite, seed=3, trials=trials)
    failing = [c for c in checks if not c.passed]
    assert not failing, [f"{c.name}: worst={c.worst} limit={c.limit}" for c in failing]


def test_admissible_suite_passes_on_a_seed_that_needs_the_guard():
    # at this seed the Anderson-accelerated solver that preceded the Newton
    # loop needed its defect guard, or it left prescribed-norm solves
    # unconverged (among them one of 4 vectors in C^3)
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


@pytest.mark.parametrize("suite,trials", list(PINNED_WORSTS))
def test_worsts_are_pinned(suite, trials):
    checks = run_suite(suite, seed=5, trials=trials)
    assert {c.name: repr(c.worst) for c in checks} == PINNED_WORSTS[suite, trials]
