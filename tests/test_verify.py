import pytest

from framekit.verify import run_suite

# Every check's worst at seed 5 by repr, read on Python 3.11 with numpy 2.4
# and OpenBLAS 0.3.  A change that moves these bits on purpose updates them
# and names the step that moved them.
PINNED_WORSTS = {
    ("geometry", 10): {
        "chordal-equals-half-projection-distance": "1.3322676295502451e-14",
        "chordal-equals-angle-sin-squared-sum": "2.220446049250313e-14",
        "aligned-basis-sandwich": "5.3290705182007514e-14",
        "aligned-basis-pairing": "2.6790623659799457e-15",
        "principal-angle-basis-independence": "1.1102230246251565e-15",
        "coordinate-permutation-invariance": "1.3322676295501878e-15",
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
        "solved-gram-constant-diagonal": "1.5543122344752192e-15",
        "projection-to-frame-factor-2": "0.0",
        "projection-frame-extraction": "4.8031402837162055e-15",
        "solver-beats-unconstrained-nearest": "0.0",
        "solver-unitary-invariant-distance": "1.222980050563649e-16",
        "solver-permutation-equivariant": "1.1226435567921847e-15",
    },
    ("naimark", 6): {
        "complement-gram-identity": "3.934047361996185e-15",
        "complement-norm-identity": "8.881784197001252e-16",
        "complement-defect-transfer": "8.881784197001252e-16",
        "double-complement-restores-gram": "4.106446631154886e-15",
        "complement-route-factor-8": "0.0",
        "reduction-always-small": "0.0",
    },
    ("admissible", 60): {
        "parseval-admissibility-verdicts": "0.0",
        "spectrum-admissibility-verdicts": "0.0",
        "identity-spectrum-agreement": "0.0",
        "prescribed-norm-solver-hits-targets": "9.992007221626409e-16",
        "prescribed-norm-solver-parseval": "6.861178292183467e-13",
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
