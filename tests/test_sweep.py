import hashlib

import numpy as np
import pytest

from framekit import Projection, RankDeficientError, derive_seed, sweep
from framekit.sweep import CSV_COLUMNS, ExperimentConfig, run_sweep

# Acceptance criterion 11's grid.  Its CSV bytes are pinned so that a change
# claiming bit-identical sweep output is held to it.
SMALL = {
    "M_range": [2, 3],
    "N_range": [4, 6],
    "eps_list": [0.05],
    "trials_per_cell": 2,
    "master_seed": 11,
    "tolerance": 1e-10,
    "output_path": "small.csv",
}
SMALL_SHA256 = "76d3dc6039c9b016eaa2b502631ae3439cc0f9a1fca197e59ad5abfcec69db36"


@pytest.mark.parametrize("jobs", [1, 2])
def test_small_sweep_bytes_are_pinned(jobs):
    csv_text = run_sweep(ExperimentConfig.from_dict(SMALL), jobs=jobs)
    assert hashlib.sha256(csv_text.encode()).hexdigest() == SMALL_SHA256


@pytest.mark.parametrize(
    "key, value",
    [
        ("M_range", [True]),
        ("N_range", [4, True]),
        ("trials_per_cell", True),
        ("master_seed", True),
        ("master_seed", False),
        ("max_iterations", True),
    ],
)
def test_json_booleans_are_not_counts(key, value):
    # JSON true decodes to bool, which isinstance(..., int) accepts as 1
    with pytest.raises(ValueError, match=key):
        ExperimentConfig.from_dict({**SMALL, key: value})


def _rows(csv_text):
    return [line for line in csv_text.splitlines() if not line.startswith("#")]


@pytest.mark.parametrize(
    "error",
    [
        RankDeficientError("vectors do not span"),
        np.linalg.LinAlgError("eigenvalues did not converge"),
        ZeroDivisionError("float division by zero"),
    ],
)
def test_failing_trial_is_recorded_and_the_sweep_goes_on(monkeypatch, capsys, error):
    config = ExperimentConfig.from_dict(SMALL)
    expected = _rows(run_sweep(config))
    bad_seed = derive_seed(config.master_seed, 3, 4, 0.05, 1)
    perturb = sweep.perturb

    def failing(frame, eps, seed):
        if seed == derive_seed(bad_seed, "perturb"):
            raise error
        return perturb(frame, eps, seed)

    monkeypatch.setattr(sweep, "perturb", failing)
    capsys.readouterr()
    rows = _rows(run_sweep(config, jobs=1))
    failed = [i for i, row in enumerate(expected) if f",{bad_seed}," in row]
    assert len(failed) == 1
    i = failed[0]
    assert rows[:i] + rows[i + 1 :] == expected[:i] + expected[i + 1 :]
    assert rows[i] == f"3,4,0.05,{bad_seed}" + "," * (len(CSV_COLUMNS) - 4)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert f"M=3 N=4 eps=0.05 seed={bad_seed}" in err[0]
    assert type(error).__name__ in err[0]


def test_errors_outside_the_numerical_ones_still_propagate(monkeypatch):
    def failing(frame, eps, seed):
        raise TypeError("a programming error")

    monkeypatch.setattr(sweep, "perturb", failing)
    with pytest.raises(TypeError):
        run_sweep(ExperimentConfig.from_dict(SMALL), jobs=1)


def test_loose_tolerance_fills_every_chain():
    # Solutions at tolerance 1e-6 are Parseval only to about 1e-7, outside
    # the 1e-8 gate of a Gram projection; no chain wraps one in a projection.
    config = ExperimentConfig.from_dict({**SMALL, "tolerance": 1e-6})
    lines = run_sweep(config, jobs=1).splitlines()
    rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in lines[1:] if line[0] != "#"]
    assert len(rows) == 8
    assert all(row[col] for row in rows for col in ("chain4", "chain2", "chain8"))


def test_trial_builds_no_projection(monkeypatch, eigh_calls):
    # The chains and the Naimark route work on frame vectors; chain 2
    # extracts its frame by a thin QR, not from a Gram projection.
    built = []
    init = Projection.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Projection, "__init__", counting)
    for m, n in [(3, 8), (4, 24), (6, 30), (4, 120)]:
        built.clear()
        eigh_calls.clear()
        row = sweep.run_trial(m, n, 0.05, 1234, 1e-10, 10000)
        assert row["chain2"] is not None and row["chain8"] is not None
        assert len(built) == 0
        assert eigh_calls.count((n, n)) == 0


@pytest.mark.parametrize(
    "grid",
    [
        {"M_range": [2, 3, 4], "N_range": [6, 8]},
        {"M_range": [4, 6], "N_range": [24, 30]},
    ],
)
def test_benchmark_grids_fill_every_chain(grid):
    # The sweep grids of the benchmark at 60 trials per cell: every warm
    # started Parseval and complement solve converges and every chain stays
    # within the paper's factor.
    config = ExperimentConfig.from_dict(
        {**SMALL, **grid, "eps_list": [0.01, 0.05], "trials_per_cell": 60}
    )
    rows = [dict(zip(CSV_COLUMNS, row.split(","))) for row in _rows(run_sweep(config))[1:]]
    assert len(rows) == 60 * len(list(config.cells()))
    for row in rows:
        assert row["converged"] == "true", row
        for chain, bound in (("chain4", 4.0), ("chain2", 2.0), ("chain8", 8.0)):
            assert row[chain] and float(row[chain]) <= bound, row


def test_trial_takes_one_cold_solve(eigh_calls, eigvalsh_calls):
    # The Parseval frame's and the complement's solves start from the
    # perturbed frame's weights and stop at their first evaluation: one eigh
    # and one eigvalsh each.
    for m, n in [(3, 8), (4, 24), (6, 30)]:
        eigh_calls.clear()
        eigvalsh_calls.clear()
        sweep.run_trial(m, n, 0.05, 1234, 1e-10, 10000)
        assert len(eigh_calls) == 13
        assert len(eigvalsh_calls) == 20
