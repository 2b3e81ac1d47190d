"""Batch experiment harness: seeded perturbed instances over a grid of
(M, N, eps) cells, solved and chained, written as deterministic CSV.

Per-trial seeds are derived by hashing (master seed, M, N, eps, trial
index), so any row can be regenerated in isolation and the CSV is
byte-identical for a fixed config, regardless of the worker count.  Floats
are formatted with ``repr`` (shortest round-trip); a ``#``-prefixed summary
block after the rows reports the worst observed distance/(eps*M) per cell.
"""

import os
import sys
from dataclasses import dataclass

import numpy as np

from ._seeding import derive_seed
from .frames import RankDeficientError, canonical_parseval
from .naimark import naimark_branch, naimark_reduction_check
from .paulsen import (
    ConvergenceError,
    SolverConfig,
    equivalence_chain_frame_to_projection,
    equivalence_chain_projection_to_frame,
    nearest_equal_norm_parseval,
    perturb,
    random_equal_norm_parseval,
)

__all__ = ["ExperimentConfig", "CSV_COLUMNS", "run_trial", "worker_count", "run_sweep"]

CSV_COLUMNS = [
    "M",
    "N",
    "eps",
    "seed",
    "converged",
    "iterations",
    "distance",
    "bound_16eM",
    "ratio",
    "chain4",
    "chain2",
    "chain8",
    "naimark_branch",
]
# Columns filled from a trial's result; a failed trial leaves them empty.
_RESULT_COLUMNS = CSV_COLUMNS[4:]

_CONFIG_KEYS = {
    "M_range",
    "N_range",
    "eps_list",
    "trials_per_cell",
    "master_seed",
    "tolerance",
    "output_path",
    "max_iterations",
}


@dataclass(frozen=True)
class ExperimentConfig:
    m_range: tuple[int, ...]
    n_range: tuple[int, ...]
    eps_list: tuple[float, ...]
    trials_per_cell: int
    master_seed: int
    tolerance: float
    output_path: str
    max_iterations: int = 10000

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(d) - _CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = _CONFIG_KEYS - {"max_iterations"} - set(d)
        if missing:
            raise ValueError(f"config is missing keys: {sorted(missing)}")
        m_range = _int_list(d["M_range"], "M_range")
        n_range = _int_list(d["N_range"], "N_range")
        eps_list = _float_list(d["eps_list"], "eps_list")
        for eps in eps_list:
            if not 0.0 < eps < 1.0:
                raise ValueError(f"eps_list entries must lie in (0, 1), got {eps!r}")
        trials = d["trials_per_cell"]
        if type(trials) is not int or trials < 1:
            raise ValueError(f"trials_per_cell must be a positive integer, got {trials!r}")
        seed = d["master_seed"]
        if type(seed) is not int or seed < 0:
            raise ValueError(f"master_seed must be a nonnegative integer, got {seed!r}")
        tol = d["tolerance"]
        if type(tol) not in (int, float) or not 0.0 < tol < 1.0:
            raise ValueError(f"tolerance must be a float in (0, 1), got {tol!r}")
        max_iter = d.get("max_iterations", 10000)
        if type(max_iter) is not int or max_iter < 1:
            raise ValueError(f"max_iterations must be a positive integer, got {max_iter!r}")
        out = d["output_path"]
        if not isinstance(out, str) or not out:
            raise ValueError("output_path must be a nonempty string")
        bad = [(m, n) for m in m_range for n in n_range if n < m]
        if bad:
            raise ValueError(f"every cell needs N >= M; offending (M, N) pairs: {bad}")
        return cls(
            m_range=m_range,
            n_range=n_range,
            eps_list=eps_list,
            trials_per_cell=trials,
            master_seed=seed,
            tolerance=float(tol),
            output_path=out,
            max_iterations=max_iter,
        )

    def cells(self):
        for m in self.m_range:
            for n in self.n_range:
                for eps in self.eps_list:
                    yield m, n, eps


# Numbers are checked with type() rather than isinstance(): JSON true and
# false decode to bool, a subclass of int.
def _int_list(v, name: str) -> tuple[int, ...]:
    if (
        not isinstance(v, list)
        or not v
        or not all(type(x) is int and x >= 1 for x in v)
    ):
        raise ValueError(f"{name} must be a nonempty list of positive integers")
    return tuple(v)


def _float_list(v, name: str) -> tuple[float, ...]:
    if not isinstance(v, list) or not v or not all(type(x) in (int, float) for x in v):
        raise ValueError(f"{name} must be a nonempty list of numbers")
    return tuple(float(x) for x in v)


def run_trial(m: int, n: int, eps: float, trial_seed: int, tolerance: float, max_iterations: int) -> dict:
    """One seeded instance: perturb a random equal-norm Parseval frame, solve,
    and evaluate the three chain ratios on the Parseval-reduced input.

    A trial that fails numerically (a rank-deficient frame, a LAPACK or
    arithmetic error) keeps its cell and seed with empty result fields and
    names the error on stderr, so one bad trial does not abort a sweep.
    """
    row = {"M": m, "N": n, "eps": eps, "seed": trial_seed}
    try:
        row.update(_trial_results(m, n, eps, trial_seed, tolerance, max_iterations))
    except (RankDeficientError, np.linalg.LinAlgError, ArithmeticError) as err:
        print(
            f"trial M={m} N={n} eps={_fmt(eps)} seed={trial_seed} failed: "
            f"{type(err).__name__}: {err}",
            file=sys.stderr,
        )
        row.update(dict.fromkeys(_RESULT_COLUMNS))
    return row


def _trial_results(m, n, eps, trial_seed, tolerance, max_iterations) -> dict:
    cfg = SolverConfig(tolerance=tolerance, max_iterations=max_iterations)
    base = random_equal_norm_parseval(m, n, derive_seed(trial_seed, "base"))
    f = perturb(base, eps, derive_seed(trial_seed, "perturb"))
    inst = nearest_equal_norm_parseval(f, cfg)
    fp = canonical_parseval(f)
    # fp = F S^{-1/2} has F's analysis range, and Barthe's potential sees the
    # vectors only through that range, so F's converged log-weights are fp's
    # minimiser and their negation that of fp's complement (whose range is
    # the complement of the weighted one).  Both solves start there and
    # still decide convergence themselves; an unconverged F starts them cold.
    start = inst.log_weights if inst.converged else None
    # Chain 4 and chain 2 check the two directions of one equivalence on the
    # same solved instance.
    inst_p = nearest_equal_norm_parseval(fp, cfg, start)
    if inst_p.converged:
        chain4 = equivalence_chain_frame_to_projection(inst_p).ratio
        chain2 = equivalence_chain_projection_to_frame(inst_p).ratio
    else:
        chain4 = chain2 = None
    if n > m:
        try:
            chain8 = naimark_reduction_check(fp, cfg, start).ratio
        except ConvergenceError:
            chain8 = None
    else:
        chain8 = None
    ratio = inst.distance / inst.bound_16eM if inst.bound_16eM > 0 else 0.0
    return {
        "converged": inst.converged,
        "iterations": inst.iterations,
        "distance": inst.distance,
        "bound_16eM": inst.bound_16eM,
        "ratio": ratio,
        "chain4": chain4,
        "chain2": chain2,
        "chain8": chain8,
        "naimark_branch": naimark_branch(m, n),
    }


def _worker(task: tuple) -> dict:
    return run_trial(*task)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def worker_count(jobs: int, n_tasks: int, cpus: int | None) -> int:
    """Pool size for ``jobs`` requested workers: never more than the tasks or
    the CPUs (``os.cpu_count()``, which may be None), and at least 1."""
    return max(1, min(jobs, n_tasks, cpus or 1))


def run_sweep(config: ExperimentConfig, jobs: int = 1) -> str:
    """Execute the full grid and return the CSV text (rows + summary block)."""
    tasks = []
    for m, n, eps in config.cells():
        for trial in range(config.trials_per_cell):
            trial_seed = derive_seed(config.master_seed, m, n, eps, trial)
            tasks.append((m, n, eps, trial_seed, config.tolerance, config.max_iterations))
    workers = worker_count(jobs, len(tasks), os.cpu_count())
    if workers > 1:
        # Imported here so that a one-worker sweep and every other CLI
        # command start without loading multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_worker, tasks, chunksize=4))
    else:
        rows = [_worker(t) for t in tasks]

    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row[col]) for col in CSV_COLUMNS))

    lines.append("# summary: worst distance/(eps*M) over converged trials per cell")
    idx = 0
    for m, n, eps in config.cells():
        cell = rows[idx : idx + config.trials_per_cell]
        idx += config.trials_per_cell
        converged = [r for r in cell if r["converged"]]
        over_eps_m = [16.0 * r["ratio"] for r in converged]
        worst = repr(max(over_eps_m)) if over_eps_m else ""
        violations = sum(1 for x in over_eps_m if x > 16.0)
        lines.append(
            f"# cell M={m} N={n} eps={_fmt(eps)} trials={len(cell)} "
            f"converged={len(converged)} max_distance_over_epsM={worst} "
            f"violations_over_16eM={violations}"
        )
    return "\n".join(lines) + "\n"
