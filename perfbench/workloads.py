"""The benchmark's workloads: the inputs each one makes from its seed, the
op it times, and the checks every op's output must pass.

Inputs are made by the benchmark's own code (``numpy`` and ``hashlib``), not
by framekit's generators, so a change to the program cannot change what it
is fed.  Ops call only framekit's public API: ``sweep.run_sweep`` and
``cli.main``.  Why each workload exists is in README.md and BENCHMARK.json.
"""

import contextlib
import functools
import hashlib
import io
import json
import math
import time

import numpy as np

from framekit import admissibility, cli, paulsen, sweep

from spans import Bindings

TOLERANCE = 1e-10
# Recomputing a defect with another summation order moves it by rounding
# only; this slack covers that and nothing more.
RECOMPUTE_SLACK = 1e-13

CSV_COLUMNS = (
    "M,N,eps,seed,converged,iterations,distance,bound_16eM,ratio,chain4,chain2,chain8,naimark_branch"
)
CHAIN_BOUNDS = {"chain4": 4.0, "chain2": 2.0, "chain8": 8.0}
SOLVE_KEYS = {
    "M",
    "N",
    "eps",
    "distance",
    "iterations",
    "converged",
    "bound_16eM",
    "ratio_chain4",
    "ratio_chain2",
    "seed",
}


def sub_seed(seed: int, *parts) -> int:
    """A 32-bit seed derived from the workload seed, stable everywhere."""
    text = "|".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def defects(v: np.ndarray, targets_sq: np.ndarray) -> tuple[float, float]:
    """(Parseval defect, norm defect) of the (N, M) vector array ``v``,
    computed here rather than by framekit."""
    s = v.T @ v.conj()
    lam = np.linalg.eigvalsh(0.5 * (s + s.conj().T))
    norms_sq = np.sum(np.abs(v) ** 2, axis=1)
    return (
        max(1.0 - float(lam[0]), float(lam[-1]) - 1.0),
        float(np.max(np.abs(norms_sq / targets_sq - 1.0))),
    )


class SolveLog:
    """Keeps every solver result while installed, so each converged solution
    can be checked.  Installation rebinds the two public solver entry points
    and costs one extra Python call per solve."""

    def __init__(self):
        self.solves = []
        self._bindings = Bindings()

    def install(self) -> None:
        for fn, targets in (
            (paulsen.nearest_equal_norm_parseval, lambda args, kwargs: None),
            (
                admissibility.nearest_prescribed_norm_parseval,
                lambda args, kwargs: (args[1] if len(args) > 1 else kwargs["seq"]).original ** 2,
            ),
        ):
            self._bindings.rebind(fn, self._recorder(fn, targets))

    def uninstall(self) -> None:
        self._bindings.restore()

    def _recorder(self, fn, targets):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            instance = fn(*args, **kwargs)
            self.solves.append((instance, targets(args, kwargs)))
            return instance

        return recorded

    def take(self) -> list:
        """Problems with the solves logged since the last call."""
        problems = []
        for instance, targets_sq in self.solves:
            v = instance.solution.vectors
            if targets_sq is None:
                targets_sq = np.full(v.shape[0], v.shape[1] / v.shape[0])
            if not instance.converged:
                problems.append(f"solve at {v.shape} did not converge")
                continue
            worst = max(defects(v, targets_sq))
            if worst > TOLERANCE + RECOMPUTE_SLACK:
                problems.append(f"converged solution at {v.shape} has defect {worst:.3e}")
        self.solves = []
        return problems


def cli_main(argv: list) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class Workload:
    """``cycle`` ops hold a whole number of complete mixes of the inputs;
    timing runs whole cycles and rates are medians over cycles.  A traced
    batch is ops ``0 .. trace_ops - 1``."""

    name = ""
    seeds = (0, 0)  # default, held-out
    cycle = 1
    trace_ops = 1

    def inputs(self, seed: int, workdir):
        """Return ``op_input(i)``, a JSON-able input for op ``i``."""
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> list:
        raise NotImplementedError

    def parallel_pass(self, seed: int):
        return None


class SweepWorkload(Workload):
    """One op is ``run_sweep`` on the whole grid at one trial per cell, each
    op with its own master seed.

    One-trial ops were the first plan, but trial costs cluster by cell, and
    the median of a run's ops landed between clusters: over ten seeds on a
    shared machine, whole-grid ops cut the quartile spread of ``op_p50_ms``,
    ``ops_per_s`` and ``cpu_ms_per_op`` from 8-12 % to 3-6 % on sweep-ref.
    """

    def __init__(self, name, seeds, m_range, n_range, eps_list, cycle, pass_trials):
        self.name, self.seeds = name, seeds
        self.grid = {"M_range": m_range, "N_range": n_range, "eps_list": eps_list}
        self.cells = [(m, n, e) for m in m_range for n in n_range for e in eps_list]
        self.cycle = cycle
        self.pass_trials = pass_trials

    @staticmethod
    def config(grid: dict, trials: int, master_seed: int) -> dict:
        return dict(
            grid,
            trials_per_cell=trials,
            master_seed=master_seed,
            tolerance=TOLERANCE,
            output_path="unused.csv",
        )

    def inputs(self, seed, workdir):
        return lambda i: self.config(self.grid, 1, sub_seed(seed, "op", i))

    def run(self, inp):
        return sweep.run_sweep(sweep.ExperimentConfig.from_dict(inp))

    def check(self, inp, out):
        return check_csv(out, self.cells, 1)[0]

    def parallel_pass(self, seed):
        """The reference config at ``jobs=1`` and ``jobs=2``: both CSVs must
        be byte-identical.  The ``jobs=2`` time includes pool start-up."""
        cfg = sweep.ExperimentConfig.from_dict(self.config(self.grid, self.pass_trials, seed))
        t0 = time.perf_counter()
        serial = sweep.run_sweep(cfg, jobs=1)
        t1 = time.perf_counter()
        parallel = sweep.run_sweep(cfg, jobs=2)
        t2 = time.perf_counter()
        trials = self.pass_trials * len(self.cells)
        problems, failed = check_csv(parallel, self.cells, self.pass_trials)
        if parallel != serial:
            problems.append("jobs=1 and jobs=2 CSVs differ")
            failed = trials
        return {
            "trials": trials,
            "failed": failed,
            "problems": problems,
            "trials_per_s_jobs1": trials / (t1 - t0),
            "trials_per_s_jobs2": trials / (t2 - t1),
            "csv_sha256": hashlib.sha256(serial.encode()).hexdigest(),
        }


def check_csv(text: str, cells: list, trials: int) -> tuple[list, int]:
    """Checks a sweep CSV row by row against the cells it was asked for;
    returns the problems and how many rows fail (all of them when the CSV's
    shape is wrong)."""
    lines = text.splitlines()
    expected = [cell for cell in cells for _ in range(trials)]
    if not lines or lines[0] != CSV_COLUMNS:
        return ["CSV header differs"], len(expected)
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    if len(rows) != len(expected):
        return [f"CSV has {len(rows)} rows, expected {len(expected)}"], len(expected)
    names = CSV_COLUMNS.split(",")
    problems, failed = [], 0
    for fields, (m, n, e) in zip(rows, expected):
        row = dict(zip(names, fields))
        where = f"(M={m}, N={n}, eps={e})"
        found = []
        if (int(row["M"]), int(row["N"]), float(row["eps"])) != (m, n, e):
            found.append(f"row for {where} names another cell")
        else:
            if row["converged"] != "true":
                found.append(f"trial {where} did not converge")
            branch = "complemented" if n > 2 * m else "original"
            if row["naimark_branch"] != branch:
                found.append(f"trial {where} took branch {row['naimark_branch']}")
            for chain, bound in CHAIN_BOUNDS.items():
                if chain == "chain8" and n == m:
                    continue
                if row[chain] == "" or not float(row[chain]) <= bound:
                    found.append(f"trial {where} {chain}={row[chain]!r} outside {bound}")
        problems += found
        failed += bool(found)
    return problems, failed


def perturbed_parseval(m: int, n: int, eps: float, seed: int) -> np.ndarray:
    """A Haar-rotated harmonic equal-norm Parseval frame plus a seeded random
    direction, its amplitude bisected to the largest value that keeps both
    defects at or below ``eps``."""
    rng = np.random.default_rng(seed)
    v = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(m)) / n) / math.sqrt(n)
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(z)
    v = v @ (q * (np.diagonal(r) / np.abs(np.diagonal(r)))).T
    d = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    d *= np.linalg.norm(v) / np.linalg.norm(d)
    targets_sq = np.full(n, m / n)
    lo, hi = 0.0, 1.0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if max(defects(v + mid * d, targets_sq)) <= eps:
            lo = mid
        else:
            hi = mid
    return v + lo * d


class SolveWorkload(Workload):
    """One op is ``framekit solve FRAME.json`` through ``cli.main``; ops cycle
    through ``cycle`` frames written before timing starts."""

    name = "solve-large"
    seeds = (21, 22)
    cycle = 8
    trace_ops = 2
    m, n, eps = 40, 120, 0.05

    def inputs(self, seed, workdir):
        paths = []
        for k in range(self.cycle):
            v = perturbed_parseval(self.m, self.n, self.eps, sub_seed(seed, "frame", k))
            doc = {"dim": self.m, "vectors": [[[z.real, z.imag] for z in row] for row in v.tolist()]}
            path = workdir / f"{self.name}-{seed}-{k}.json"
            path.write_text(json.dumps(doc))
            paths.append(str(path))
        return lambda i: paths[i % self.cycle]

    def run(self, inp):
        return cli_main(["solve", inp])

    def check(self, inp, out):
        code, text = out
        if code != 0:
            return [f"solve exited {code}"]
        report = json.loads(text)
        if set(report) != SOLVE_KEYS:
            return [f"solve report keys {sorted(report)}"]
        if report["converged"] is not True or (report["M"], report["N"]) != (self.m, self.n):
            return [f"solve report {report}"]
        return []


class VerifyWorkload(Workload):
    """One op is ``verify --suite geometry --trials 20`` then ``verify --suite
    admissible --trials 200``, both with a seed derived from the op index.

    Op cost depends strongly on the seed (the suites draw their sizes at
    random), with clusters near 150 and 350 ms at 10 and 100 trials, where
    the median of a run's ops swung by 21 % between seeds.  Twice the trials
    smooth each op's cost; the swing fell to about 6 %.
    """

    name = "verify-mix"
    seeds = (31, 32)
    cycle = 4
    trace_ops = 2

    def inputs(self, seed, workdir):
        return lambda i: sub_seed(seed, "op", i)

    def run(self, inp):
        return [
            cli_main(["verify", "--suite", "geometry", "--trials", "20", "--seed", str(inp)]),
            cli_main(["verify", "--suite", "admissible", "--trials", "200", "--seed", str(inp)]),
        ]

    def check(self, inp, out):
        problems = []
        for code, text in out:
            lines = text.splitlines()
            if code != 0 or not lines or lines[-1] != "all properties passed":
                problems.append(f"verify exited {code}")
            problems += [line for line in lines[:-1] if not line.startswith("[PASS]")]
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload("sweep-ref", (7, 8), [2, 3, 4], [6, 8], [0.01, 0.05], cycle=4, pass_trials=5),
        SweepWorkload("sweep-wide", (11, 12), [4, 6], [24, 30], [0.01, 0.05], cycle=2, pass_trials=2),
        SolveWorkload(),
        VerifyWorkload(),
    )
}
