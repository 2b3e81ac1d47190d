"""framekit's benchmark.

    python3 perfbench/run.py --workload NAME [--seed N|default|heldout]
                             [--seconds T] [--trace 0|1]
    python3 perfbench/run.py --workload all [...]   # every workload in turn

Run it from a framekit checkout; the program is imported from ``src/`` next
to this directory.  The load is a closed loop with one client in one
process.  ``--trace 0`` times the ops with tracing off and reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced batches of
a fixed op list and reports the per-layer metrics.  Every op's output is
checked.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric with its unit, ``failed_frac``, the tail percentile with
its sample count, and the environment.  Work files (solve inputs, the span
dump, the full result) go to ``.bench_build/perfbench/``.
"""

import os

# One BLAS thread per process, fixed before numpy loads, so that the
# jobs=2 pass keeps at most two busy threads.
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"

DEFAULT_SECONDS = 20
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
# A run stops at the end of a cycle once --seconds have passed, and in any
# case this long after, so that a much slower program still exits in time.
OVERRUN_S = 60


class Tally:
    """Ops attempted and failed, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, problems: list, ops: int = 1, failed: int | None = None) -> None:
        self.attempted += ops
        self.failed += (1 if problems else 0) if failed is None else failed
        self.problems += problems[: max(0, 20 - len(self.problems))]


def one_op(wl, inp, log, tally, call=None) -> tuple[float, float]:
    """Run, time and check one op; returns (wall seconds, CPU seconds)."""
    call = call or wl.run
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        out, problems = call(inp), []
    except Exception:  # a raising op is a failed op; the run goes on
        out, problems = None, [traceback.format_exc(limit=-3)]
    t1, c1 = time.perf_counter(), time.process_time()
    if not problems:
        problems = wl.check(inp, out)
    problems += log.take()
    tally.add(problems)
    return t1 - t0, c1 - c0


def add_parallel(wl, seed, tally) -> dict:
    result = wl.parallel_pass(seed)
    if result is None:
        return {}
    tally.add(result["problems"], ops=result["trials"], failed=result["failed"])
    return result


def probe_seconds(wl, inp, tally) -> float:
    """Wall time for a fresh process to import framekit and run one op."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl.name, "--probe", json.dumps(inp)]
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=PROBE_TIMEOUT_S
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        tally.add([f"set-up probe exited {proc.returncode}: {proc.stderr.decode()[-500:]}"])
    return elapsed


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def run_untraced(wl, seed, seconds):
    from stats import median_per_op, median_rate, tail
    from workloads import SolveLog

    op_input = wl.inputs(seed, WORKDIR)
    wl.run(op_input(0))  # warm-up, excluded from every figure
    log, tally = SolveLog(), Tally()
    latency, cpu = [], []
    log.install()
    try:
        start = time.perf_counter()
        i = 0
        while True:
            dt, dc = one_op(wl, op_input(i), log, tally)
            latency.append(dt)
            cpu.append(dc)
            i += 1
            elapsed = time.perf_counter() - start
            if (i % wl.cycle == 0 and elapsed >= seconds) or elapsed >= seconds + OVERRUN_S:
                break
    finally:
        log.uninstall()
    parallel = add_parallel(wl, seed, tally)
    # Read before the set-up probes, so the children counted are the jobs=2
    # workers only.
    rss = peak_rss_mb()
    # Each probe runs a different op, so the median is not one input's cost.
    setup = [probe_seconds(wl, op_input(k), tally) for k in range(SETUP_PROBES)]

    tail_s, tail_pct, samples = tail(latency)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (median_rate(latency, wl.cycle), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latency), "ms"),
        "cpu_ms_per_op": (1e3 * median_per_op(cpu, wl.cycle), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    # Printed but not bounded: see README.md.
    info = {
        "op_tail_ms": 1e3 * tail_s,
        "op_tail_percentile": tail_pct,
        "op_samples": samples,
        "setup_samples_s": setup,
    }
    if parallel:
        info["trials_per_s_jobs2"] = parallel["trials_per_s_jobs2"]
        info["trials_per_s_jobs1"] = parallel["trials_per_s_jobs1"]
        info["sweep_csv_sha256"] = parallel["csv_sha256"]
    return metrics, info, tally


def run_traced(wl, seed, seconds):
    from spans import LAYER_METRICS, Tracer, batch_totals, layer_metrics
    from workloads import SolveLog

    op_input = wl.inputs(seed, WORKDIR)
    batch = [op_input(i) for i in range(wl.trace_ops)]
    wl.run(batch[0])  # warm-up
    log, tally, tracer = SolveLog(), Tally(), Tracer()
    untraced_s, totals, first_spans = [], [], None
    log.install()
    try:
        start = time.perf_counter()
        while len(totals) < 2 or time.perf_counter() - start < seconds:
            untraced_s.append(sum(one_op(wl, inp, log, tally)[0] for inp in batch))
            tracer.install()
            try:
                for i, inp in enumerate(batch):
                    one_op(wl, inp, log, tally, lambda x, i=i: tracer.run_op(i, wl.run, x))
            finally:
                tracer.uninstall()
            totals.append(batch_totals(tracer.spans))
            first_spans = first_spans or tracer.spans
            tracer.spans = []
            if time.perf_counter() - start > seconds + OVERRUN_S:
                break
    finally:
        log.uninstall()
    parallel = add_parallel(wl, seed, tally)

    per_batch = [layer_metrics(t) for t in totals]
    metrics, unsteady = {}, []
    for name, (unit, _) in LAYER_METRICS.items():
        values = [b[name] for b in per_batch]
        if unit == "count":
            # Counts must repeat exactly: every traced batch runs the same inputs.
            if any(v != values[0] for v in values):
                unsteady.append(name)
            metrics[name] = (values[0], unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    untraced = statistics.median(untraced_s)
    traced = statistics.median(t["op_s"] for t in totals)
    jobs2 = parallel.get("trials_per_s_jobs2", 0.0)
    metrics["sweep.jobs2.trials_per_s"] = (jobs2, "1/s")
    metrics["sweep.jobs2.speedup"] = (jobs2 / parallel.get("trials_per_s_jobs1", 1.0), "ratio")
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
    if unsteady:
        tally.problems.append(f"counts differ between traced batches: {unsteady}")

    spans_path = WORKDIR / f"spans-{wl.name}-{seed}.json"
    spans_path.write_text(
        json.dumps({"fields": ["name", "start", "end", "parent", "op", "info"], "spans": first_spans})
    )
    info = {"traced_batches": len(totals), "ops_per_batch": len(batch), "spans": str(spans_path)}
    return metrics, info, tally, not unsteady


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.argtypes, fn.restype = [], ctypes.c_int
            return fn()
    return None


def environment(wl, seed) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload_seed": seed,
        "default_seed": wl.seeds[0],
        "heldout_seed": wl.seeds[1],
    }


def resolve_seed(text: str, wl) -> int:
    if text == "default":
        return wl.seeds[0]
    if text == "heldout":
        return wl.seeds[1]
    return int(text)


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", args.seed]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            status = 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="framekit benchmark")
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", default="default", help="an integer, 'default' or 'heldout'")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--probe", help=argparse.SUPPRESS)  # JSON op input: one op, no output
    args = parser.parse_args(argv)

    if not (SRC / "framekit" / "__init__.py").is_file():
        print(f"error: no framekit sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import framekit

    if Path(framekit.__file__).resolve().parent != (SRC / "framekit").resolve():
        print(f"error: framekit was imported from {framekit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.probe is not None:
        wl.run(json.loads(args.probe))
        return 0

    seed = resolve_seed(args.seed, wl)
    WORKDIR.mkdir(parents=True, exist_ok=True)
    correct = True
    if args.trace:
        metrics, info, tally, correct = run_traced(wl, seed, args.seconds)
    else:
        metrics, info, tally = run_untraced(wl, seed, args.seconds)
    correct = correct and tally.failed == 0
    info["failed_frac"] = tally.failed / tally.attempted
    env = environment(wl, seed)

    print(f"workload {wl.name}  seed {seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':<52} {info['failed_frac']:>14.6g} ({tally.failed}/{tally.attempted})")
    for name, value in info.items():
        if name != "failed_frac":
            print(f"  {name:<52} {value}")
    print("  env " + json.dumps(env))
    for problem in tally.problems:
        print(f"problem: {problem}", file=sys.stderr)

    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    full = dict(result, workload=wl.name, trace=args.trace, info=info, env=env, problems=tally.problems)
    (WORKDIR / f"result-{wl.name}-{seed}-trace{args.trace}.json").write_text(json.dumps(full, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
