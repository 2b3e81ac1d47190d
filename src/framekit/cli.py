"""Command-line harness.

Subcommands: check | solve | sweep | verify | naimark | admissible.
Exit codes: 0 success, 2 input error, 3 solver non-convergence, 4 I/O error
(1 is reserved for failed verify suites).
"""

import argparse
import json
import sys

from .admissibility import is_parseval_admissible, is_S_admissible
from .frames import defects, frame_bounds
from .naimark import naimark_complement, naimark_reduction_check, reduce_to_small
from .paulsen import (
    ConvergenceError,
    SolverConfig,
    equivalence_chain_frame_to_projection,
    equivalence_chain_projection_to_frame,
    nearest_equal_norm_parseval,
)
from .serialize import (
    admissibility_query_from_dict,
    frame_from_dict,
    frame_to_dict,
    load_json,
)
from .sweep import ExperimentConfig, run_sweep
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_IO = 4


def _load(path: str):
    try:
        return load_json(path)
    except OSError as err:
        raise _InputError(f"cannot read {path}: {err.strerror or err}") from err
    except json.JSONDecodeError as err:
        raise _InputError(
            f"{path}: invalid JSON at line {err.lineno} column {err.colno}: {err.msg}"
        ) from err


class _InputError(Exception):
    pass


def _load_frame(path: str):
    try:
        return frame_from_dict(_load(path))
    except ValueError as err:
        raise _InputError(f"{path}: {err}") from err


def cmd_check(args) -> int:
    frame = _load_frame(args.frame)
    a, b = frame_bounds(frame)
    d = defects(frame)
    print(f"M: {frame.dim}")
    print(f"N: {frame.n_vectors}")
    print(f"frame bounds: A={a!r} B={b!r}")
    print(f"parseval_eps: {d.parseval_eps!r}")
    print(f"equal_norm_eps: {d.equal_norm_eps!r}")
    print(f"parseval (tol {args.tol:g}): {'yes' if d.parseval_eps <= args.tol else 'no'}")
    print(f"equal norm (tol {args.tol:g}): {'yes' if d.equal_norm_eps <= args.tol else 'no'}")
    return EXIT_OK


def _instance_report(frame, cfg: SolverConfig) -> tuple[dict, bool]:
    inst = nearest_equal_norm_parseval(frame, cfg)
    chain4 = chain2 = None
    try:  # a chain that does not apply to the instance (see its docstring) reads null
        chain4 = equivalence_chain_frame_to_projection(inst).ratio
        chain2 = equivalence_chain_projection_to_frame(inst).ratio
    except (ValueError, ConvergenceError):
        pass
    report = {
        "M": frame.dim,
        "N": frame.n_vectors,
        "eps": inst.eps,
        "distance": inst.distance,
        "iterations": inst.iterations,
        "converged": inst.converged,
        "bound_16eM": inst.bound_16eM,
        "ratio_chain4": chain4,
        "ratio_chain2": chain2,
        "seed": None,
    }
    return report, inst.converged


def cmd_solve(args) -> int:
    frame = _load_frame(args.frame)
    cfg = SolverConfig(tolerance=args.tol, max_iterations=args.max_iter)
    report, converged = _instance_report(frame, cfg)
    print(json.dumps(report, indent=2))
    return EXIT_OK if converged else EXIT_NO_CONVERGENCE


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise _InputError(f"--jobs must be at least 1, got {args.jobs}")
    try:
        config = ExperimentConfig.from_dict(_load(args.config))
    except ValueError as err:
        raise _InputError(f"{args.config}: {err}") from err
    out_path = args.out or config.output_path
    csv_text = run_sweep(config, jobs=args.jobs)
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
    except OSError as err:
        print(f"error: cannot write {out_path}: {err.strerror or err}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    checks = run_suite(args.suite, seed=args.seed, trials=args.trials)
    all_passed = True
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: worst={c.worst:.3e} limit={c.limit:.1e} trials={c.trials}")
        all_passed = all_passed and c.passed
    print("all properties passed" if all_passed else "some properties FAILED")
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def cmd_naimark(args) -> int:
    frame = _load_frame(args.frame)
    if args.check:
        cfg = SolverConfig(tolerance=args.tol, max_iterations=args.max_iter)
        rep = naimark_reduction_check(frame, cfg)
        print(
            json.dumps(
                {
                    "equal_norm_eps": rep.equal_norm_eps,
                    "complement_equal_norm_eps": rep.complement_equal_norm_eps,
                    "transfer_bound": rep.transfer_bound,
                    "complement_distance": rep.complement_distance,
                    "projection_distance": rep.projection_distance,
                    "lift_distance": rep.lift_distance,
                    "ratio": rep.ratio,
                    "within_bound": rep.within_bound,
                },
                indent=2,
            )
        )
        return EXIT_OK
    if args.reduce:
        reduced, flag = reduce_to_small(frame)
        print(json.dumps({"branch": flag, "frame": frame_to_dict(reduced)}, indent=2))
        return EXIT_OK
    comp = naimark_complement(frame)
    print(json.dumps(frame_to_dict(comp), indent=2))
    return EXIT_OK


def cmd_admissible(args) -> int:
    try:
        seq, spectrum = admissibility_query_from_dict(_load(args.query))
    except ValueError as err:
        raise _InputError(f"{args.query}: {err}") from err
    if spectrum is None:
        verdict = is_parseval_admissible(seq)
    else:
        verdict = is_S_admissible(seq, spectrum)
    print(json.dumps(verdict.to_dict(), indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framekit",
        description="Finite frame theory toolkit: defect checks, equal-norm "
        "Parseval solving, batch sweeps, and property verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="print dimensions, frame bounds, and defects")
    p.add_argument("frame", help="frame JSON file")
    p.add_argument("--tol", type=float, default=1e-8, help="verdict tolerance")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("solve", help="solve the equal-norm Parseval instance")
    p.add_argument("frame", help="frame JSON file")
    p.add_argument("--tol", type=float, default=1e-10, help="solver tolerance")
    p.add_argument("--max-iter", type=int, default=10000, help="iteration cap")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("sweep", help="run a seeded experiment grid, write CSV")
    p.add_argument("config", help="experiment config JSON file")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker count")
    p.add_argument("--out", default=None, help="override config output_path")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("--suite", required=True, choices=list(SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("naimark", help="complement a Parseval frame")
    p.add_argument("frame", help="frame JSON file")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--reduce", action="store_true", help="reduce to N <= 2M via the complement")
    g.add_argument("--check", action="store_true", help="run the complement-route distance check")
    p.add_argument("--tol", type=float, default=1e-10, help="solver tolerance for --check")
    p.add_argument("--max-iter", type=int, default=10000, help="iteration cap for --check")
    p.set_defaults(fn=cmd_naimark)

    p = sub.add_parser("admissible", help="test a norm sequence for feasibility")
    p.add_argument("query", help='query JSON file: {"a": [...], "M": int, "lambda": [...]?}')
    p.set_defaults(fn=cmd_admissible)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except ConvergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
