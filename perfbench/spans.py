"""Span recording for the traced benchmark run, installed from outside the
program.

``Bindings`` swaps a function for a wrapper at every ``framekit.*`` module
attribute that binds it, so intra-module calls (``paulsen`` chains calling
``nearest_equal_norm_parseval`` through the module global) are caught, and
puts every binding back on ``restore``.  ``Tracer`` uses it to wrap every
public function of every public ``framekit`` module, ``Frame.__init__``,
``Projection.__init__`` and ``numpy.linalg.eigh``/``svd``/``qr``.

A span is the list ``[name, start, end, parent, op, info]``: ``parent`` is
the index of the enclosing span in the same list (-1 for none), ``op`` the
benchmark op index, and ``info`` a small per-function record (matrix order
for ``eigh``, iterations for solves) taken from the call's arguments or
result.  Spans stay in memory; the benchmark writes them out at the end.
"""

import functools
import importlib
import inspect
import pkgutil
import time

import numpy as np

import framekit
from framekit.frames import Frame
from framekit.subspaces import Projection

NUMPY_LINALG = ("eigh", "svd", "qr")

SOLVE = "paulsen.nearest_equal_norm_parseval"
PRESCRIBED_SOLVE = "admissibility.nearest_prescribed_norm_parseval"


def _solve_info(args, kwargs, result):
    return [result.iterations, result.converged]


# What each span keeps besides its times; everything else keeps None.
INFO = {
    "numpy.linalg.eigh": lambda args, kwargs, result: int(np.shape(args[0])[-1]),
    "frames.defects": lambda args, kwargs, result: result.max(),
    "paulsen.perturb": lambda args, kwargs, result: args[1] if len(args) > 1 else kwargs["eps"],
    SOLVE: _solve_info,
    PRESCRIBED_SOLVE: _solve_info,
    "verify.run_suite": lambda args, kwargs, result: args[0] if args else kwargs["name"],
}


def framekit_modules() -> list:
    """The framekit package and every submodule except ``__main__``."""
    names = [f"framekit.{m.name}" for m in pkgutil.iter_modules(framekit.__path__)]
    return [framekit] + [importlib.import_module(n) for n in names if n != "framekit.__main__"]


class Bindings:
    """Replaces bindings and remembers how to put every one of them back."""

    def __init__(self):
        self._undo = []
        self._modules = framekit_modules()

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def rebind(self, original, replacement) -> None:
        """Point every framekit module attribute bound to ``original`` at
        ``replacement``."""
        for mod in self._modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, name, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def public_functions() -> dict:
    """Map each public function of each public framekit module to its span
    name ``<module>.<function>``."""
    found = {}
    for mod in framekit_modules():
        short = mod.__name__.rpartition(".")[2]
        if mod.__name__ == "framekit" or short.startswith("_"):
            continue
        for name, value in vars(mod).items():
            if not name.startswith("_") and inspect.isfunction(value) and value.__module__ == mod.__name__:
                found[value] = f"{short}.{name}"
    return found


class Tracer:
    """Records nested spans while installed."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._bindings = Bindings()

    def wrap(self, name: str, fn):
        info = INFO.get(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if info is not None:
                record[5] = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for fn, name in public_functions().items():
            self._bindings.rebind(fn, self.wrap(name, fn))
        self._bindings.set(Frame, "__init__", self.wrap("frames.Frame", Frame.__init__))
        self._bindings.set(
            Projection, "__init__", self.wrap("subspaces.Projection", Projection.__init__)
        )
        for name in NUMPY_LINALG:
            fn = getattr(np.linalg, name)
            self._bindings.set(np.linalg, name, self.wrap(f"numpy.linalg.{name}", fn))

    def uninstall(self) -> None:
        self._bindings.restore()

    def run_op(self, op: int, fn, *args):
        """Run one benchmark op under a root span named ``op``."""
        self.op = op
        try:
            return self.wrap("op", fn)(*args)
        finally:
            self.op = -1


def self_times(spans: list) -> list:
    """Each span's duration minus the time its direct children cover.

    Spans of one thread nest strictly, so a child lies inside its parent and
    siblings do not overlap; grandchildren are charged to their own parent.
    """
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _has_ancestor(spans: list, idx: int, name: str) -> bool:
    idx = spans[idx][3]
    while idx >= 0:
        if spans[idx][0] == name:
            return True
        idx = spans[idx][3]
    return False


def batch_totals(spans: list) -> dict:
    """Aggregate one traced batch into totals; ``layer_metrics`` divides them
    per op.  Times are in seconds."""
    own = self_times(spans)
    calls, dur, self_s = {}, {}, {}
    for i, s in enumerate(spans):
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        dur[name] = dur.get(name, 0.0) + (s[2] - s[1])
        self_s[name] = self_s.get(name, 0.0) + own[i]

    n3 = sum(s[5] ** 3 for s in spans if s[0] == "numpy.linalg.eigh" and s[5] is not None)
    solve_iters = solve_conv = naimark_iters = naimark_solves = presc_iters = 0
    perturb_calls = attempts = accepted = 0
    input_checked = set()
    for i, s in enumerate(spans):
        name, parent = s[0], s[3]
        if s[5] is None and name in INFO:
            continue  # the call raised before its info was taken
        if name == SOLVE:
            solve_iters += s[5][0]
            solve_conv += bool(s[5][1])
            if _has_ancestor(spans, i, "naimark.naimark_reduction_check"):
                naimark_iters += s[5][0]
                naimark_solves += 1
        elif name == PRESCRIBED_SOLVE:
            presc_iters += s[5][0]
        elif name == "paulsen.perturb":
            perturb_calls += 1
        elif parent >= 0 and spans[parent][0] == "paulsen.perturb" and spans[parent][5] is not None:
            # One Frame per bisection attempt.  The first defects call checks
            # the input; each later one scores an attempt that spanned.
            if name == "frames.Frame":
                attempts += 1
            elif name == "frames.defects":
                if parent in input_checked:
                    accepted += s[5] <= spans[parent][5]
                else:
                    input_checked.add(parent)
    suites = {}
    for s in spans:
        if s[0] == "verify.run_suite":
            suites[s[5]] = suites.get(s[5], 0.0) + (s[2] - s[1])
    return {
        "ops": calls.get("op", 0),
        "op_s": dur.get("op", 0.0),
        "calls": calls,
        "dur": dur,
        "self": self_s,
        "eigh_n3": n3,
        "solve_iters": solve_iters,
        "solve_conv": solve_conv,
        "naimark_iters": naimark_iters,
        "naimark_solves": naimark_solves,
        "presc_iters": presc_iters,
        "perturb_calls": perturb_calls,
        "perturb_attempts": attempts,
        "perturb_accepted": accepted,
        "suites": suites,
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# Per-layer metrics: name -> (unit, function of batch totals).  Unit
# ``count`` marks the numbers that repeat exactly for a fixed seed.
def _ms(name):
    return lambda t: 1e3 * _ratio(t["dur"].get(name, 0.0), t["ops"])


def _self_ms(name):
    return lambda t: 1e3 * _ratio(t["self"].get(name, 0.0), t["ops"])


def _calls(*names):
    return lambda t: _ratio(sum(t["calls"].get(n, 0) for n in names), t["ops"])


def _cli_self_ms(t):
    own = sum(v for k, v in t["self"].items() if k.startswith("cli."))
    return 1e3 * _ratio(own, t["ops"])


def _linalg_share(t):
    lapack = sum(t["dur"].get(f"numpy.linalg.{n}", 0.0) for n in NUMPY_LINALG)
    return _ratio(lapack, t["op_s"])


CHAIN4 = "paulsen.equivalence_chain_frame_to_projection"
CHAIN2 = "paulsen.equivalence_chain_projection_to_frame"
VERDICTS = ("admissibility.is_parseval_admissible", "admissibility.is_S_admissible")

LAYER_METRICS = {
    "numpy.linalg.eigh.calls_per_op": ("count", _calls("numpy.linalg.eigh")),
    "numpy.linalg.eigh.ms_per_op": ("ms", _ms("numpy.linalg.eigh")),
    "numpy.linalg.eigh.n3_per_op": ("count", lambda t: _ratio(t["eigh_n3"], t["ops"])),
    "numpy.linalg.svd.ms_per_op": ("ms", _ms("numpy.linalg.svd")),
    "numpy.linalg.share": ("ratio", _linalg_share),
    "linalg.herm_eig.calls_per_op": ("count", _calls("linalg.herm_eig")),
    "linalg.herm_eig.self_ms_per_op": ("ms", _self_ms("linalg.herm_eig")),
    "linalg.inv_sqrt_psd.calls_per_op": ("count", _calls("linalg.inv_sqrt_psd")),
    "frames.Frame.calls_per_op": ("count", _calls("frames.Frame")),
    "frames.Frame.self_ms_per_op": ("ms", _self_ms("frames.Frame")),
    "frames.defects.calls_per_op": ("count", _calls("frames.defects")),
    "frames.defects.ms_per_op": ("ms", _ms("frames.defects")),
    "frames.canonical_parseval.calls_per_op": ("count", _calls("frames.canonical_parseval")),
    "paulsen.perturb.ms_per_op": ("ms", _ms("paulsen.perturb")),
    "paulsen.perturb.attempts_per_call": (
        "count",
        lambda t: _ratio(t["perturb_attempts"], t["perturb_calls"]),
    ),
    "paulsen.perturb.accept_ratio": (
        "ratio",
        lambda t: _ratio(t["perturb_accepted"], t["perturb_attempts"]),
    ),
    "paulsen.solve.calls_per_op": ("count", _calls(SOLVE)),
    "paulsen.solve.ms_per_op": ("ms", _ms(SOLVE)),
    "paulsen.solve.self_ms_per_op": ("ms", _self_ms(SOLVE)),
    "paulsen.solve.iterations_per_solve": (
        "count",
        lambda t: _ratio(t["solve_iters"], t["calls"].get(SOLVE, 0)),
    ),
    "paulsen.solve.us_per_iter": (
        "us",
        lambda t: 1e6 * _ratio(t["dur"].get(SOLVE, 0.0), t["solve_iters"]),
    ),
    "paulsen.solve.converged_ratio": (
        "ratio",
        lambda t: _ratio(t["solve_conv"], t["calls"].get(SOLVE, 0)),
    ),
    "paulsen.chain4.ms_per_op": ("ms", _ms(CHAIN4)),
    "paulsen.chain2.ms_per_op": ("ms", _ms(CHAIN2)),
    "naimark.reduction_check.ms_per_op": ("ms", _ms("naimark.naimark_reduction_check")),
    "naimark.complement.ms_per_op": ("ms", _ms("naimark.naimark_complement")),
    "naimark.complement.iterations_per_solve": (
        "count",
        lambda t: _ratio(t["naimark_iters"], t["naimark_solves"]),
    ),
    "naimark.reduce_to_small.ms_per_op": ("ms", _ms("naimark.reduce_to_small")),
    "subspaces.Projection.calls_per_op": ("count", _calls("subspaces.Projection")),
    "subspaces.Projection.ms_per_op": ("ms", _ms("subspaces.Projection")),
    "subspaces.frame_lift.ms_per_op": ("ms", _ms("subspaces.frame_lift")),
    "subspaces.frame_from_projection.ms_per_op": ("ms", _ms("subspaces.frame_from_projection")),
    "subspaces.principal_angles.ms_per_op": ("ms", _ms("subspaces.principal_angles")),
    "admissibility.prescribed_solve.ms_per_op": ("ms", _ms(PRESCRIBED_SOLVE)),
    "admissibility.prescribed_solve.iterations_per_solve": (
        "count",
        lambda t: _ratio(t["presc_iters"], t["calls"].get(PRESCRIBED_SOLVE, 0)),
    ),
    "admissibility.verdict.calls_per_op": ("count", _calls(*VERDICTS)),
    "admissibility.verdict.ms_per_op": (
        "ms",
        lambda t: 1e3 * _ratio(sum(t["dur"].get(n, 0.0) for n in VERDICTS), t["ops"]),
    ),
    "verify.geometry.ms_per_op": (
        "ms",
        lambda t: 1e3 * _ratio(t["suites"].get("geometry", 0.0), t["ops"]),
    ),
    "verify.admissible.ms_per_op": (
        "ms",
        lambda t: 1e3 * _ratio(t["suites"].get("admissible", 0.0), t["ops"]),
    ),
    "sweep.trial.ms_per_op": ("ms", _ms("sweep.run_trial")),
    # run_trial is run_sweep's only traced child, so this is run_sweep's
    # own time: building tasks and collating the CSV.
    "sweep.collate.ms_per_op": ("ms", _self_ms("sweep.run_sweep")),
    "cli.main.self_ms_per_op": ("ms", _cli_self_ms),
    "serialize.frame_from_dict.ms_per_op": ("ms", _ms("serialize.frame_from_dict")),
}


def layer_metrics(totals: dict) -> dict:
    return {name: fn(totals) for name, (_, fn) in LAYER_METRICS.items()}


def count_metrics() -> list:
    return [name for name, (unit, _) in LAYER_METRICS.items() if unit == "count"]
