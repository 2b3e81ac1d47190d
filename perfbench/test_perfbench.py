"""Tests of the benchmark's own logic: the tail rule, self time of nested
spans, seed-determinism of the inputs, exact repeat of the count metrics, and
that every wrapper is taken out again.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import framekit  # noqa: E402
from framekit import frames, subspaces  # noqa: E402
from spans import (  # noqa: E402
    LAYER_METRICS,
    NUMPY_LINALG,
    Tracer,
    batch_totals,
    count_metrics,
    framekit_modules,
    layer_metrics,
    self_times,
)
from stats import median_rate, tail  # noqa: E402
from workloads import WORKLOADS, SolveLog  # noqa: E402


def test_tail_is_eleventh_largest_at_its_percentile():
    assert tail(list(range(1, 101))) == (90, 90.0, 100)
    value, pct, n = tail([5.0] * 30 + [9.0] * 10)
    assert (value, pct, n) == (5.0, 75.0, 40)


def test_tail_without_enough_samples_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert tail(list(range(11))) == (0, 100.0 * 1 / 11, 11)


def test_median_rate_uses_complete_cycles_only():
    # Two complete cycles of 2 ops taking 1 s and 4 s; the lone third cycle
    # op is left out.
    assert median_rate([0.5, 0.5, 2.0, 2.0, 100.0], 2) == pytest.approx((2 / 1 + 2 / 4) / 2)
    # A run cut before its first cycle completed counts all its ops.
    assert median_rate([0.5, 1.5], 4) == pytest.approx(1.0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, -1, 0, None],
        ["child", 1.0, 4.0, 0, 0, None],
        ["grandchild", 2.0, 3.0, 1, 0, None],
        ["child", 5.0, 9.0, 0, 0, None],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_records_parents_of_nested_calls():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: [inner(), inner()])
    tracer.run_op(3, outer)
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["op", "outer", "inner", "inner"]
    assert parents == [-1, 0, 1, 1]
    assert all(s[4] == 3 for s in tracer.spans)
    own = self_times(tracer.spans)
    assert all(t >= 0.0 for t in own)
    assert sum(own) == pytest.approx(tracer.spans[0][2] - tracer.spans[0][1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_the_seed(name, tmp_path):
    wl = WORKLOADS[name]
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()

    def contents(op_input, i):
        inp = op_input(i)
        return Path(inp).read_text() if name == "solve-large" else inp

    a, b = wl.inputs(5, first), wl.inputs(5, second)
    other = wl.inputs(6, second)
    for i in range(wl.cycle + 1):
        assert contents(a, i) == contents(b, i)
    assert [contents(a, i) for i in range(wl.cycle)] != [contents(other, i) for i in range(wl.cycle)]


def _bindings():
    snap = {}
    for mod in framekit_modules():
        for name, value in vars(mod).items():
            if callable(value):
                snap[(mod.__name__, name)] = value
    snap["Frame.__init__"] = frames.Frame.__dict__["__init__"]
    snap["Projection.__init__"] = subspaces.Projection.__dict__["__init__"]
    for name in NUMPY_LINALG:
        snap[name] = getattr(np.linalg, name)
    return snap


def _sweep_op():
    wl = WORKLOADS["sweep-ref"]
    return wl, wl.inputs(1, None)(0)


def test_every_wrapper_is_removed_after_a_traced_run():
    before = _bindings()
    log, tracer = SolveLog(), Tracer()
    log.install()
    tracer.install()
    try:
        during = _bindings()
        for key in [
            ("framekit.paulsen", "nearest_equal_norm_parseval"),
            ("framekit.naimark", "nearest_equal_norm_parseval"),
            ("framekit.cli", "main"),
            "Frame.__init__",
            "eigh",
        ]:
            assert during[key] is not before[key], key
        wl, inp = _sweep_op()
        tracer.run_op(0, wl.run, inp)
    finally:
        tracer.uninstall()
        log.uninstall()
    assert log.solves and tracer.spans
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_count_metrics_repeat_exactly():
    wl, inp = _sweep_op()
    results = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            tracer.run_op(0, wl.run, inp)
        finally:
            tracer.uninstall()
        results.append(layer_metrics(batch_totals(tracer.spans)))
    counts = count_metrics()
    assert "paulsen.solve.calls_per_op" in counts
    assert [results[0][n] for n in counts] == [results[1][n] for n in counts]
    assert results[0]["paulsen.solve.calls_per_op"] >= 1
    assert results[0]["paulsen.perturb.attempts_per_call"] >= 1


def test_solve_log_flags_unconverged_and_off_tolerance_solutions():
    exact = framekit.harmonic_frame(2, 5)
    off = framekit.Frame(exact.vectors * 1.01)
    log = SolveLog()
    log.solves = [(SimpleNamespace(converged=True, solution=exact), None)]
    assert log.take() == []
    log.solves = [
        (SimpleNamespace(converged=True, solution=off), None),
        (SimpleNamespace(converged=False, solution=exact), None),
    ]
    assert len(log.take()) == 2
    assert log.solves == []


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: unit for k, (unit, _) in LAYER_METRICS.items()}.items() <= layers.items()
    # Reported by the traced run itself rather than from span totals.
    assert set(layers) - set(LAYER_METRICS) == {
        "sweep.jobs2.trials_per_s",
        "sweep.jobs2.speedup",
        "trace.overhead_frac",
    }
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s",
        "ops_per_s",
        "op_p50_ms",
        "cpu_ms_per_op",
        "peak_rss_mb",
    ]
