"""Summary statistics of one benchmark run."""

import statistics

TAIL_BEYOND = 10


def tail(values: list) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ``TAIL_BEYOND``
    samples beyond it, with that percentile and the sample count.

    That is the eleventh-largest sample: ten lie above it, and it sits at
    percentile 100 * (n - 10) / n.  The percentile moves smoothly with n, so
    runs that finish a few more or fewer ops report comparable values.  With
    ten samples or fewer no percentile qualifies; the maximum is returned at
    percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    return xs[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n


def cycles(values: list, cycle: int) -> list:
    """Consecutive complete cycles of ``cycle`` values, or all the values as
    one group when a run was cut before its first cycle completed."""
    groups = [values[k : k + cycle] for k in range(0, len(values) - cycle + 1, cycle)]
    return groups or [values]


def median_rate(latencies: list, cycle: int) -> float:
    """Ops per second: the median over cycles of ops / cycle time."""
    return statistics.median(len(g) / sum(g) for g in cycles(latencies, cycle))


def median_per_op(values: list, cycle: int) -> float:
    """The median over cycles of the per-op mean of ``values``."""
    return statistics.median(sum(g) / len(g) for g in cycles(values, cycle))
