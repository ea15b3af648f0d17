"""Metric tables and the small statistics every part of the benchmark uses.

The names, units and directions here are the benchmark's vocabulary:
``BENCHMARK.json`` lists the same end-to-end and per-layer metrics
(``bench/tests/test_golden.py`` keeps the two in step), and
:mod:`bench.compare` reads the regression bounds from that file.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"


#: What a user of the program sees, reported from untraced rounds.
END_TO_END = (
    Metric("setup_s", "s", "lower"),
    Metric("wall_s", "s", "lower"),
    Metric("verdicts_per_s", "1/s", "higher"),
    Metric("latency_p50_ms", "ms", "lower"),
    Metric("latency_p99_ms", "ms", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
)

#: Correctness, recorded in every result file next to END_TO_END. Both
#: are zero on a healthy run, so they are not regression-bounded timings:
#: any nonzero value fails the run (``correct`` is false, exit code 1).
CORRECTNESS = (
    Metric("failed_share", "ratio", "lower"),
    Metric("wrong_verdicts", "count", "lower"),
)

#: One row per layer metric, reported from traced rounds. Times are self
#: times (span duration minus the part its child spans cover) except where
#: ``trace.layer_metrics`` and the README say otherwise.
PER_LAYER = (
    Metric("runner.dispatch_overhead_s", "s", "lower"),
    Metric("runner.pool_efficiency", "ratio", "higher"),
    Metric("runner.task_busy_s", "s", "lower"),
    Metric("runner.task_p50_ms", "ms", "lower"),
    Metric("runner.task_p90_ms", "ms", "lower"),
    Metric("runner.journal_write_s", "s", "lower"),
    Metric("runner.journal_writes", "count", "lower"),
    Metric("runner.fingerprint_s", "s", "lower"),
    Metric("runner.retries", "count", "lower"),
    Metric("runner.requeues", "count", "lower"),
    Metric("runner.errors", "count", "lower"),
    Metric("runner.timeouts", "count", "lower"),
    Metric("service.hit_ratio", "ratio", "higher"),
    Metric("service.fingerprint_s", "s", "lower"),
    Metric("service.store_get_s", "s", "lower"),
    Metric("service.store_put_s", "s", "lower"),
    Metric("service.compute_s", "s", "lower"),
    Metric("lyapunov.synthesize_s", "s", "lower"),
    Metric("lyapunov.synthesize_calls", "count", "lower"),
    Metric("lyapunov.snap_s", "s", "lower"),
    Metric("lyapunov.verify_s", "s", "lower"),
    Metric("lyapunov.cegis_rounds", "count", "lower"),
    Metric("lyapunov.cegis_cuts", "count", "lower"),
    Metric("sdp.ipm_s", "s", "lower"),
    Metric("sdp.shift_s", "s", "lower"),
    Metric("sdp.proj_s", "s", "lower"),
    Metric("sdp.compile_s", "s", "lower"),
    Metric("sdp.ellipsoid_s", "s", "lower"),
    Metric("sdp.ellipsoid_iterations", "count", "lower"),
    Metric("sdp.barrier_s", "s", "lower"),
    Metric("sdp.screen_s", "s", "lower"),
    Metric("validate.candidate_s", "s", "lower"),
    Metric("validate.calls", "count", "lower"),
    Metric("validate.degraded", "count", "lower"),
    Metric("exact.det_s", "s", "lower"),
    Metric("exact.minors_s", "s", "lower"),
    Metric("exact.ldlt_s", "s", "lower"),
    Metric("exact.int_calls", "count", "lower"),
    Metric("exact.modular_calls", "count", "lower"),
    Metric("exact.kernel_cache_hit_ratio", "ratio", "higher"),
    Metric("exact.rationalize_s", "s", "lower"),
    Metric("smt.sphere_check_s", "s", "lower"),
    Metric("smt.icp_check_s", "s", "lower"),
    Metric("smt.icp_boxes", "count", "lower"),
    Metric("smt.polynomial_s", "s", "lower"),
    Metric("oracle.check_system_s", "s", "lower"),
    Metric("oracle.checks", "count", "higher"),
    Metric("oracle.disagreements", "count", "lower"),
    Metric("bench.trace_overhead", "ratio", "lower"),
    Metric("bench.layer_coverage", "ratio", "higher"),
)


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (NumPy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)``, the quartiles as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, median(values), q3


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    middle = median(values)
    return (q3 - q1) / abs(middle) if middle else math.inf
