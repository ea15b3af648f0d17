"""Benchmark harness for the certification service.

Replays a 10³-request trace shaped like the Table I / Table II
workloads — the closed-loop mode matrices of the benchmark suite under
several decay-scaling levels, requested repeatedly with the skew of a
real certification stream — through one
:class:`repro.service.CertificationService`, twice:

* **cold**: empty content-addressed store; first occurrences pay full
  synthesis+validation, repeats within the trace already hit the cache;
* **warm**: the same trace replayed against the populated store — every
  request is a cache hit.

The headline pin is the warm-over-cold speedup of the full replay
(wall-clock), which must be at least 5x. ``REPRO_PERF_SOFT=1``
(shared/noisy CI runners) relaxes the 5x pin to a warning but still
hard-fails below 2.5x. A second pin covers fingerprint memoization (a
10⁴-task campaign fingerprints every task at least twice: journal
lookup + record).

The replay passes the same pre-built :class:`CertifyTask` objects
again and again, so after a task's first fingerprint its hits cost one
memo read and one store lookup: the warm pass's few microseconds per
request measure the memo, not what a client pays. A client sends a
fresh matrix each time, and its hit builds a new task and fingerprints
it. The third pin times exactly that, as the ``certify-stream``
benchmark workload does: the median hit on a 21-state closed loop may
cost at most 2x the median hit on a 6-state one (3x under
``REPRO_PERF_SOFT``). Content-addressing the float64 bytes keeps the
ratio near 1.2; writing every entry out as JSON text made it 3.3.
"""

from __future__ import annotations

import os
import statistics
import time
import warnings

import numpy as np
import pytest

from repro.engine import MODES, benchmark_suite, case_by_name
from repro.runner import task_fingerprint
from repro.service import CertificationService, CertifyTask

N_REQUESTS = 1_000
PIN_SPEEDUP = 5.0
#: REPRO_PERF_SOFT floor: >2x regression from the pinned 5x baseline.
SOFT_FLOOR_SPEEDUP = 2.5

N_FINGERPRINT_TASKS = 10_000
#: The memoized fingerprint is one attribute read; recomputing the
#: salted SHA-256 over the tagged-JSON spec is orders of magnitude
#: slower. Pin a conservative floor.
FINGERPRINT_PIN_SPEEDUP = 5.0

N_HITS = 2_000
#: Largest 21-state over 6-state median hit latency (about 1.2 measured).
HIT_RATIO_PIN = 2.0
#: REPRO_PERF_SOFT ceiling.
SOFT_CEILING_HIT_RATIO = 3.0


def _trace() -> list[CertifyTask]:
    """The distinct request population + the skewed 10³-request trace.

    Six closed-loop mode matrices (sizes 3 and 5, both operating
    modes) under eight decay scalings = 48 distinct certification
    requests, replayed round-robin to ``N_REQUESTS`` — so the cold
    pass itself sees ~95% repeats, the shape of a fleet certifying a
    gain-schedule grid.
    """
    matrices = [
        np.asarray(case.mode_matrix(mode), dtype=float)
        for case in benchmark_suite(sizes=(3, 5), integer_sizes=(3,))
        for mode in MODES
    ]
    distinct = [
        CertifyTask(scale * a, method="lmi", backend="ipm", sigfigs=8)
        for a in matrices
        for scale in (1.0, 1.05, 1.1, 1.15, 1.2, 1.25, 1.3, 1.35)
    ]
    return [distinct[i % len(distinct)] for i in range(N_REQUESTS)]


def _replay(service: CertificationService, trace) -> float:
    """Wall seconds to certify every request of ``trace`` in order."""
    started = time.perf_counter()
    for request in trace:
        certificate = service.certify(request)
        assert certificate.synth_status == "ok"
    return time.perf_counter() - started


def test_service_replay_speedup_pin():
    """The tentpole pin: warm replay >=5x faster than the cold pass."""
    soft = bool(os.environ.get("REPRO_PERF_SOFT"))
    trace = _trace()
    distinct = len({task_fingerprint(t) for t in trace})
    with CertificationService(sigfigs=8) as service:
        cold_s = _replay(service, trace)
        cold_counters = service.counters()
        warm_s = _replay(service, trace)
        warm_counters = service.counters()

    # Cold pass: every distinct request computed exactly once, repeats
    # served from the cache. Warm pass: pure cache hits.
    assert cold_counters["computations"] == distinct
    assert warm_counters["computations"] == distinct
    assert warm_counters["memory_hits"] == 2 * len(trace) - distinct

    speedup = cold_s / warm_s
    floor = SOFT_FLOOR_SPEEDUP if soft else PIN_SPEEDUP
    if soft and speedup < PIN_SPEEDUP:
        warnings.warn(
            f"service replay: warm speedup {speedup:.1f}x below the "
            f"{PIN_SPEEDUP:g}x pin (soft mode, floor "
            f"{SOFT_FLOOR_SPEEDUP:g}x)",
            stacklevel=1,
        )
    assert speedup >= floor, (
        f"warm replay {warm_s:.3f}s is only {speedup:.1f}x over "
        f"the cold pass {cold_s:.3f}s (floor {floor:g}x)"
    )


def _fingerprint_bench() -> dict:
    """Fingerprint a 10⁴-task campaign's hot loop, cold vs memoized."""
    tasks = [
        CertifyTask(
            [[-1.0 - i / N_FINGERPRINT_TASKS, 0.25], [0.0, -2.0]],
            method="lmi", backend="shift",
        )
        for i in range(N_FINGERPRINT_TASKS)
    ]
    started = time.perf_counter()
    for task in tasks:
        task_fingerprint(task)
    cold_s = time.perf_counter() - started
    started = time.perf_counter()
    for task in tasks:
        task_fingerprint(task)
    memo_s = time.perf_counter() - started
    return {
        "tasks": N_FINGERPRINT_TASKS,
        "cold_s": cold_s,
        "memoized_s": memo_s,
        "speedup": cold_s / memo_s,
    }


def test_fingerprint_memoization_speedup():
    """The runner's hot loop fingerprints every task at least twice
    (journal lookup, then the result record); the memo makes every
    repeat a single attribute read."""
    result = _fingerprint_bench()
    assert result["speedup"] >= FINGERPRINT_PIN_SPEEDUP, (
        f"memoized fingerprinting only {result['speedup']:.1f}x faster "
        f"than recomputation (floor {FINGERPRINT_PIN_SPEEDUP:g}x)"
    )


def test_replay_certificates_match_direct_path():
    """Spot-check the replay returns exactly what direct tasks compute."""
    trace = _trace()[:4]
    direct = [
        CertifyTask(
            t.a, method=t.method, backend=t.backend,
            validator=t.validator, sigfigs=t.sigfigs,
        ).run()
        for t in trace
    ]
    with CertificationService(sigfigs=8) as service:
        served = [service.certify(t) for t in trace]
    assert [c.identity() for c in served] == [
        c.identity() for c in direct
    ]


def test_hit_latency_does_not_grow_with_the_matrix():
    """A repeat request sent as a fresh copy costs about the same at 21
    states as at 6: its fingerprint hashes the matrix bytes instead of
    encoding every entry. Hits on the two sizes alternate, so host drift
    moves both medians alike."""
    soft = bool(os.environ.get("REPRO_PERF_SOFT"))
    small = np.asarray(case_by_name("size3").mode_matrix(0), float)
    large = np.asarray(case_by_name("size18").mode_matrix(0), float)
    assert (small.shape[0], large.shape[0]) == (6, 21)
    samples = {6: [], 21: []}
    with CertificationService(sigfigs=8) as service:
        for a in (small, large):  # the two misses
            service.certify(a.copy(), method="lmi", backend="ipm")
        for _ in range(N_HITS):
            for a in (small, large):
                fresh = a.copy()
                started = time.perf_counter()
                service.certify(fresh, method="lmi", backend="ipm")
                samples[len(a)].append(time.perf_counter() - started)
        counters = service.counters()
    assert counters["computations"] == 2

    small_s, large_s = (statistics.median(samples[n]) for n in (6, 21))
    ratio = large_s / small_s
    ceiling = SOFT_CEILING_HIT_RATIO if soft else HIT_RATIO_PIN
    if soft and ratio > HIT_RATIO_PIN:
        warnings.warn(
            f"hit latency: 21-state {ratio:.2f}x the 6-state one, above "
            f"the {HIT_RATIO_PIN:g}x pin (soft mode, ceiling "
            f"{SOFT_CEILING_HIT_RATIO:g}x)",
            stacklevel=1,
        )
    assert ratio <= ceiling, (
        f"a 21-state hit takes {large_s * 1e6:.0f} us, {ratio:.2f}x the "
        f"6-state {small_s * 1e6:.0f} us (ceiling {ceiling:g}x)"
    )
