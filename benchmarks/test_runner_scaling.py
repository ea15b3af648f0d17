"""Micro-benchmark: runner scaling and the single-pass Sylvester ablation.

Two perf claims are pinned here:

1. the process-pool runner is not slower than serial execution beyond
   noise, and genuinely overlaps waiting tasks (asserted with
   sleep-bound tasks so the check holds even on single-core CI);
2. ``sylvester_positive_definite`` computes all leading principal
   minors in ONE Bareiss elimination pass — measurably faster than the
   seed implementation's per-minor determinants (Θ(n³) vs Θ(n⁴)).
"""

from __future__ import annotations

import dataclasses
import random
import time
from fractions import Fraction

from repro.exact import (
    RationalMatrix,
    bareiss_determinant,
    sylvester_positive_definite,
)
from repro.experiments import MethodKey, run_table1
from repro.runner import Task, TimingCollector, run_tasks
from repro.service import CampaignEngine

QUICK_METHODS = [MethodKey("eq-num"), MethodKey("lmi", "shift")]


class WaitTask(Task):
    """A task dominated by blocked time (deadline waits, solver polls):
    the workload that motivates the pool even on one core."""

    def __init__(self, seconds):
        self.seconds = seconds

    def run(self):
        time.sleep(self.seconds)
        return self.seconds


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_parallel_not_slower_than_serial():
    """8 x 0.15 s of blocked time: serial pays ~1.2 s, two workers about
    half; spawn/pickle overhead must stay well inside that margin."""
    tasks = [WaitTask(0.15) for _ in range(8)]
    serial_results, serial_s = _timed(lambda: run_tasks(tasks, jobs=1))
    parallel_results, parallel_s = _timed(lambda: run_tasks(tasks, jobs=2))
    assert parallel_results == serial_results
    assert parallel_s <= serial_s * 0.75 + 0.2


def test_quick_grid_scaling():
    """The real quick Table I grid at --jobs 1 vs --jobs 2: identical
    records (modulo measured wall times), wall-clock not slower beyond
    noise, one timing record per task."""
    kwargs = dict(sizes=(3,), integer_sizes=(3,), methods=QUICK_METHODS)
    (serial_records, _), serial_s = _timed(
        lambda: run_table1(engine=CampaignEngine(jobs=1), **kwargs)
    )
    parallel_timing = TimingCollector()
    (parallel_records, _), parallel_s = _timed(
        lambda: run_table1(
            engine=CampaignEngine(jobs=2, timing=parallel_timing), **kwargs
        )
    )

    def normalize(record):
        return dataclasses.replace(
            record, synth_time=0.0, validation_time=0.0
        )

    assert [normalize(r) for r in serial_records] == [
        normalize(r) for r in parallel_records
    ]
    # Generous noise bound: the quick grid is sub-second, and on a
    # single-core box two workers only add overhead — they must not
    # add much. Multi-core machines land well under 1x.
    assert parallel_s <= serial_s * 3.0 + 1.0
    assert len(parallel_timing.timings) == 8


def _per_minor_sylvester(matrix):
    """The seed implementation: one Bareiss determinant per minor."""
    for k in range(1, matrix.rows + 1):
        if bareiss_determinant(matrix.leading_principal(k)) <= 0:
            return False
    return True


def test_single_pass_sylvester_beats_per_minor():
    """Ablation: on an 18x18 PD rational matrix the single-pass check
    must clearly beat the per-minor seed implementation."""
    rng = random.Random(20230618)
    n = 18
    g = RationalMatrix(
        [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
    )
    # Denominator-heavy PD matrix, like sigfig-rounded candidates.
    matrix = RationalMatrix(
        [[x / 10_000 for x in row]
         for row in (g @ g.T + RationalMatrix.identity(n).scale(n)).tolist()]
    ).symmetrize()
    new_verdict, new_s = _timed(lambda: sylvester_positive_definite(matrix))
    old_verdict, old_s = _timed(lambda: _per_minor_sylvester(matrix))
    assert new_verdict is True and old_verdict is True
    assert new_s < old_s * 0.5  # measured ~10x; 2x is the safety floor
