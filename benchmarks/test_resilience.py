"""Resilience-machinery benchmarks: journal overhead and resume speedup.

The crash-safety layer (append-only fsync'd journal, retry bookkeeping)
rides along on every journaled campaign, so its cost must stay
negligible next to the tasks it protects. This benchmark times a
realistic validation workload with and without a journal, pins the
per-task overhead below 5%, and measures the replay speedup of resuming
a half-completed campaign.
"""

from __future__ import annotations

import pathlib
import tempfile
import time

import numpy as np

from repro.lyapunov import synthesize
from repro.runner import CampaignStats, Journal, Task, run_tasks
from repro.validate import validate_candidate

N_TASKS = 24
#: States per validated system: the paper's full 21-state closed loop.
N_STATES = 21
#: Maximum tolerated journal overhead per task, as a fraction of the
#: task's own runtime. Measured on a 2-CPU Linux VM: a task takes
#: 28-34 ms (best of 3, 12 seeds) and ``Journal.record`` spends
#: 10-23 ms per 24-task campaign, 1.5-3% of its wall time.
OVERHEAD_BOUND = 0.05


class ValidationTask(Task):
    """A realistic campaign unit: exact validation of a stable 21-state
    candidate, the size of the paper's full closed loop. A smaller
    system makes the pin measure the disk: on the same VM an n=10 task
    took about 5 ms, against 1-2 ms per fsync'd journal line."""

    def __init__(self, index: int, seed: int):
        self.index = index
        self.seed = seed

    def run(self):
        rng = np.random.default_rng(self.seed)
        a = rng.normal(size=(N_STATES, N_STATES))
        a -= (np.linalg.eigvals(a).real.max() + 0.5) * np.eye(N_STATES)
        candidate = synthesize("eq-num", a)
        report = validate_candidate(candidate, a)
        return bool(report.valid)


def _tasks():
    return [ValidationTask(i, seed=100 + i) for i in range(N_TASKS)]


def _campaign_wall(journal=None):
    start = time.perf_counter()
    results = run_tasks(_tasks(), jobs=1, journal=journal)
    elapsed = time.perf_counter() - start
    assert all(isinstance(r, bool) for r in results)
    return elapsed


def test_journal_overhead_and_resume_speedup():
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "campaign.jsonl"

        # Warm-up (imports, kernel caches), then interleave the two
        # configurations and keep each one's best-of-3: robust against
        # one-sided load spikes on a shared CI box.
        _campaign_wall()
        plain, journaled = float("inf"), float("inf")
        for _ in range(3):
            plain = min(plain, _campaign_wall())
            with Journal(path) as journal:
                journaled = min(journaled, _campaign_wall(journal=journal))
        relative = max(0.0, journaled - plain) / plain

        # Pin: journaling a campaign costs < 5% per task.
        assert relative < OVERHEAD_BOUND, (
            f"journal overhead {relative:.1%} exceeds "
            f"{OVERHEAD_BOUND:.0%} ({journaled:.3f}s vs {plain:.3f}s)"
        )

        # Resume a half-completed campaign: replay must beat re-running.
        half = _tasks()[: N_TASKS // 2]
        with Journal(path) as journal:
            run_tasks(half, jobs=1, journal=journal)
        stats = CampaignStats()
        start = time.perf_counter()
        with Journal(path, resume=True) as journal:
            run_tasks(_tasks(), jobs=1, journal=journal, stats=stats)
        resumed = time.perf_counter() - start
        assert stats.replayed == N_TASKS // 2
        assert stats.executed == N_TASKS - N_TASKS // 2
        # The resumed run executes half the tasks: it must land well
        # under a full campaign (75% leaves headroom for replay cost).
        assert resumed < plain * 0.75, (
            f"resume ({resumed:.3f}s) not faster than full run "
            f"({plain:.3f}s)"
        )
