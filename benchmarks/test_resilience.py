"""Resilience-machinery benchmarks: journal overhead and resume speedup.

The crash-safety layer (append-only fsync'd journal, retry bookkeeping)
rides along on every journaled campaign, so its cost must stay
negligible next to the tasks it protects. This benchmark times the
journal directly, inside ``Journal.record``, against the task time of
the same campaign and pins it below 5%; it also measures the replay
speedup of resuming a half-completed campaign.

Both pins are medians over interleaved campaigns. Differences of whole
campaign walls cannot resolve a 5% overhead here: back-to-back 24-task
campaigns on a 2-CPU VM ranged 0.50-0.82 s with no pattern by
configuration, and a best-of-3 wall difference failed 10 of 25 runs at
a true overhead of 1.5-3%.
"""

from __future__ import annotations

import pathlib
import statistics
import tempfile
import time

import numpy as np

from repro.lyapunov import synthesize
from repro.runner import CampaignStats, Journal, Task, TimingCollector, run_tasks
from repro.validate import validate_candidate

N_TASKS = 24
#: States per validated system: the paper's full 21-state closed loop.
N_STATES = 21
#: Maximum tolerated journal overhead per task, as a fraction of the
#: task's own runtime. Measured on a 2-CPU Linux VM: a task takes
#: 28-34 ms (best of 3, 12 seeds) and ``Journal.record`` spends
#: 10-23 ms per 24-task campaign, 1.5-3% of its task time.
OVERHEAD_BOUND = 0.05
#: Interleaved plain / journaled / resumed campaigns per pin.
RUNS = 5


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


class TimedJournal(Journal):
    """A journal that sums the wall time spent inside ``record``;
    ``delay`` seconds of sleep per record model a slower journal."""

    def __init__(self, path, resume: bool = False, delay: float = 0.0):
        super().__init__(path, resume=resume)
        self.delay = delay
        self.spent = 0.0

    def record(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            if self.delay:
                time.sleep(self.delay)
            return super().record(*args, **kwargs)
        finally:
            self.spent += time.perf_counter() - start


def _tasks():
    return [ValidationTask(i, seed=100 + i) for i in range(N_TASKS)]


def _campaign(tasks, journal=None, stats=None):
    """Run ``tasks`` in-process; return (wall, summed task time)."""
    collect = TimingCollector()
    start = time.perf_counter()
    results = run_tasks(
        tasks, jobs=1, journal=journal, collect=collect, stats=stats
    )
    wall = time.perf_counter() - start
    assert all(isinstance(r, bool) for r in results)
    return wall, sum(t.wall_s for t in collect.timings)


def _journal_overhead(path, delay: float = 0.0) -> float:
    """Journal the first half of the campaign to ``path``; return the
    time inside ``record`` over the task time it journaled."""
    with TimedJournal(path, delay=delay) as journal:
        _, task_s = _campaign(_tasks()[: N_TASKS // 2], journal=journal)
    return journal.spent / task_s


def test_journal_overhead_and_resume_speedup():
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "campaign.jsonl"
        _campaign(_tasks())  # warm-up: imports, kernel caches
        overheads, plain, resumed = [], [], []
        for _ in range(RUNS):
            plain.append(_campaign(_tasks())[0])
            overheads.append(_journal_overhead(path))
            # Resume the half-completed campaign just journaled.
            stats = CampaignStats()
            with Journal(path, resume=True) as journal:
                resumed.append(
                    _campaign(_tasks(), journal=journal, stats=stats)[0]
                )
            assert stats.replayed == N_TASKS // 2
            assert stats.executed == N_TASKS - N_TASKS // 2

        # Pin: journaling a campaign costs < 5% per task.
        overhead = statistics.median(overheads)
        assert overhead < OVERHEAD_BOUND, (
            f"journal overhead {overhead:.1%} exceeds "
            f"{OVERHEAD_BOUND:.0%} (per run: "
            f"{', '.join(f'{o:.1%}' for o in overheads)})"
        )
        # The resumed run executes half the tasks: it must land well
        # under a full campaign (75% leaves headroom for replay cost).
        full, half = statistics.median(plain), statistics.median(resumed)
        assert half < full * 0.75, (
            f"resume (median {half:.3f}s) not faster than full run "
            f"(median {full:.3f}s)"
        )


def test_overhead_pin_catches_a_slow_journal():
    """The estimator must see a journal 2 ms per record slower: that is
    about 7% of a 21-state task on top of the real cost, so the pin
    above would fail."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "campaign.jsonl"
        _campaign(_tasks()[:2])  # warm-up
        overhead = statistics.median(
            _journal_overhead(path, delay=0.002) for _ in range(3)
        )
        assert overhead >= OVERHEAD_BOUND, f"{overhead:.1%}"
