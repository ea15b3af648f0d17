"""Tests for the parallel experiment runner (repro.runner)."""

import ctypes
import dataclasses
import os
import time

import numpy as np
import pytest

from repro.experiments import (
    MethodKey,
    render_sweep,
    render_table1,
    rounding_sweep,
    run_table1,
)
from repro.runner import (
    CampaignStats,
    RetryPolicy,
    Task,
    TimingCollector,
    TransientTaskError,
    resolve_jobs,
    run_tasks,
)
from repro.runner.core import _Pool, _Run
from repro.service import CampaignEngine

QUICK_METHODS = [MethodKey("eq-num"), MethodKey("lmi", "shift")]


# ----------------------------------------------------------------------
# Picklable test tasks (must live at module level for the pool)
# ----------------------------------------------------------------------

class EchoTask(Task):
    def __init__(self, value):
        self.value = value

    def run(self):
        return self.value


class SleepTask(Task):
    def __init__(self, delay, tag):
        self.delay = delay
        self.tag = tag

    def run(self):
        time.sleep(self.delay)
        return self.tag


class HangTask(Task):
    """Never finishes on its own; only a deadline kill stops it."""

    def run(self):
        time.sleep(600)
        return "finished"

    def on_timeout(self, elapsed):
        return ("timed-out", elapsed > 0)


class CrashTask(Task):
    def run(self):
        raise RuntimeError("boom")

    def on_error(self, message):
        return ("crashed", message)


class DieTask(Task):
    """Kills its worker process outright; survives when run in-process."""

    def __init__(self):
        self.parent_pid = os.getpid()

    def run(self):
        if os.getpid() != self.parent_pid:
            os._exit(3)  # simulate a segfaulting worker
        return "ran-in-parent"


class FlakyTask(Task):
    """Raises transiently until the configured attempt is reached."""

    def __init__(self, succeed_on):
        self.succeed_on = succeed_on
        self.attempt = 1

    def on_attempt(self, attempt):
        self.attempt = attempt

    def run(self):
        if self.attempt < self.succeed_on:
            raise TransientTaskError(f"flaky attempt {self.attempt}")
        return ("ok", self.attempt)


class FlakyDieTask(Task):
    """Kills its worker process until the configured attempt."""

    def __init__(self, succeed_on):
        self.succeed_on = succeed_on
        self.attempt = 1
        self.parent_pid = os.getpid()

    def on_attempt(self, attempt):
        self.attempt = attempt

    def run(self):
        if os.getpid() != self.parent_pid and self.attempt < self.succeed_on:
            os._exit(9)
        return ("ok", self.attempt)


class PermanentCrashTask(Task):
    """A domain error: must never be retried."""

    def __init__(self):
        self.runs = 0

    def on_attempt(self, attempt):
        self.attempt = attempt

    def run(self):
        raise ValueError("bad domain input")

    def on_error(self, message):
        return ("failed", message)


#: The thread-count getters an OpenBLAS build may export (the setters'
#: counterparts in repro.runner.core).
_OPENBLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_thread_counts():
    """``{path: threads}`` for every OpenBLAS mapped into this process."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps}
    except OSError:
        return {}
    counts = {}
    for path in sorted(paths):
        if "openblas" not in os.path.basename(path):
            continue
        library = ctypes.CDLL(path)
        for name in _OPENBLAS_GETTERS:
            getter = getattr(library, name, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                counts[path] = getter()
                break
    return counts


class BlasThreadsTask(Task):
    def run(self):
        return blas_thread_counts()


class RecordingJournal:
    """Journal stand-in: for each line written, the task every pool
    worker held at that moment."""

    def __init__(self, workers):
        self.workers = workers
        self.lines = []

    def fingerprint(self, task):
        return str(task.value)

    def record(self, fingerprint, kind, status, result, attempts, error):
        held = [worker.index for worker in self.workers]
        self.lines.append((fingerprint, status, attempts, held))


class SendRecorder:
    """Wraps a worker's pipe end and records what is sent through it."""

    def __init__(self, conn):
        self.conn = conn
        self.sent = []

    def send(self, message):
        self.sent.append(message)
        self.conn.send(message)

    def __getattr__(self, name):
        return getattr(self.conn, name)


def _normalize(record):
    """Zero the stochastic wall-clock fields, keeping their None-ness."""
    return dataclasses.replace(
        record,
        synth_time=None if record.synth_time is None else 0.0,
        validation_time=None if record.validation_time is None else 0.0,
    )


class TestCore:
    def test_empty(self):
        assert run_tasks([], jobs=4) == []

    def test_serial_results_in_order(self):
        assert run_tasks([EchoTask(i) for i in range(5)], jobs=1) == list(
            range(5)
        )

    def test_parallel_results_in_submission_order(self):
        # Later-submitted tasks finish first; ordering must not care.
        tasks = [SleepTask(0.3, "slow"), SleepTask(0.0, "fast1"),
                 SleepTask(0.0, "fast2")]
        assert run_tasks(tasks, jobs=2) == ["slow", "fast1", "fast2"]

    def test_resolve_jobs(self):
        # The default honours the CPU *affinity* mask (what a container
        # or taskset actually grants), not the machine's core count.
        expected = (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else (os.cpu_count() or 1)
        )
        assert resolve_jobs(None) == expected
        assert resolve_jobs(0) == 1
        assert resolve_jobs(3) == 3

    def test_task_error_serial_and_parallel(self):
        for jobs in (1, 2):
            (status, message), ok = run_tasks(
                [CrashTask(), EchoTask("ok")], jobs=jobs
            )
            assert status == "crashed"
            assert "RuntimeError" in message and "boom" in message
            assert ok == "ok"

    def test_deadline_kills_hung_task(self):
        start = time.monotonic()
        results = run_tasks(
            [HangTask(), EchoTask(1)], jobs=2, task_deadline=1.0
        )
        elapsed = time.monotonic() - start
        assert results == [("timed-out", True), 1]
        assert elapsed < 30  # nowhere near the task's 600 s sleep

    def test_deadline_does_not_serialize_sweep(self):
        # One hung task must not delay the other tasks' completion.
        tasks = [HangTask()] + [SleepTask(0.05, i) for i in range(4)]
        results = run_tasks(tasks, jobs=2, task_deadline=1.5)
        assert results == [("timed-out", True), 0, 1, 2, 3]

    def test_worker_death_falls_back_in_process(self):
        results = run_tasks([DieTask(), EchoTask(7)], jobs=2)
        assert results == ["ran-in-parent", 7]

    def test_unpicklable_task_runs_locally(self):
        task = EchoTask(9)
        task.value = lambda: 9  # unpicklable payload
        task.run = lambda: "local"
        results = run_tasks([task, EchoTask(2)], jobs=2)
        assert results == ["local", 2]

    def test_base_task_hooks(self):
        task = Task()
        with pytest.raises(NotImplementedError):
            task.run()
        assert task.on_timeout(1.0) is None
        assert task.on_error("x") is None


class TestPoolDispatch:
    """One worker, driven step by step through the pool's own methods."""

    @pytest.fixture
    def pool(self):
        pools = []

        def make(tasks, journal=None, deadline=None):
            collector = TimingCollector()
            run = _Run(tasks, collector, None, RetryPolicy(), CampaignStats())
            pool = _Pool(run, deadline, 1)
            pool._spawn()
            if journal is not None:
                run.journal = journal(pool.workers)
            pool.pending.extend(range(len(tasks)))
            pools.append(pool)
            return pool, collector

        yield make
        for pool in pools:
            for worker in pool.workers:
                worker.stop()

    def test_next_task_dispatched_before_journal_write(self, pool):
        pool, _ = pool([EchoTask(0), EchoTask(1)], journal=RecordingJournal)
        worker, = pool.workers
        pool._fill(worker)
        assert worker.conn.poll(30)
        pool._collect()
        # Task 0's line was written while the worker already held task 1.
        assert pool.run.journal.lines == [("0", "ok", 1, [1])]
        assert worker.conn.poll(30)
        pool._collect()
        assert pool.run.journal.lines[1] == ("1", "ok", 1, [None])
        assert pool.run.results == [0, 1]

    def test_bury_finishes_waiting_reply_and_dispatches_nothing(self, pool):
        pool, collector = pool([EchoTask(0), EchoTask(1)], deadline=1.0)
        worker, = pool.workers
        pool._fill(worker)
        assert worker.conn.poll(30)
        worker.conn = recorder = SendRecorder(worker.conn)
        pool._bury(worker, "deadline", time.monotonic())
        assert recorder.sent == []
        assert not worker.process.is_alive()
        assert [t.status for t in collector.timings] == ["ok"]
        assert pool.run.stats.executed == 1
        assert pool.run.results == [0, None]
        # The pending task was not charged an attempt.
        assert list(pool.pending) == [1]
        assert pool.run.attempts == [1, 0]

    def test_pool_workers_run_one_blas_thread(self):
        parent = blas_thread_counts()
        if not parent:
            pytest.skip("no OpenBLAS library loaded")
        results = run_tasks([BlasThreadsTask() for _ in range(4)], jobs=2)
        assert results == [{path: 1 for path in parent}] * 4
        assert blas_thread_counts() == parent


class TestRetry:
    def test_policy_backoff_deterministic(self):
        policy = RetryPolicy(retries=3, backoff=0.1, max_backoff=0.3)
        delays = [policy.delay(a, "token") for a in (1, 2, 3, 4)]
        assert delays == [policy.delay(a, "token") for a in (1, 2, 3, 4)]
        # exponential base growth capped at max_backoff; jitter < 100%
        assert delays[0] < delays[1]  # 0.1*(1+j) < 0.2*(1+j') always
        assert all(d <= 0.3 * 2.0 for d in delays)
        assert delays != [policy.delay(a, "other") for a in (1, 2, 3, 4)]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_transient_failure_retried(self, jobs):
        stats = CampaignStats()
        results = run_tasks(
            [FlakyTask(3), EchoTask("x")], jobs=jobs,
            retry=RetryPolicy(retries=3, backoff=0.001), stats=stats,
        )
        assert results == [("ok", 3), "x"]
        assert stats.retried_tasks == 1
        assert stats.retry_attempts == 2
        assert stats.errors == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_retries_exhausted_records_error(self, jobs):
        collector = TimingCollector()
        stats = CampaignStats()
        result, = run_tasks(
            [FlakyTask(99)], jobs=jobs, retry=1, collect=collector,
            stats=stats,
        )
        assert result is None  # FlakyTask defines no on_error fallback
        timing = collector.timings[0]
        assert timing.status == "error"
        assert timing.attempts == 2
        assert timing.error is not None
        assert timing.error["transient"] is True
        assert "flaky attempt" in timing.error["exc"]
        assert stats.errors == 1

    def test_worker_death_retried_in_pool(self):
        stats = CampaignStats()
        results = run_tasks(
            [FlakyDieTask(2), EchoTask(5)], jobs=2,
            retry=RetryPolicy(retries=2, backoff=0.001), stats=stats,
        )
        assert results == [("ok", 2), 5]
        # A worker death is an infrastructure requeue, not a policy retry.
        assert stats.requeued_tasks == 1
        assert stats.retried_tasks == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_permanent_failure_not_retried(self, jobs):
        collector = TimingCollector()
        (status, message), = run_tasks(
            [PermanentCrashTask()], jobs=jobs, retry=5, collect=collector,
        )
        assert status == "failed"
        assert "ValueError" in message
        timing = collector.timings[0]
        assert timing.attempts == 1
        assert timing.error["transient"] is False

    def test_attempts_flow_into_timing(self):
        collector = TimingCollector()
        run_tasks(
            [FlakyTask(2), EchoTask(1)], jobs=1, retry=2, collect=collector,
        )
        assert [t.attempts for t in collector.timings] == [2, 1]


class TestTimingArtifact:
    def test_collector_records_per_task(self):
        collector = TimingCollector()
        run_tasks([EchoTask(1), CrashTask()], jobs=1, collect=collector)
        assert [t.status for t in collector.timings] == ["ok", "error"]
        assert all(t.wall_s >= 0 for t in collector.timings)

    def test_parallel_collects_worker_pids(self):
        collector = TimingCollector()
        run_tasks([EchoTask(i) for i in range(4)], jobs=2, collect=collector)
        assert len(collector.timings) == 4
        assert all(t.worker != "local" for t in collector.timings)


class TestCampaignCounters:
    def test_requeued_hidden_when_zero(self):
        stats = CampaignStats(total=3, executed=3)
        assert "requeued" not in stats.summary()

    def test_requeued_rendered(self):
        stats = CampaignStats(
            total=3, executed=3, requeued_tasks=2, requeue_attempts=3,
        )
        assert "2 requeued (+3 attempts)" in stats.summary()

    def test_counters_snapshot(self):
        stats = CampaignStats(requeued_tasks=1)
        counters = stats.counters()
        assert counters["requeued_tasks"] == 1
        assert set(counters) == {
            "total", "executed", "replayed", "retried_tasks",
            "retry_attempts", "requeued_tasks", "requeue_attempts",
            "degraded", "errors", "timeouts", "journal_errors",
        }


class TestParallelEquivalence:
    @pytest.fixture(scope="class")
    def serial_and_parallel(self):
        kwargs = dict(
            sizes=(3,), integer_sizes=(3,), methods=QUICK_METHODS,
            keep_candidates=True,
        )
        return (
            run_table1(engine=CampaignEngine(jobs=1), **kwargs),
            run_table1(engine=CampaignEngine(jobs=2), **kwargs),
        )

    def test_records_identical_modulo_wall_times(self, serial_and_parallel):
        (serial, _), (parallel, _) = serial_and_parallel
        assert len(serial) == len(parallel) == 8
        assert [_normalize(r) for r in serial] == [
            _normalize(r) for r in parallel
        ]

    def test_rendered_tables_byte_identical(self, serial_and_parallel):
        (serial, serial_cands), (parallel, parallel_cands) = (
            serial_and_parallel
        )
        assert render_table1(
            [_normalize(r) for r in serial]
        ) == render_table1([_normalize(r) for r in parallel])
        assert list(serial_cands) == list(parallel_cands)
        sweep_serial = rounding_sweep(
            serial_cands, sigfig_levels=(10, 4), base_records=serial
        )
        sweep_parallel = rounding_sweep(
            parallel_cands, sigfig_levels=(10, 4), base_records=parallel,
            engine=CampaignEngine(jobs=2),
        )
        assert render_sweep(
            [_normalize(r) for r in sweep_serial]
        ) == render_sweep([_normalize(r) for r in sweep_parallel])


class TestIpmLadderJobs:
    """Pooled workers run one BLAS thread, the parent its default; the
    interior-point rows on the ladder must not depend on it."""

    def test_verdicts_equal_and_candidates_agree(self):
        methods = [MethodKey("lmi", "ipm"), MethodKey("lmi-alpha", "ipm")]
        runs = {}
        for jobs in (1, 2):
            engine = CampaignEngine(jobs=jobs)
            records, candidates = run_table1(
                sizes=(10, 15, 18), integer_sizes=(), methods=methods,
                keep_candidates=True, engine=engine,
            )
            sweep = rounding_sweep(
                candidates, sigfig_levels=(10, 6, 4), base_records=records,
                engine=engine,
            )
            verdicts = [
                (r.case, r.mode, r.method, r.sigfigs, r.synth_status, r.valid)
                for r in sweep
            ]
            runs[jobs] = (candidates, verdicts)
        (serial, serial_verdicts), (pooled, pooled_verdicts) = runs[1], runs[2]
        assert len(serial_verdicts) == 36
        assert serial_verdicts == pooled_verdicts
        assert list(serial) == list(pooled)
        for key, candidate in serial.items():
            error = np.abs(candidate.p - pooled[key].p).max()
            assert error <= 1e-6 * np.abs(candidate.p).max(), key


class TestRoundingSweepReuse:
    def test_base_records_reused_not_revalidated(self):
        records, candidates = run_table1(
            sizes=(3,), integer_sizes=(), methods=QUICK_METHODS,
            keep_candidates=True,
        )
        collector = TimingCollector()
        sweep = rounding_sweep(
            candidates, sigfig_levels=(10, 6, 4), base_records=records,
            engine=CampaignEngine(timing=collector),
        )
        assert len(sweep) == 3 * len(candidates)
        # Only levels 6 and 4 actually ran; level 10 is the same objects.
        assert len(collector.timings) == 2 * len(candidates)
        base = {
            (r.case, r.mode, r.method, r.backend): r for r in records
        }
        reused = [r for r in sweep if r.sigfigs == 10]
        assert all(
            r is base[(r.case, r.mode, r.method, r.backend)] for r in reused
        )

    def test_without_base_records_all_levels_run(self):
        _, candidates = run_table1(
            sizes=(3,), integer_sizes=(), methods=QUICK_METHODS,
            keep_candidates=True,
        )
        collector = TimingCollector()
        sweep = rounding_sweep(
            candidates, sigfig_levels=(10, 4),
            engine=CampaignEngine(timing=collector),
        )
        assert len(sweep) == 2 * len(candidates)
        assert len(collector.timings) == 2 * len(candidates)
