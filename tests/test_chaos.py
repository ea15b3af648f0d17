"""Tests for the chaos-injection harness (repro.runner.chaos) and the
kill-and-resume resilience invariants it exists to exercise.

The core contract under fire: a chaos campaign produces the full,
ordered result list — no task lost, none duplicated — with transient
faults retried, permanent faults recorded once, and journal corruption
healed by the next resume.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.runner import (
    CampaignStats,
    ChaosError,
    ChaosPermanentError,
    ChaosPolicy,
    ChaosTask,
    Journal,
    RetryPolicy,
    TimingCollector,
    journal_digest,
    run_tasks,
    task_fingerprint,
)
from repro.runner.chaos import inject
from repro.service import CampaignEngine
from tests.test_runner import EchoTask

N_TASKS = 40
#: Well above the ISSUE's 20% floor: every fault class armed.
SUITE_POLICY = ChaosPolicy(
    seed=1729, raise_rate=0.20, permanent_rate=0.05, kill_rate=0.05
)
RETRY = RetryPolicy(retries=8, backoff=0.001, max_backoff=0.01)


def _expected_outcome(task, policy, retries):
    """Mirror the injector's deterministic draws: what must happen?"""
    probe = ChaosTask(task, policy)
    for attempt in range(1, retries + 2):
        probe.attempt = attempt
        if probe._draw("kill") < policy.kill_rate:
            continue  # transient (in-process kill or worker death)
        if probe._draw("hang") < policy.hang_rate:
            continue  # deadline kill, transient
        if probe._draw("raise") < policy.raise_rate:
            continue  # transient
        if probe._draw("permanent") < policy.permanent_rate:
            return ("permanent", attempt)
        return ("ok", attempt)
    return ("exhausted", retries + 1)


class TestDeterminism:
    def test_draws_are_seeded_and_attempt_dependent(self):
        a = ChaosTask(EchoTask(1), ChaosPolicy(seed=1))
        b = ChaosTask(EchoTask(1), ChaosPolicy(seed=1))
        assert a._draw("raise") == b._draw("raise")
        assert a._draw("raise") != a._draw("kill")
        b.attempt = 2
        assert a._draw("raise") != b._draw("raise")  # fresh draw on retry
        c = ChaosTask(EchoTask(1), ChaosPolicy(seed=2))
        assert a._draw("raise") != c._draw("raise")
        d = ChaosTask(EchoTask(2), ChaosPolicy(seed=1))
        assert a._draw("raise") != d._draw("raise")

    def test_corrupt_draw_ignores_attempt(self):
        task = ChaosTask(EchoTask(1), ChaosPolicy(seed=1, corrupt_rate=0.5))
        first = task.corrupt_journal_record()
        task.attempt = 7
        assert task.corrupt_journal_record() == first

    def test_injected_error_types(self):
        always_raise = ChaosPolicy(seed=0, raise_rate=1.0)
        with pytest.raises(ChaosError):
            ChaosTask(EchoTask(1), always_raise).run()
        always_permanent = ChaosPolicy(seed=0, permanent_rate=1.0)
        with pytest.raises(ChaosPermanentError):
            ChaosTask(EchoTask(1), always_permanent).run()

    def test_zero_rates_are_transparent(self):
        task = ChaosTask(EchoTask(5), ChaosPolicy(seed=3))
        assert task.run() == 5
        assert not task.corrupt_journal_record()


class TestChaosSuite:
    """The acceptance campaign: >=20% injection, full ordered results."""

    @pytest.fixture(scope="class")
    def campaign(self):
        tasks = [EchoTask(i) for i in range(N_TASKS)]
        stats = CampaignStats()
        collector = TimingCollector()
        results = run_tasks(
            inject(tasks, SUITE_POLICY), jobs=1, retry=RETRY,
            stats=stats, collect=collector,
        )
        return tasks, results, stats, collector

    def test_no_task_lost_or_duplicated(self, campaign):
        tasks, results, stats, _ = campaign
        assert len(results) == N_TASKS
        expected = [
            _expected_outcome(t, SUITE_POLICY, RETRY.retries) for t in tasks
        ]
        # something actually injected, and something actually survived
        assert any(kind != "ok" or attempt > 1 for kind, attempt in expected)
        assert any(kind == "ok" for kind, _ in expected)
        for task, result, (kind, _) in zip(tasks, results, expected):
            if kind == "ok":
                assert result == task.value  # exactly this task's payload
            else:
                assert result is None  # EchoTask has no on_error fallback

    def test_retries_and_errors_counted(self, campaign):
        tasks, _, stats, collector = campaign
        expected = [
            _expected_outcome(t, SUITE_POLICY, RETRY.retries) for t in tasks
        ]
        n_permanent = sum(1 for kind, _ in expected if kind == "permanent")
        n_exhausted = sum(1 for kind, _ in expected if kind == "exhausted")
        n_retried = sum(1 for _, attempt in expected if attempt > 1)
        assert stats.total == stats.executed == N_TASKS
        assert stats.errors == n_permanent + n_exhausted
        assert stats.retried_tasks == n_retried
        assert stats.retry_attempts == sum(
            attempt - 1 for _, attempt in expected
        )
        attempts = [t.attempts for t in collector.timings]
        assert attempts == [attempt for _, attempt in expected]

    def test_campaign_is_reproducible(self, campaign):
        _, results, stats, _ = campaign
        rerun_stats = CampaignStats()
        rerun = run_tasks(
            inject([EchoTask(i) for i in range(N_TASKS)], SUITE_POLICY),
            jobs=1, retry=RETRY, stats=rerun_stats,
        )
        assert rerun == results
        assert rerun_stats == stats


class TestPooledChaos:
    def test_worker_kills_retried(self):
        policy = ChaosPolicy(seed=11, kill_rate=0.3)
        tasks = [EchoTask(i) for i in range(12)]
        expected = [_expected_outcome(t, policy, 8) for t in tasks]
        assert any(attempt > 1 for _, attempt in expected)  # kills do land
        stats = CampaignStats()
        collector = TimingCollector()
        results = run_tasks(
            inject(tasks, policy), jobs=2, retry=RETRY, stats=stats,
            collect=collector,
        )
        assert results == [
            t.value if kind == "ok" else None
            for t, (kind, _) in zip(tasks, expected)
        ]
        # Every worker kill is an infrastructure requeue onto a fresh
        # worker: no policy retry, and no task re-run in this process.
        assert stats.requeue_attempts == sum(
            attempt - 1 for _, attempt in expected
        )
        assert stats.retry_attempts == 0
        assert all(t.worker != "local" for t in collector.timings)

    def test_hangs_deadline_killed_then_retried(self):
        policy = ChaosPolicy(seed=5, hang_rate=0.3, hang_s=600.0)
        tasks = [EchoTask(i) for i in range(8)]
        expected = [_expected_outcome(t, policy, 8) for t in tasks]
        assert any(attempt > 1 for _, attempt in expected)  # hangs do land
        start = time.monotonic()
        results = run_tasks(
            inject(tasks, policy), jobs=2, task_deadline=0.5, retry=RETRY,
        )
        assert time.monotonic() - start < 60  # nowhere near any hang
        assert results == [
            t.value if kind == "ok" else None
            for t, (kind, _) in zip(tasks, expected)
        ]


class TestPooledJournal:
    """The parent journals each pooled outcome once, whatever happens
    to the workers that computed it."""

    TASKS = 12
    KILLS = ChaosPolicy(seed=11, kill_rate=0.3)

    def _campaign(self, path, jobs, policy=None):
        tasks = [EchoTask(i) for i in range(self.TASKS)]
        if policy is not None:
            tasks = inject(tasks, policy)
        with Journal(path) as journal:
            return run_tasks(tasks, jobs=jobs, journal=journal, retry=RETRY)

    def test_digest_independent_of_job_count(self, tmp_path):
        self._campaign(tmp_path / "serial.jsonl", jobs=1)
        self._campaign(tmp_path / "pooled.jsonl", jobs=2)
        assert journal_digest(tmp_path / "serial.jsonl") == journal_digest(
            tmp_path / "pooled.jsonl"
        )

    def test_worker_kills_lose_or_duplicate_no_line(self, tmp_path):
        tasks = [EchoTask(i) for i in range(self.TASKS)]
        expected = [_expected_outcome(t, self.KILLS, 8) for t in tasks]
        assert all(kind == "ok" for kind, _ in expected)
        assert any(attempt > 1 for _, attempt in expected)  # kills land
        path = tmp_path / "killed.jsonl"
        assert self._campaign(path, jobs=2, policy=self.KILLS) == list(
            range(self.TASKS)
        )
        lines = [json.loads(raw) for raw in path.read_bytes().splitlines()]
        assert sorted(line["fp"] for line in lines) == sorted(
            task_fingerprint(t) for t in tasks
        )
        by_fp = {line["fp"]: line for line in lines}
        for task, (_kind, attempts) in zip(tasks, expected):
            line = by_fp[task_fingerprint(task)]
            assert (line["status"], line["result"]) == ("ok", task.value)
            assert line["attempts"] == attempts
        # The killed attempts are counted, so the digest is not the
        # clean campaign's.
        self._campaign(tmp_path / "clean.jsonl", jobs=2)
        assert journal_digest(path) != journal_digest(tmp_path / "clean.jsonl")

        stats = CampaignStats()
        with Journal(path, resume=True) as journal:
            rerun = run_tasks(tasks, jobs=2, journal=journal, stats=stats)
        assert rerun == list(range(self.TASKS))
        assert (stats.replayed, stats.executed) == (self.TASKS, 0)


class TestJournalChaos:
    def test_corrupt_records_rerun_on_resume(self, tmp_path):
        path = tmp_path / "j.jsonl"
        policy = ChaosPolicy(seed=21, corrupt_rate=0.4)
        tasks = [EchoTask(i) for i in range(20)]
        corrupted = [
            ChaosTask(t, policy).corrupt_journal_record() for t in tasks
        ]
        assert 0 < sum(corrupted) < len(tasks)
        with Journal(path) as journal:
            first = run_tasks(inject(tasks, policy), journal=journal)
        assert first == [t.value for t in tasks]
        stats = CampaignStats()
        with Journal(path, resume=True) as journal:
            assert len(journal) == len(tasks) - sum(corrupted)
            results = run_tasks(
                [EchoTask(i) for i in range(20)], journal=journal,
                stats=stats,
            )
        assert results == [t.value for t in tasks]
        assert stats.replayed == len(tasks) - sum(corrupted)
        assert stats.executed == sum(corrupted)


class TestKillAndResume:
    """SIGKILL a live campaign mid-run; resume must fill only the gaps
    and render byte-identically to an uninterrupted run."""

    GRID = dict(sizes=(3,), integer_sizes=(3,))
    CHILD = """
import sys
sys.path.insert(0, "src")
from repro.experiments import MethodKey
from repro.experiments.table1 import run_table1
from repro.runner import Journal
from repro.service import CampaignEngine

with Journal(sys.argv[1]) as journal:
    run_table1(
        sizes=(3,), integer_sizes=(3,),
        methods=[MethodKey("eq-num"), MethodKey("lmi", "shift")],
        engine=CampaignEngine(jobs=1, journal=journal),
    )
"""

    def _grid_kwargs(self):
        from repro.experiments import MethodKey

        return dict(
            sizes=(3,), integer_sizes=(3,),
            methods=[MethodKey("eq-num"), MethodKey("lmi", "shift")],
        )

    @staticmethod
    def _rendered(records):
        import dataclasses

        from repro.experiments import render_table1

        normalized = [
            dataclasses.replace(
                r,
                synth_time=None if r.synth_time is None else 0.0,
                validation_time=None if r.validation_time is None else 0.0,
            )
            for r in records
        ]
        return render_table1(normalized)

    def test_sigkill_resume_matches_clean_run(self, tmp_path):
        from repro.experiments.table1 import run_table1

        path = tmp_path / "campaign.jsonl"
        child = subprocess.Popen(
            [sys.executable, "-c", self.CHILD, str(path)],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            # Wait for a few fsync'd entries, then kill without warning.
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if path.exists() and path.read_bytes().count(b"\n") >= 2:
                    break
                if child.poll() is not None:
                    break
                time.sleep(0.01)
            child.kill()
        finally:
            child.wait()

        interrupted = (
            path.read_bytes().count(b"\n") if path.exists() else 0
        )
        stats = CampaignStats()
        with Journal(path, resume=True) as journal:
            resumed, _ = run_table1(
                engine=CampaignEngine(jobs=1, journal=journal, stats=stats),
                **self._grid_kwargs(),
            )
        clean, _ = run_table1(
            engine=CampaignEngine(jobs=1), **self._grid_kwargs()
        )
        assert len(resumed) == len(clean) == 8
        assert self._rendered(resumed) == self._rendered(clean)
        assert stats.replayed == min(interrupted, stats.total)
        assert stats.executed == stats.total - stats.replayed

    def test_full_replay_renders_byte_identical(self, tmp_path):
        """Unnormalized: a fully-replayed campaign reproduces the exact
        wall-clock numbers of the run that journaled them."""
        from repro.experiments.table1 import run_table1

        path = tmp_path / "campaign.jsonl"
        from repro.experiments import render_table1

        with Journal(path) as journal:
            original, _ = run_table1(
                engine=CampaignEngine(jobs=1, journal=journal),
                **self._grid_kwargs(),
            )
        stats = CampaignStats()
        with Journal(path, resume=True) as journal:
            replayed, _ = run_table1(
                engine=CampaignEngine(jobs=1, journal=journal, stats=stats),
                **self._grid_kwargs(),
            )
        assert stats.replayed == stats.total
        assert stats.executed == 0
        assert render_table1(replayed) == render_table1(original)
