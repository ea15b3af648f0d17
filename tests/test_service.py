"""Tests for the certification service (repro.service).

Covers the two performance layers — the content-addressed
certificate store and single-flight dedup + same-shape batching — plus
the campaign engine the experiment drivers route through, the
``REPRO_JOBS`` override, and fingerprint memoization. The
dedup/batching tests are *differential*: every accelerated path must
reproduce the direct path's :meth:`repro.service.Certificate.identity`
bit for bit.
"""

import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner import (
    Journal,
    Task,
    resolve_jobs,
    run_tasks,
    task_fingerprint,
)
from repro.service import (
    CampaignEngine,
    Certificate,
    CertificationService,
    CertifyTask,
    CertificateStore,
    certify,
)

#: A small Hurwitz matrix certifiable in well under a millisecond via
#: the shift backend; the standard fast request for these tests.
STABLE = [[-1.0, 0.25], [0.0, -2.0]]
UNSTABLE = [[1.0, 0.0], [0.0, -1.0]]


def fast_request(service, a=STABLE, **kwargs):
    kwargs.setdefault("method", "lmi")
    kwargs.setdefault("backend", "shift")
    return service.request(a, **kwargs)


# ----------------------------------------------------------------------
# Certificate store
# ----------------------------------------------------------------------

class TestCertificateStore:
    def test_memory_hit_miss_counters(self):
        store = CertificateStore()
        assert store.get("a") is None
        store.put("a", "cert-a")
        assert store.get("a") == "cert-a"
        assert store.counters()["memory_hits"] == 1
        assert store.counters()["misses"] == 1
        assert store.hit_rate == 0.5
        assert "a" in store and "b" not in store

    def test_lru_eviction_order(self):
        store = CertificateStore(capacity=2)
        store.put("a", 1)
        store.put("b", 2)
        assert store.get("a") == 1  # refresh "a": "b" is now LRU
        store.put("c", 3)
        assert store.evictions == 1
        assert store.get("b") is None  # evicted
        assert store.get("a") == 1 and store.get("c") == 3

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            CertificateStore(capacity=0)

    def test_disk_tier_round_trip(self, tmp_path):
        path = tmp_path / "certs.jsonl"
        cert = Certificate(
            fingerprint="f", method="lmi", backend="shift",
            validator="sylvester", sigfigs=6, n=2, synth_status="ok",
            p=np.eye(2), valid=True,
        )
        with CertificateStore(path) as store:
            store.put("f", cert)
        with CertificateStore(path) as fresh:
            got = fresh.get("f")
            assert fresh.disk_hits == 1
            assert got.identity() == cert.identity()
            # Promoted to memory: second read never touches disk.
            assert fresh.get("f").identity() == cert.identity()
            assert fresh.memory_hits == 1


# ----------------------------------------------------------------------
# Cache + single-flight dedup
# ----------------------------------------------------------------------

class TestCacheAndDedup:
    def test_repeat_request_hits_cache(self):
        with CertificationService(sigfigs=6) as svc:
            cold = svc.certify(STABLE, method="lmi", backend="shift")
            warm = svc.certify(STABLE, method="lmi", backend="shift")
        assert cold.identity() == warm.identity()
        assert svc.computations == 1
        assert svc.store.memory_hits == 1
        assert cold.synth_status == "ok" and cold.valid is True

    def test_deterministic_failure_is_cached(self):
        with CertificationService(sigfigs=6) as svc:
            first = svc.certify(UNSTABLE, method="lmi", backend="shift")
            second = svc.certify(UNSTABLE, method="lmi", backend="shift")
        assert first.synth_status == "infeasible"
        assert first.identity() == second.identity()
        assert svc.computations == 1

    def test_distinct_recipes_do_not_collide(self):
        with CertificationService(sigfigs=6) as svc:
            a = svc.certify(STABLE, method="lmi", backend="shift")
            b = svc.certify(STABLE, method="lmi", backend="proj")
        assert svc.computations == 2
        assert a.fingerprint != b.fingerprint

    def test_one_shot_convenience(self):
        cert = certify(STABLE, method="lmi", backend="shift")
        assert cert.synth_status == "ok" and cert.valid is True

    @settings(max_examples=5)
    @given(
        n_threads=st.integers(min_value=2, max_value=8),
        diag=st.tuples(
            st.floats(min_value=-4.0, max_value=-0.5),
            st.floats(min_value=-4.0, max_value=-0.5),
        ),
    )
    def test_concurrent_identical_requests_coalesce(self, n_threads, diag):
        """N concurrent identical certify calls: exactly one journal
        entry (one store write) and byte-identical certificates."""
        matrix = [[diag[0], 0.125], [0.0, diag[1]]]
        results: list = [None] * n_threads
        with CertificationService(sigfigs=6) as svc:
            barrier = threading.Barrier(n_threads)

            def hit(i):
                barrier.wait()
                results[i] = svc.certify(
                    matrix, method="lmi", backend="shift"
                )

            threads = [
                threading.Thread(target=hit, args=(i,))
                for i in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert svc.store.writes == 1
        assert svc.requests == n_threads
        identities = {r.identity() for r in results}
        assert len(identities) == 1
        direct = CertifyTask(
            matrix, method="lmi", backend="shift", sigfigs=6
        ).run()
        assert identities == {direct.identity()}

    def test_concurrent_requests_one_journal_entry(self, tmp_path):
        path = tmp_path / "certs.jsonl"
        n_threads = 6
        with CertificationService(
            store=CertificateStore(path), sigfigs=6
        ) as svc:
            barrier = threading.Barrier(n_threads)
            results = [None] * n_threads

            def hit(i):
                barrier.wait()
                results[i] = svc.certify(
                    STABLE, method="lmi", backend="shift"
                )

            threads = [
                threading.Thread(target=hit, args=(i,))
                for i in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        with Journal(path, resume=True) as journal:
            assert len(journal) == 1
            entry = journal.get(results[0].fingerprint)
            assert entry is not None and entry.status == "ok"
            assert entry.result.identity() == results[0].identity()


# ----------------------------------------------------------------------
# Same-shape batching
# ----------------------------------------------------------------------

class TestBatching:
    def _grid(self, service):
        requests = []
        for shift in (1.0, 1.5, 2.0):
            a = [[-shift, 0.25], [0.0, -2 * shift]]
            requests.append(fast_request(service, a))
        requests.append(fast_request(service, UNSTABLE))
        return requests

    def test_batched_screen_bit_identical_to_direct(self):
        with CertificationService(sigfigs=6) as svc:
            requests = self._grid(svc)
            direct = [
                CertifyTask(
                    r.a, method=r.method, backend=r.backend,
                    validator=r.validator, sigfigs=r.sigfigs,
                ).run()
                for r in requests
            ]
            batched = svc.certify_many(requests)
        assert [c.identity() for c in batched] == [
            c.identity() for c in direct
        ]
        assert svc.computations == len(requests)

    def test_batch_dedups_within_and_against_cache(self):
        with CertificationService(sigfigs=6) as svc:
            cached = svc.certify(STABLE, method="lmi", backend="shift")
            batch = svc.certify_many(
                [
                    fast_request(svc),  # cache hit
                    fast_request(svc, [[-3.0, 0.0], [1.0, -1.0]]),
                    fast_request(svc, [[-3.0, 0.0], [1.0, -1.0]]),  # dup
                ]
            )
        assert batch[0].identity() == cached.identity()
        assert batch[1].identity() == batch[2].identity()
        assert svc.computations == 2  # cold + one fresh; dup coalesced
        assert svc.dedup_hits == 1

    def test_batch_results_in_request_order(self):
        with CertificationService(sigfigs=6) as svc:
            requests = self._grid(svc)
            fingerprints = [task_fingerprint(r) for r in requests]
            batch = svc.certify_many(requests)
        assert [c.fingerprint for c in batch] == fingerprints


# ----------------------------------------------------------------------
# Campaign engine
# ----------------------------------------------------------------------

class EchoTask(Task):
    def __init__(self, value):
        self.value = value

    def run(self):
        return self.value


class TestCampaignEngine:
    def test_engine_matches_run_tasks(self):
        tasks = [EchoTask(i) for i in range(5)]
        engine = CampaignEngine(jobs=1)
        assert engine.run(tasks) == run_tasks(tasks, jobs=1)
        assert engine.stats.executed == 5

    def test_drivers_accept_engine(self):
        from repro.experiments import MethodKey, run_table1

        engine = CampaignEngine(jobs=1)
        records, _ = run_table1(
            sizes=(3,), integer_sizes=(),
            methods=[MethodKey("lmi", "shift")],
            engine=engine,
        )
        assert len(records) == 2  # one case, two modes
        assert engine.stats.executed == 2


# ----------------------------------------------------------------------
# REPRO_JOBS + fingerprint memoization satellites
# ----------------------------------------------------------------------

class TestResolveJobsEnv:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(2) == 2
        assert resolve_jobs(0) == 1

    def test_malformed_env_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        expected = (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else (os.cpu_count() or 1)
        )
        assert resolve_jobs(None) == expected

    def test_env_zero_clamps_to_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert resolve_jobs(None) == 1


class TestFingerprintMemo:
    def test_fingerprint_cached_on_task(self):
        task = CertifyTask(STABLE, method="lmi", backend="shift")
        first = task_fingerprint(task)
        assert task._fingerprint == first
        assert task_fingerprint(task) is first

    def test_memo_does_not_change_fingerprint(self):
        plain = CertifyTask(STABLE, method="lmi", backend="shift")
        warmed = CertifyTask(STABLE, method="lmi", backend="shift")
        expected = task_fingerprint(warmed)  # memo now set on `warmed`
        assert task_fingerprint(plain) == expected
        assert task_fingerprint(warmed) == expected
