"""Tests for the certification service (repro.service).

Covers the two performance layers — the content-addressed
certificate store and single-flight dedup + same-shape batching — plus
the campaign engine the experiment drivers route through, and
fingerprint memoization. The
dedup/batching tests are *differential*: every accelerated path must
reproduce the direct path's :meth:`repro.service.Certificate.identity`
bit for bit.
"""

import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lyapunov import LyapunovCandidate
from repro.oracle import QUICK_PROFILE
from repro.runner import (
    FuzzTask,
    Journal,
    RevalidateTask,
    Table1Task,
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
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

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


class TestResolveJobsEnv:
    def test_explicit_argument_wins(self, monkeypatch):
        # The environment is not consulted: a stale REPRO_JOBS changes nothing.
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(2) == 2
        assert resolve_jobs(0) == 1


# ----------------------------------------------------------------------
# Fingerprint memoization
# ----------------------------------------------------------------------

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


# ----------------------------------------------------------------------
# Content address: the float64 bytes of the matrix
# ----------------------------------------------------------------------

class TestContentAddress:
    #: Hurwitz (Gershgorin discs in the left half-plane), with a zero
    #: entry for the signed-zero check.
    MATRIX = np.array([
        [-1.0, 0.25, 0.0],
        [0.1, -2.0, 1.0],
        [0.0, -0.5, -3.0],
    ])

    @staticmethod
    def fingerprint(a) -> str:
        return task_fingerprint(CertifyTask(a, method="lmi", backend="shift"))

    def test_same_values_same_address(self):
        a = self.MATRIX
        wide = np.zeros((3, 6))
        wide[:, ::2] = a
        forms = {
            "nested lists": a.tolist(),
            "C order": np.ascontiguousarray(a),
            "F order": np.asfortranarray(a),
            "strided view": wide[:, ::2],
            "big-endian": a.astype(">f8"),
        }
        assert not forms["strided view"].flags.c_contiguous
        expected = self.fingerprint(a)
        for name, form in forms.items():
            assert self.fingerprint(form) == expected, name

    def test_int_array_matches_its_float_values(self):
        ints = np.array([[-3, 1], [0, -2]])
        assert self.fingerprint(ints) == self.fingerprint(
            [[-3.0, 1.0], [0.0, -2.0]]
        )

    def test_one_ulp_in_any_entry_moves_the_address(self):
        addresses = {self.fingerprint(self.MATRIX)}
        for index in np.ndindex(self.MATRIX.shape):
            for toward in (-np.inf, np.inf):
                a = self.MATRIX.copy()
                a[index] = np.nextafter(a[index], toward)
                addresses.add(self.fingerprint(a))
        assert len(addresses) == 1 + 2 * self.MATRIX.size

    def test_signed_zero_is_kept_apart(self):
        a = self.MATRIX.copy()
        a[0, 2] = -0.0
        assert a[0, 2] == 0.0
        assert self.fingerprint(a) != self.fingerprint(self.MATRIX)

    def test_stable_across_processes(self):
        local = self.fingerprint(self.MATRIX)
        code = (
            "import numpy as np\n"
            "from repro.runner import task_fingerprint\n"
            "from repro.service import CertifyTask\n"
            f"a = np.array({self.MATRIX.tolist()!r})\n"
            "print(task_fingerprint("
            "CertifyTask(a, method='lmi', backend='shift')))"
        )
        for seed in ("0", "random"):
            out = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, check=True, cwd=REPO_ROOT,
                env={"PYTHONHASHSEED": seed, "PYTHONPATH": "src"},
            )
            assert out.stdout.strip() == local

    def test_repeat_request_from_a_copy_hits_the_cache(self):
        recipe = {"method": "lmi", "backend": "shift"}
        with CertificationService(sigfigs=6) as svc:
            cold = svc.certify(self.MATRIX.copy(), **recipe)
            warm = svc.certify(self.MATRIX.copy(), **recipe)
        assert cold.synth_status == "ok" and cold.valid is True
        assert warm.identity() == cold.identity()
        assert svc.computations == 1
        assert svc.store.memory_hits == 1

    def test_caller_mutation_does_not_move_the_task(self):
        a = self.MATRIX.copy()
        with CertificationService() as svc:
            task = svc.request(a, method="lmi", backend="shift")
        a[0, 0] = 7.0  # before the first fingerprint, so no memo hides it
        assert task_fingerprint(task) == self.fingerprint(self.MATRIX)
        assert not np.shares_memory(task.a, a)
        assert not task.a.flags.writeable

    def test_pinned_addresses(self):
        """The encoding the other tasks share is pinned: a change to it
        would silently move every journal fingerprint and the
        fuzz-small golden digest, so it must fail here first. The
        FuzzTask, Table1Task and RevalidateTask values are the ones the
        JSON-list encoding of ``CertifyTask`` had too."""
        fuzz = FuzzTask(
            kind="stable", n=3, seed=1, profile=QUICK_PROFILE.spec()
        )
        table1 = Table1Task(
            case_name="size3", size=3, mode=0, method="lmi",
            backend="ipm", eq_smt_deadline=None, validator="sylvester",
            sigfigs=10,
        )
        revalidate = RevalidateTask(
            case_name="size3", size=3, mode=0, method="lmi",
            backend="shift",
            candidate=LyapunovCandidate(
                p=np.array([[2.0, 0.5], [0.5, 1.0]]), method="lmi",
                backend="shift",
            ),
            sigfigs=6, validator="sylvester",
        )
        assert task_fingerprint(fuzz) == (
            "774856e390c985516a7218c5b064abd7b555e4d2736f3af09c073ebbd2a4b448"
        )
        assert task_fingerprint(table1) == (
            "3e79c608ed0ef9487e155f3bb4142251a1b6327d856b88bba3713bca021c7cd3"
        )
        assert task_fingerprint(revalidate) == (
            "3c91716960837f3e73f9b425c269c41da7bdba0e9cfb9f1c7346831f00244021"
        )
        assert self.fingerprint(self.MATRIX) == (
            "4f090daa7755ec0013f2708666087d1cadcdf73fc6e0f050c82aac66ae9cb177"
        )
