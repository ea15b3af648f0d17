"""Certification-as-a-service: the ``certify`` request API.

One request = one (closed-loop) system matrix plus a synthesis recipe
(method, backend, decay/floor parameters, validator, rounding level).
The response is a :class:`Certificate`: the synthesized ``P``, the
exact-validation verdict, and the LMI constraint margins from the
compiled batched screen.

Two performance layers sit between a request and the math:

1. **Content-addressed cache** — requests are fingerprinted with the
   journal's salted task fingerprints, whose matrix part is a SHA-256
   over the float64 bytes of ``A`` (:class:`CertifyTask`); a repeat
   request returns the stored certificate without re-running synthesis
   (:class:`repro.service.store.CertificateStore`).
2. **Single-flight dedup + same-shape batching** — concurrent requests
   with identical fingerprints coalesce onto one in-flight computation
   (exactly one journal entry), and :meth:`CertificationService.certify_many`
   resolves all pending candidate screens through *one*
   :class:`repro.sdp.CompiledLmiSystem` batched eigh/Cholesky pass.
   Both the batched and the per-request screens route through
   :func:`repro.sdp.screen_candidates`, whose gufunc ``eigh`` applies
   LAPACK per stacked matrix — batched results are bit-identical to
   the direct path.

Requests compute in the calling thread. The measured warm-over-cold
speedup (``benchmarks/test_service.py``) comes from the store: a
repeat request costs one copy of ``A``, one fingerprint and one
lookup, about 30 µs at 6 to 21 states.

Deterministic *domain* failures (an infeasible LMI, a non-Hurwitz
matrix) are certificates too — ``synth_status`` records the reason and
the result is cached like any other, because re-running cannot change
it. An exception out of a computation reaches every waiter of that
request and is never cached.
"""

from __future__ import annotations

import hashlib
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from ..runner import Task, register_record_type, task_fingerprint
from .store import CertificateStore

__all__ = [
    "Certificate",
    "CertifyTask",
    "CertifyBatchTask",
    "CertificationService",
]


@register_record_type
@dataclass
class Certificate:
    """A cached, journal-round-trippable certification outcome.

    ``floor_margin``/``decay_margin`` are the compiled-screen constraint
    margins (nonnegative = feasible; see
    :meth:`repro.sdp.LyapunovLmiProblem.constraint_margins`).
    ``synthesis_time``/``validation_time`` are measured wall times and
    ``provenance`` records how the request executed — all three are
    volatile across runs and excluded from
    :meth:`identity`, the stable payload that cached, coalesced and
    batched paths must reproduce bit for bit.
    """

    fingerprint: str
    method: str
    backend: str | None
    validator: str
    sigfigs: int | None
    n: int
    synth_status: str  # "ok" | "timeout" | "infeasible" | "error"
    p: np.ndarray | None = None
    valid: bool | None = None
    alpha: float | None = None
    nu: float | None = None
    floor_margin: float | None = None
    decay_margin: float | None = None
    synthesis_time: float | None = None
    validation_time: float | None = None
    degraded: list = field(default_factory=list)
    provenance: dict | None = None

    def identity(self) -> tuple:
        """The stable (run-independent) payload of this certificate.

        Everything deterministic given the request spec: the matrix
        ``P`` byte-exactly, the verdicts, the screen margins. Wall
        times and execution provenance are excluded — they differ
        between a cold run and a cache hit without changing what was
        certified.
        """
        return (
            self.fingerprint,
            self.method,
            self.backend,
            self.validator,
            self.sigfigs,
            self.n,
            self.synth_status,
            None if self.p is None else self.p.tobytes(),
            self.valid,
            self.alpha,
            self.nu,
            self.floor_margin,
            self.decay_margin,
        )


class CertifyTask(Task):
    """One certification request as a picklable runner task.

    ``a`` is the task's own read-only, C-contiguous, little-endian
    float64 copy of the matrix, and its content address is those bytes:
    :meth:`fingerprint_spec` puts their SHA-256 (with dtype and shape)
    where the default spec would put the entries. Two requests share a
    fingerprint exactly when their float64 entries are equal, with
    ``-0.0`` and ``0.0`` told apart, whatever the caller passed
    (nested lists, an int array, F-order, a strided view, ``>f8``). The
    copy also keeps a caller that mutates its array after the request
    from moving the task's address.
    """

    def __init__(
        self,
        a,
        method: str = "lmi",
        backend: str | None = "ipm",
        validator: str = "sylvester",
        sigfigs: int | None = 10,
        alpha: float | None = None,
        nu: float | None = None,
        eq_smt_deadline: float | None = None,
        fallback: bool = True,
    ):
        matrix = np.array(a, dtype="<f8", order="C")  # always a copy
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("A must be a square matrix")
        matrix.flags.writeable = False
        self.a = matrix
        self.method = method
        self.backend = backend
        self.validator = validator
        self.sigfigs = sigfigs
        self.alpha = alpha
        self.nu = nu
        self.eq_smt_deadline = eq_smt_deadline
        self.fallback = fallback

    def fingerprint_spec(self):
        kind, fields = super().fingerprint_spec()
        fields["a"] = {
            "dtype": "<f8",
            "shape": list(self.a.shape),
            "sha256": hashlib.sha256(self.a.tobytes()).hexdigest(),
        }
        return kind, fields

    # ------------------------------------------------------------------

    def _screen_problem(self, candidate):
        """The fixed-candidate feasibility problem matching the recipe."""
        from ..sdp import LyapunovLmiProblem

        alpha = candidate.info.get("alpha") or 0.0
        nu = candidate.info.get("nu")
        return LyapunovLmiProblem(a=self.a, alpha=alpha, nu=nu)

    def _synthesize(self):
        """``(candidate, None)`` or ``(None, failure_status)``."""
        from ..lyapunov import SynthesisTimeout, synthesize
        from ..sdp import LmiInfeasibleError

        try:
            candidate = synthesize(
                self.method, self.a,
                backend=self.backend or "ipm",
                alpha=self.alpha, nu=self.nu,
                deadline=(
                    self.eq_smt_deadline if self.method == "eq-smt" else None
                ),
            )
        except SynthesisTimeout:
            return None, "timeout"
        except (LmiInfeasibleError, ValueError):
            return None, "infeasible"
        return candidate, None

    def _certificate(self, candidate, margins) -> Certificate:
        """Validate ``candidate`` and assemble the final certificate."""
        from ..validate import validate_candidate

        report = validate_candidate(
            candidate, self.a, sigfigs=self.sigfigs,
            validator=self.validator, fallback=self.fallback,
        )
        floor_margin, decay_margin = margins
        return Certificate(
            fingerprint=task_fingerprint(self),
            method=self.method, backend=candidate.backend,
            validator=self.validator, sigfigs=self.sigfigs,
            n=len(self.a), synth_status="ok",
            p=candidate.p, valid=report.valid,
            alpha=candidate.info.get("alpha"),
            nu=candidate.info.get("nu"),
            floor_margin=floor_margin, decay_margin=decay_margin,
            synthesis_time=candidate.synthesis_time,
            validation_time=report.total_time,
            degraded=report.degraded,
        )

    def _failed(self, status: str) -> Certificate:
        return Certificate(
            fingerprint=task_fingerprint(self),
            method=self.method, backend=self.backend,
            validator=self.validator, sigfigs=self.sigfigs,
            n=len(self.a), synth_status=status,
        )

    def run(self) -> Certificate:
        from ..sdp import screen_candidates

        candidate, failure = self._synthesize()
        if candidate is None:
            return self._failed(failure)
        margins = screen_candidates(
            [(self._screen_problem(candidate), candidate.p)]
        )[0]
        return self._certificate(candidate, margins)

    def on_error(self, message: str) -> Certificate:
        return self._failed("error")


class CertifyBatchTask(Task):
    """Several certification requests screened in one compiled pass.

    Synthesis and validation stay per-request (they are per-matrix
    algorithms), but every candidate's two screen blocks go through a
    single :class:`repro.sdp.CompiledLmiSystem`, which stacks
    same-sized blocks and resolves each size group with one batched
    eigh/Cholesky call — the same-shape batching layer. Results are
    bit-identical to running each :class:`CertifyTask` alone (the
    batched gufunc applies LAPACK per stacked matrix).
    """

    def __init__(self, requests: list[CertifyTask]):
        self.requests = list(requests)

    def fingerprint_spec(self):
        specs = [task_fingerprint(request) for request in self.requests]
        return type(self).__name__, {"requests": specs}

    def run(self) -> list[Certificate]:
        from ..sdp import screen_candidates

        synthesized = [request._synthesize() for request in self.requests]
        items = [
            (request._screen_problem(candidate), candidate.p)
            for request, (candidate, _status) in zip(
                self.requests, synthesized
            )
            if candidate is not None
        ]
        margins = iter(screen_candidates(items))
        certificates = []
        for request, (candidate, status) in zip(self.requests, synthesized):
            if candidate is None:
                certificates.append(request._failed(status))
            else:
                certificates.append(
                    request._certificate(candidate, next(margins))
                )
        return certificates


class CertificationService:
    """Front door for certification requests (cache, dedup, batching).

    ``store`` defaults to a memory-only :class:`CertificateStore`;
    pass one with a path for a persistent cache. Requests compute in
    the calling thread; the service is thread-safe, so concurrent
    callers share the cache and coalesce identical requests.
    """

    def __init__(
        self,
        store: CertificateStore | None = None,
        validator: str = "sylvester",
        sigfigs: int | None = 10,
        fallback: bool = True,
    ):
        self.store = store if store is not None else CertificateStore()
        self.validator = validator
        self.sigfigs = sigfigs
        self.fallback = fallback
        self._lock = threading.Lock()
        self._inflight: dict[str, Future] = {}
        self.requests = 0
        self.dedup_hits = 0
        self.computations = 0

    # -- request construction ------------------------------------------

    def request(
        self,
        a,
        b=None,
        c=None,
        gains=None,
        method: str = "lmi",
        backend: str | None = "ipm",
        alpha: float | None = None,
        nu: float | None = None,
        validator: str | None = None,
        sigfigs: int | None = None,
        eq_smt_deadline: float | None = None,
    ) -> CertifyTask:
        """Build the task for one request.

        With only ``a``, certifies that matrix directly. With ``b``,
        ``c`` and ``gains`` (a :class:`repro.systems.PIGains` or a
        ``(kp, ki)`` pair), certifies the closed-loop matrix of the PI
        feedback interconnection (paper Eq. 18-22).
        """
        matrix = self._closed_loop(a, b, c, gains)
        return CertifyTask(
            matrix, method=method, backend=backend,
            validator=self.validator if validator is None else validator,
            sigfigs=self.sigfigs if sigfigs is None else sigfigs,
            alpha=alpha, nu=nu, eq_smt_deadline=eq_smt_deadline,
            fallback=self.fallback,
        )

    @staticmethod
    def _closed_loop(a, b, c, gains):
        if b is None and c is None and gains is None:
            return a
        if b is None or c is None or gains is None:
            raise ValueError(
                "closed-loop requests need all of b, c and gains"
            )
        from ..systems import PIGains, StateSpace, closed_loop_matrices

        if not isinstance(gains, PIGains):
            kp, ki = gains
            gains = PIGains(kp, ki)
        a_cl, _b_cl = closed_loop_matrices(StateSpace(a, b, c), gains)
        return a_cl

    # -- the three entry points ----------------------------------------

    def certify(self, a, **request_kwargs):
        """Certify one system, blocking; returns a :class:`Certificate`."""
        return self.submit(a, **request_kwargs).result()

    def submit(self, a, **request_kwargs) -> Future:
        """Submit one request; returns a :class:`~concurrent.futures.Future`.

        Cache hits resolve immediately; an identical in-flight request
        returns *its* future (single-flight); otherwise the request
        computes inline, is stored exactly once, and resolves every
        coalesced future.
        """
        task = (
            # Any runner Task passes through untouched — this is how
            # chaos wrappers (and pre-built CertifyTasks) are injected.
            a if isinstance(a, Task)
            else self.request(a, **request_kwargs)
        )
        fingerprint = task_fingerprint(task)
        with self._lock:
            self.requests += 1
            cached = self.store.get(fingerprint)
            if cached is not None:
                future: Future = Future()
                future.set_result(cached)
                return future
            inflight = self._inflight.get(fingerprint)
            if inflight is not None:
                self.dedup_hits += 1
                return inflight
            future = Future()
            self._inflight[fingerprint] = future
            self.computations += 1
        self._execute(fingerprint, task, future)
        return future

    def certify_many(self, requests) -> list:
        """Certify many systems; pending screens share one batched pass.

        ``requests`` is a sequence of :class:`CertifyTask` (or kwargs
        dicts for :meth:`request`). Cache hits and in-flight duplicates
        are skimmed off first; everything left runs as a single
        :class:`CertifyBatchTask` whose candidate screens go through
        one compiled LMI system. Returns certificates in request order.
        """
        tasks = [
            r if isinstance(r, Task) else self.request(**r)
            for r in requests
        ]
        fingerprints = [task_fingerprint(task) for task in tasks]
        futures: dict[str, Future] = {}
        fresh: dict[str, tuple[CertifyTask, Future]] = {}
        with self._lock:
            for fingerprint, task in zip(fingerprints, tasks):
                self.requests += 1
                if fingerprint in futures:  # duplicate within the batch
                    self.dedup_hits += 1
                    continue
                cached = self.store.get(fingerprint)
                if cached is not None:
                    future: Future = Future()
                    future.set_result(cached)
                    futures[fingerprint] = future
                    continue
                inflight = self._inflight.get(fingerprint)
                if inflight is not None:
                    self.dedup_hits += 1
                    futures[fingerprint] = inflight
                    continue
                future = Future()
                self._inflight[fingerprint] = future
                futures[fingerprint] = future
                fresh[fingerprint] = (task, future)
                self.computations += 1
        if fresh:
            batch = CertifyBatchTask([task for task, _ in fresh.values()])
            self._execute_batch(list(fresh.items()), batch)
        return [futures[fingerprint].result() for fingerprint in fingerprints]

    # -- execution ------------------------------------------------------

    def _execute(self, fingerprint, task, future):
        try:
            certificate = task.run()
        except BaseException as exc:
            self._resolve_error(fingerprint, future, exc)
            return
        certificate.provenance = {"executor": "inline", "attempts": 1}
        self._resolve(fingerprint, future, certificate)

    def _execute_batch(self, fresh, batch):
        try:
            certificates = batch.run()
        except BaseException as exc:
            for fingerprint, (_task, future) in fresh:
                self._resolve_error(fingerprint, future, exc)
            return
        for (fingerprint, (_task, future)), certificate in zip(
            fresh, certificates
        ):
            certificate.provenance = {"executor": "inline", "attempts": 1}
            self._resolve(fingerprint, future, certificate)

    def _resolve(self, fingerprint, future, certificate):
        """Store exactly once, then wake every coalesced waiter."""
        self.store.put(fingerprint, certificate)
        with self._lock:
            self._inflight.pop(fingerprint, None)
        future.set_result(certificate)

    def _resolve_error(self, fingerprint, future, exc):
        with self._lock:
            self._inflight.pop(fingerprint, None)
        future.set_exception(exc)

    # -- instrumentation / lifecycle -----------------------------------

    def counters(self) -> dict:
        """Service + store counters (for the bench artifact)."""
        with self._lock:
            counters = {
                "requests": self.requests,
                "computations": self.computations,
                "dedup_hits": self.dedup_hits,
            }
        counters.update(self.store.counters())
        return counters

    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "CertificationService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
