"""Process-pool execution of independent experiment tasks.

The experiment grids (Table I / Table II / Figure 3 / the piecewise
sweep) are embarrassingly parallel: hundreds of independent
``(case, mode, method, backend)`` synthesis+validation tasks. This
module fans them out over a small pool of shared-nothing worker
processes while keeping the *observable* behaviour identical to a
serial run:

* **Deterministic ordering** — results are keyed by submission index
  and returned in submission order, regardless of completion order, so
  parallel output renders byte-identically to serial (modulo measured
  wall times, which are stochastic either way).
* **Per-task deadlines** — a task that exceeds ``task_deadline``
  seconds has its worker terminated and (once retries are exhausted)
  its :meth:`Task.on_timeout` result recorded; a hung ``eq-smt`` call
  no longer serializes the whole sweep. (Deadlines are only enforceable
  in pooled mode — an in-process task cannot be killed.)
* **Retries with backoff** — a task raising :class:`TransientTaskError`
  is retried up to :attr:`RetryPolicy.retries` times with exponential
  backoff plus deterministic jitter (hashed from the submission index
  and attempt number, so reruns back off identically). A worker that
  dies (EOF on its pipe or a dead process, whichever shows first) or
  is killed at its deadline has its task *requeued* on a fresh worker
  under the same attempt budget. *Permanent* failures — ordinary
  domain exceptions out of :meth:`Task.run` — are recorded once, with
  a structured ``{"exc", "transient"}`` error record, and never
  retried. Attempt numbers are global per task across retries and
  requeues; attempt, retry and requeue counts flow into the per-task
  :class:`TaskTiming` records and the :class:`CampaignStats` summary.
* **Durability** — pass ``journal=`` (a
  :class:`repro.runner.journal.Journal`) and every completed outcome is
  fsync'd to an append-only JSONL file keyed by task fingerprint;
  already-journaled tasks are *replayed* without executing, which is
  how ``--resume`` turns a killed campaign into a gap re-run.
* **Graceful degradation** — ``jobs=1``, an unavailable
  ``multiprocessing`` context, or a failed worker spawn all fall back
  to plain in-process execution; a worker that dies mid-task with no
  retries left gets its task re-run in-process (status
  ``"fallback"``).
* **Shared-nothing protocol** — tasks are small picklable specs
  (:mod:`repro.runner.tasks`) that resolve benchmark cases *by name*
  and rebuild matrices locally in the worker. Workers are persistent,
  so per-process caches (the balanced-truncation ladder) are built at
  most once per worker — and, under the preferred ``fork`` start
  method, inherited from the parent for free.
* **One BLAS thread per worker** — the pool is the parallelism. Each
  worker sets every OpenBLAS library mapped into it to one thread
  before its first task: ``jobs`` workers each running a multi-threaded
  BLAS would oversubscribe the CPUs the pool was sized to, and a
  faster BLAS kernel would then buy nothing end to end.
  ``OPENBLAS_NUM_THREADS`` cannot do this: OpenBLAS reads it once,
  when the parent first imports numpy, and a forked worker inherits
  that setting. The parent's BLAS threading is never touched.
* **Refill before the journal write** — when replies arrive, the pool
  first settles them (worker freed, wall time added, retries queued),
  then hands every idle worker its next task, and only then encodes
  and fsyncs the settled outcomes; the workers compute while the
  parent writes. The death path never dispatches: a reply drained
  from a worker that is being buried is finished on the spot.

One pool (:class:`_Pool`) owns spawn, dispatch, reply collection,
liveness and the death path. One attempt function (:func:`_attempt`)
and one outcome-accounting path (:class:`_Run`) serve the in-process
path and the pool alike.
"""

from __future__ import annotations

import ctypes
import hashlib
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_ready

__all__ = [
    "Task",
    "TransientTaskError",
    "RetryPolicy",
    "CampaignStats",
    "TaskTiming",
    "TimingCollector",
    "run_tasks",
    "resolve_jobs",
]

#: Seconds between scheduler polls while waiting on busy workers.
_POLL_INTERVAL = 0.05


class TransientTaskError(RuntimeError):
    """A task failure worth retrying (flaky backend, lost resource).

    Raise (or subclass) this from :meth:`Task.run` to mark the failure
    transient: the runner re-attempts the task under the active
    :class:`RetryPolicy` instead of recording the error immediately.
    Any other exception is classified *permanent* and recorded once.
    """


class Task:
    """Base class for runner tasks.

    Subclasses must be picklable (defined at module level, plain
    attributes) and implement :meth:`run`. The failure hooks translate
    runner-level events into domain results so a sweep always yields a
    full, ordered result list.
    """

    def run(self):
        """Execute the task and return its result (runs in a worker)."""
        raise NotImplementedError

    def fingerprint_spec(self) -> tuple[str, dict]:
        """``(kind, fields)`` identifying this task for the journal.

        The default — class name plus every public instance attribute —
        is correct for plain task specs; override to drop volatile
        fields (e.g. measured wall times riding along inside a
        candidate) that would spuriously change the fingerprint between
        runs. Underscore-prefixed attributes are always excluded: they
        hold runtime bookkeeping (the memoized ``_fingerprint`` digest
        itself, lazily attached caches) that must not feed back into
        the content address.
        """
        fields = {
            k: v for k, v in vars(self).items() if not k.startswith("_")
        }
        return type(self).__name__, fields

    def on_attempt(self, attempt: int) -> None:
        """Called with the 1-based attempt number before each dispatch."""

    def corrupt_journal_record(self) -> bool:
        """Chaos hook: ``True`` makes the runner tear this task's journal
        record (see :mod:`repro.runner.chaos`)."""
        return False

    def on_timeout(self, elapsed: float):
        """Result recorded when the runner kills the task at its deadline."""
        return None

    def on_error(self, message: str):
        """Result recorded when the task raises (or its worker crashes)."""
        return None


@dataclass(frozen=True)
class RetryPolicy:
    """How transient failures are retried.

    ``retries`` is the number of *extra* attempts after the first;
    backoff before attempt ``k+1`` is ``backoff * 2**(k-1)`` capped at
    ``max_backoff``, scaled by ``1 + jitter`` where the jitter in
    ``[0, 1)`` is hashed deterministically from ``(token, attempt)`` —
    identical reruns back off identically, but neighbouring tasks
    desynchronize.
    """

    retries: int = 0
    backoff: float = 0.05
    max_backoff: float = 2.0

    def delay(self, attempt: int, token) -> float:
        """Backoff after failed attempt number ``attempt`` (1-based)."""
        base = min(self.backoff * (2 ** max(0, attempt - 1)), self.max_backoff)
        digest = hashlib.sha256(f"{token}:{attempt}".encode()).digest()
        jitter = int.from_bytes(digest[:8], "big") / 2**64
        return base * (1.0 + jitter)


def _resolve_retry(retry) -> RetryPolicy:
    if retry is None:
        return RetryPolicy()
    if isinstance(retry, RetryPolicy):
        return retry
    return RetryPolicy(retries=int(retry))


@dataclass
class CampaignStats:
    """Per-campaign counters for the summary line (and the CLI).

    ``executed`` counts tasks that actually ran this run; ``replayed``
    counts journal hits; ``retried_tasks``/``retry_attempts`` track
    *policy* retries — a task that raised a transient error and was
    re-attempted. ``requeued_tasks``/``requeue_attempts`` count tasks
    re-dispatched because the *infrastructure* failed under them — a
    worker death or a deadline kill — reported apart from the retry
    counters. ``degraded`` counts tasks whose result records a
    backend/validator fallback; ``journal_errors`` counts outcomes that
    could not be journaled (the campaign continues regardless).
    """

    total: int = 0
    executed: int = 0
    replayed: int = 0
    retried_tasks: int = 0
    retry_attempts: int = 0
    requeued_tasks: int = 0
    requeue_attempts: int = 0
    degraded: int = 0
    errors: int = 0
    timeouts: int = 0
    journal_errors: int = 0

    def summary(self) -> str:
        parts = [
            f"{self.total} tasks",
            f"{self.executed} run",
            f"{self.replayed} replayed",
            f"{self.retried_tasks} retried (+{self.retry_attempts} attempts)",
            f"{self.degraded} degraded",
            f"{self.errors} errors",
        ]
        if self.requeued_tasks:
            parts.insert(
                4,
                f"{self.requeued_tasks} requeued "
                f"(+{self.requeue_attempts} attempts)",
            )
        if self.timeouts:
            parts.append(f"{self.timeouts} timeouts")
        if self.journal_errors:
            parts.append(f"{self.journal_errors} journal write failures")
        return "campaign: " + ", ".join(parts)

    def counters(self) -> dict:
        """Plain-dict snapshot of every counter."""
        return {
            "total": self.total,
            "executed": self.executed,
            "replayed": self.replayed,
            "retried_tasks": self.retried_tasks,
            "retry_attempts": self.retry_attempts,
            "requeued_tasks": self.requeued_tasks,
            "requeue_attempts": self.requeue_attempts,
            "degraded": self.degraded,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "journal_errors": self.journal_errors,
        }


@dataclass
class TaskTiming:
    """Wall-clock record of one runner task.

    ``wall_s`` accumulates across retry attempts; ``attempts`` is the
    number of attempts actually made (0 for a journal replay). ``error``
    is the runner's structured failure record
    (``{"exc": message, "transient": bool}``) when the task ultimately
    failed, ``None`` otherwise. ``requeues`` counts the attempts caused
    by infrastructure failure (worker death, deadline kill) rather than
    a policy retry.
    """

    status: str  # "ok" | "error" | "timeout" | "fallback" | "replayed"
    wall_s: float
    worker: str  # worker pid, "local" or "journal"
    attempts: int = 1
    error: dict | None = None
    requeues: int = 0


class TimingCollector:
    """Accumulates :class:`TaskTiming` records across runner calls."""

    def __init__(self) -> None:
        self.timings: list[TaskTiming] = []

    def record(self, timing: TaskTiming) -> None:
        self.timings.append(timing)


def resolve_jobs(jobs: int | None) -> int:
    """``None`` means every *available* CPU; below 1 is clamped to 1.

    Prefers ``os.sched_getaffinity`` over ``os.cpu_count`` so a
    container or cgroup that pins the process to a CPU subset (typical
    CI) gets a pool sized to what it may actually use, not to the host.
    """
    if jobs is None:
        try:
            jobs = len(os.sched_getaffinity(0))
        except (AttributeError, OSError):  # non-Linux platforms
            jobs = os.cpu_count() or 1
    return max(1, int(jobs))


def run_tasks(
    tasks,
    jobs: int | None = 1,
    task_deadline: float | None = None,
    collect: TimingCollector | None = None,
    journal=None,
    retry: RetryPolicy | int | None = None,
    stats: CampaignStats | None = None,
) -> list:
    """Run every task and return their results in submission order.

    ``jobs=None`` uses all available CPUs, ``jobs=1`` runs in-process
    (no pool, no deadline enforcement). ``collect`` receives one
    :class:`TaskTiming` per task. ``journal`` (a
    :class:`repro.runner.journal.Journal`) replays already-recorded
    tasks and persists fresh outcomes; ``retry`` (a
    :class:`RetryPolicy`, or an int shorthand for the retry count)
    re-attempts transient failures; ``stats`` accumulates the campaign
    summary counters.
    """
    tasks = list(tasks)
    if stats is None:
        stats = CampaignStats()
    stats.total += len(tasks)
    if not tasks:
        return []
    run = _Run(tasks, collect, journal, _resolve_retry(retry), stats)
    todo = run.replay()
    jobs = min(resolve_jobs(jobs), len(todo))
    if jobs > 1:
        _Pool(run, task_deadline, jobs).supervise(todo)
    run.finish_locally()
    return run.results


def _exc_message(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _attempt(task, attempt: int, policy: RetryPolicy):
    """Run attempt number ``attempt`` of ``task``.

    Returns ``(status, result, wall_s, error)``: ``"ok"``, ``"error"``
    (``result`` is then the task's :meth:`Task.on_error` record) or
    ``"retry"`` — a transient failure the policy re-attempts. Pool
    workers run one attempt per dispatch through this function;
    :meth:`_Run.run_local` loops over it in-process.
    """
    try:
        task.on_attempt(attempt)
    except Exception:
        pass
    start = time.perf_counter()
    try:
        result = task.run()
    except Exception as exc:
        wall = time.perf_counter() - start
        transient = isinstance(exc, TransientTaskError)
        if transient and attempt <= policy.retries:
            return "retry", None, wall, None
        message = _exc_message(exc)
        return (
            "error", task.on_error(message), wall,
            {"exc": message, "transient": transient},
        )
    return "ok", result, time.perf_counter() - start, None


def _degraded(result) -> bool:
    """Does ``result`` record a backend/validator fallback?

    Reads the record's own ``degraded`` list; a Table I result is a
    ``(record, candidate)`` pair, so its record is the first element.
    Results without the field never count.
    """
    if isinstance(result, tuple) and result:
        result = result[0]
    return bool(getattr(result, "degraded", None))


def _journal_outcome(journal, task, fingerprint, status, result, attempts,
                     error) -> None:
    """Append one final outcome (or, under chaos, a torn record)."""
    kind = type(task).__name__
    if task.corrupt_journal_record():
        journal.record_corrupt(fingerprint, kind)
    else:
        journal.record(
            fingerprint, kind, status, result, attempts=attempts, error=error
        )


class _Run:
    """Per-campaign bookkeeping: the one outcome-accounting path
    (result slot, stats, timing, journal) every finished task takes,
    whether it ran in-process or in a pool worker."""

    def __init__(self, tasks, collect, journal, policy, stats):
        count = len(tasks)
        self.tasks = tasks
        self.results = [None] * count
        self.done = [False] * count
        self.collect = collect
        self.journal = journal
        self.policy = policy
        self.stats = stats
        self.fingerprints: list[str | None] = [None] * count
        #: Per task: the last attempt number used, the policy retries
        #: and infrastructure requeues so far, and the wall time summed
        #: over its attempts.
        self.attempts = [0] * count
        self.retries = [0] * count
        self.requeues = [0] * count
        self.walls = [0.0] * count

    def replay(self) -> list[int]:
        """Mark journal hits done; return the indices left to run."""
        if self.journal is None:
            return list(range(len(self.tasks)))
        todo = []
        for index, task in enumerate(self.tasks):
            fingerprint = self.journal.fingerprint(task)
            self.fingerprints[index] = fingerprint
            entry = self.journal.get(fingerprint)
            if entry is None:
                todo.append(index)
                continue
            self.results[index] = entry.result
            self.done[index] = True
            self.stats.replayed += 1
            self._emit_timing(
                "replayed", 0.0, "journal", attempts=0, error=entry.error
            )
        return todo

    def may_retry(self, index: int) -> bool:
        """Is another attempt allowed after the current one failed?"""
        return self.attempts[index] <= self.policy.retries

    def run_local(self, index: int, status: str = "ok") -> None:
        """Run one task in this process, honouring the retry policy.

        The ``jobs=1`` path and every in-process last resort; a success
        is recorded under ``status`` (``"fallback"`` after a worker
        death with no requeue left).
        """
        task = self.tasks[index]
        while True:
            self.attempts[index] += 1
            attempt = self.attempts[index]
            outcome, result, wall, error = _attempt(task, attempt, self.policy)
            self.walls[index] += wall
            if outcome != "retry":
                break
            self.retries[index] += 1
            time.sleep(self.policy.delay(attempt, index))
        if outcome == "ok":
            outcome = status
        self.finish(index, outcome, result, "local", error)

    def finish_locally(self) -> None:
        """Run whatever is not done yet in-process (never return holes)."""
        for index, done in enumerate(self.done):
            if not done:
                self.run_local(index)

    def finish(self, index, status, result, worker, error=None) -> None:
        """Record a final outcome: result slot, stats, timing, journal."""
        self.results[index] = result
        self.done[index] = True
        stats = self.stats
        stats.executed += 1
        retries, requeues = self.retries[index], self.requeues[index]
        if retries:
            stats.retried_tasks += 1
            stats.retry_attempts += retries
        if requeues:
            stats.requeued_tasks += 1
            stats.requeue_attempts += requeues
        if status == "error":
            stats.errors += 1
        elif status == "timeout":
            stats.timeouts += 1
        if error and error.get("journal_error"):
            stats.journal_errors += 1
        if status in ("ok", "fallback") and _degraded(result):
            stats.degraded += 1
        self._emit_timing(
            status, self.walls[index], worker,
            attempts=self.attempts[index], error=error, requeues=requeues,
        )
        if self.journal is not None:
            self._journal_write(index, status, result, error)

    def _emit_timing(self, status, wall, worker, attempts, error,
                     requeues=0) -> None:
        if self.collect is not None:
            self.collect.record(
                TaskTiming(
                    status=status, wall_s=wall, worker=str(worker),
                    attempts=attempts, error=error, requeues=requeues,
                )
            )

    def _journal_write(self, index, status, result, error):
        task = self.tasks[index]
        if self.fingerprints[index] is None:
            self.fingerprints[index] = self.journal.fingerprint(task)
        try:
            _journal_outcome(
                self.journal, task, self.fingerprints[index], status,
                result, self.attempts[index], error,
            )
        except Exception:
            # A journaling failure must not take down the campaign; the
            # task simply re-runs on the next resume.
            self.stats.journal_errors += 1


# ----------------------------------------------------------------------
# The worker pool
# ----------------------------------------------------------------------

#: The thread-count setter an OpenBLAS build exports: scipy's wheels
#: prefix every symbol and suffix the 64-bit-integer build's with
#: ``64_``. Each takes one C ``int``.
_OPENBLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _pin_blas_threads() -> None:
    """Set every OpenBLAS library in this process to one thread.

    Called by pool workers only (see the module docstring). The
    libraries are found in ``/proc/self/maps`` (numpy and scipy each
    ship their own copy); without that file (off Linux) this does
    nothing. A library loaded after this call keeps its default.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps}
    except OSError:
        return
    for path in sorted(paths):
        if "openblas" not in os.path.basename(path):
            continue
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_SETTERS:
            setter = getattr(library, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                break


def _worker_main(conn, supervisor_end, policy: RetryPolicy):
    """Worker process: receive ``(index, task, attempt)``, run that one
    attempt, reply ``(index, status, result, wall_s, error)``; ``None``
    shuts it down. Task errors are replies, not worker deaths."""
    # The fork copied the supervisor's end of this pipe; while this copy
    # stays open a dead supervisor never shows as EOF here.
    supervisor_end.close()
    _pin_blas_threads()
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message is None:
                break
            index, task, attempt = message
            status, result, wall, error = _attempt(task, attempt, policy)
            try:
                conn.send((index, status, result, wall, error))
            except OSError:
                break
            except Exception as exc:  # unpicklable result: report, carry on
                message = _exc_message(exc)
                try:
                    conn.send((
                        index, "error", task.on_error(message), wall,
                        {"exc": message, "transient": False},
                    ))
                except Exception:
                    break
    finally:
        try:
            conn.close()
        except OSError:
            pass


class _Worker:
    """Supervisor-side handle of one worker process."""

    __slots__ = ("process", "conn", "index", "started")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.index: int | None = None  # the task in flight, if any
        self.started = 0.0  # when that task was dispatched

    def stop(self, graceful: bool = True) -> None:
        if graceful:
            try:
                self.conn.send(None)
            except OSError:
                pass
            self.process.join(timeout=2.0)
        for end in (self.process.terminate, self.process.kill):
            if not self.process.is_alive():
                break
            end()
            self.process.join(timeout=2.0)
        try:
            self.conn.close()
        except OSError:
            pass


class _Pool:
    """The worker pool behind ``run_tasks(jobs>1)``: spawn, dispatch,
    collect, liveness, death.

    One shared queue, one task in flight per worker, results journaled
    by the parent once the idle workers hold their next tasks (see
    :meth:`_collect`). A dead worker's task is requeued (its attempt is
    spent) while the retry policy allows, else finished in-process as
    ``"fallback"``; a deadline kill is requeued the same way, else
    recorded as ``"timeout"``; dead workers are replaced while work
    remains.
    """

    def __init__(self, run: _Run, deadline: float | None, count: int):
        self.run = run
        self.deadline = deadline
        self.count = count
        self.workers: list[_Worker] = []
        self.pending: deque[int] = deque()
        self.delayed: list[tuple[float, int]] = []  # (ready_at, index)
        try:
            self.context = multiprocessing.get_context("fork")
        except ValueError:  # platforms without fork: spawn still works,
            self.context = multiprocessing.get_context()  # caches warm/worker

    def supervise(self, todo: list[int]) -> None:
        """Run ``todo`` on ``count`` workers until it is done or no
        worker is left; the caller finishes the rest in-process."""
        try:
            for _ in range(self.count):
                self._spawn()
            self.pending.extend(todo)
            while self.workers and self._work_left():
                self._release(time.monotonic())
                for worker in list(self.workers):
                    self._fill(worker)
                self._collect()
        finally:
            for worker in self.workers:
                worker.stop()

    def _spawn(self) -> None:
        try:
            parent_end, child_end = self.context.Pipe(duplex=True)
            process = self.context.Process(
                target=_worker_main,
                args=(child_end, parent_end, self.run.policy),
                daemon=True,
            )
            process.start()
        except (OSError, ValueError):
            return  # no worker: the loop degrades to in-process
        child_end.close()
        self.workers.append(_Worker(process, parent_end))

    def _work_left(self) -> bool:
        return bool(
            self.pending or self.delayed
            or any(worker.index is not None for worker in self.workers)
        )

    def _later(self, index: int) -> None:
        """Re-dispatch ``index`` after its deterministic backoff."""
        ready = time.monotonic() + self.run.policy.delay(
            max(1, self.run.attempts[index]), index
        )
        self.delayed.append((ready, index))

    def _release(self, now: float) -> None:
        if not self.delayed:
            return
        due = sorted(item for item in self.delayed if item[0] <= now)
        if due:
            self.delayed = [item for item in self.delayed if item[0] > now]
            self.pending.extend(index for _ready, index in due)

    def _fill(self, worker) -> None:
        """Dispatch the next queued task to ``worker`` if it is idle."""
        run = self.run
        while worker.index is None and self.pending:
            index = self.pending.popleft()
            run.attempts[index] += 1
            message = (index, run.tasks[index], run.attempts[index])
            try:
                worker.conn.send(message)
            except OSError:  # broken pipe: the worker is gone
                run.attempts[index] -= 1
                self.pending.append(index)
                self._bury(worker, "send failed", time.monotonic())
                return
            except Exception:  # unpicklable task: run it here
                run.attempts[index] -= 1
                run.run_local(index)
                continue
            worker.index = index
            worker.started = time.monotonic()

    def _collect(self) -> None:
        """Settle the ready replies, refill the idle workers, then
        finish (journal) the settled outcomes."""
        busy = [w.conn for w in self.workers if w.index is not None]
        if busy:
            ready = _wait_ready(busy, timeout=_POLL_INTERVAL)
        else:
            ready = []
            pause = _POLL_INTERVAL
            if self.delayed:
                soonest = min(self.delayed)[0] - time.monotonic()
                pause = min(pause, max(0.0, soonest))
            time.sleep(pause)
        now = time.monotonic()
        settled = []
        for worker in list(self.workers):
            if worker.conn in ready:
                try:
                    outcome = self._drain(worker)
                except (EOFError, OSError):
                    # EOF on the pipe: the worker died, whatever
                    # is_alive() still says.
                    self._bury(worker, "pipe closed", now)
                    continue
                if outcome is not None:
                    settled.append(outcome)
            reason = self._dead_reason(worker, now)
            if reason is not None:
                self._bury(worker, reason, now)
        for worker in list(self.workers):
            self._fill(worker)
        for outcome in settled:
            self.run.finish(*outcome)

    def _dead_reason(self, worker, now: float) -> str | None:
        if not worker.process.is_alive():
            return "process exited"
        if (
            self.deadline is not None
            and worker.index is not None
            and now - worker.started > self.deadline
        ):
            return "deadline"
        return None

    def _drain(self, worker) -> tuple | None:
        """Take and settle the reply waiting on ``worker``'s pipe.

        Frees the worker, adds the attempt's wall time and queues a
        retry; returns the :meth:`_Run.finish` arguments of a final
        outcome, else ``None``. Raises ``EOFError``/``OSError`` at EOF.
        """
        if worker.index is None or not worker.conn.poll():
            return None
        index, status, result, wall, error = worker.conn.recv()
        worker.index = None
        run = self.run
        run.walls[index] += wall
        if status == "retry":
            run.retries[index] += 1
            self._later(index)
            return None
        return index, status, result, str(worker.process.pid), error

    def _bury(self, worker, reason: str, now: float) -> None:
        """The one death path: stop the worker, settle the task it held.

        Dispatches nothing: a reply that beat the death is finished
        here, before the worker is stopped.
        """
        self.workers.remove(worker)
        try:
            outcome = self._drain(worker)
        except (EOFError, OSError):
            outcome = None
        if outcome is not None:
            self.run.finish(*outcome)
        worker.stop(graceful=False)
        index = worker.index
        if index is not None:
            run = self.run
            elapsed = now - worker.started
            run.walls[index] += elapsed
            if reason == "deadline" and elapsed > self.deadline:
                self._timed_out(worker, index, elapsed)
            elif run.may_retry(index):
                run.requeues[index] += 1
                self._later(index)
            else:
                run.run_local(index, "fallback")
        if self._work_left():
            self._spawn()

    def _timed_out(self, worker, index: int, elapsed: float) -> None:
        run = self.run
        if run.may_retry(index):
            run.requeues[index] += 1
            self._later(index)
            return
        run.finish(
            index, "timeout", run.tasks[index].on_timeout(elapsed),
            str(worker.process.pid),
            error={
                "exc": (
                    f"deadline exceeded ({elapsed:.3g}s"
                    f" > {self.deadline:.3g}s)"
                ),
                "transient": True,
            },
        )
