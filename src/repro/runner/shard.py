"""Fault-tolerant sharded campaigns: home queues with work-stealing,
heartbeat leases, per-shard journals and a deterministic merge.

:func:`repro.runner.run_tasks` survives losing a *worker*; a sharded
campaign survives losing a whole *shard*. :func:`run_sharded` runs on
the same worker supervisor as the flat pool
(:class:`repro.runner.core._Pool`) with the shard policy of
:class:`_ShardPool` on top. Each worker is a shard that

* journals every final outcome to its **own per-shard journal**
  (``<base>.shardK``, the same append-only fsync'd format) *before* it
  acknowledges the outcome,
* rewrites a **heartbeat lease** (``<base>.shardK.lease``) every
  ``heartbeat_s`` seconds (see :mod:`repro.runner.telemetry`), and
* takes tasks from its **home queue** — the task fingerprint's
  :func:`shard_of` — with up to ``_WINDOW`` in flight; a shard whose
  queue runs dry **steals** from the tail of the most-backlogged live
  shard, so a straggler slows nothing but itself.

The supervisor declares a shard **dead** when its process exits, its
pipe closes, its lease goes stale (``lease_ttl`` — the "partitioned
but alive" case) or its running task overruns ``task_deadline``. It
then harvests the dead shard's journal read-only
(:meth:`~repro.runner.Journal.load`): whatever the shard journaled is
done, even if never acknowledged. Its other in-flight and queued
tasks are **requeued** onto the survivors (a fingerprint requeued more
than ``_MAX_REQUEUES`` times is finished in-process instead of
poisoning the fleet). Dead shards are not replaced; with none left the
campaign finishes in-process. Because a shard can die *after*
journaling a task but *before* acknowledging it, a fingerprint may
execute twice; per-shard journals merge last-wins
(:func:`repro.runner.journal.merge_journals`), so double execution is
harmless by construction — no lost tasks, no duplicated results.

On completion the per-shard journals are merged and absorbed **byte
for byte** into the campaign's main journal, whose sorted-line SHA-256
digest (:func:`repro.runner.journal.journal_digest`) is therefore
invariant to shard count, shard deaths and steal order for
deterministic task payloads. Shard journals left by a crashed earlier
run are absorbed before replay, so their tasks are not re-run.

Shard-level fault injection lives in
:class:`repro.runner.chaos.ShardChaosPolicy`; live progress rendering
in :mod:`repro.runner.telemetry` (``--watch``).
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import re
import sys
import tempfile
import threading
import time
from collections import deque

from .core import (
    CampaignStats,
    _journal_outcome,
    _Pool,
    _resolve_retry,
    _Run,
    run_tasks,
)
from .journal import Journal, merge_journals, task_fingerprint
from .telemetry import (
    lease_path,
    read_lease,
    render_dashboard,
    scan_campaign,
    shard_journal_path,
    write_lease,
)

__all__ = ["run_sharded", "resolve_shards", "shard_of"]

#: Tasks in flight per shard (dispatch is windowed so steals can happen).
_WINDOW = 2
#: Requeues of one fingerprint before it is finished in-process.
_MAX_REQUEUES = 3
#: Seconds between ``watch`` dashboard renders.
_WATCH_INTERVAL = 2.0


def resolve_shards(shards: int | None) -> int:
    """Shard-count resolution: explicit > ``REPRO_SHARDS`` env > 1.

    Mirrors :func:`repro.runner.resolve_jobs`'s ``REPRO_JOBS``
    precedent: an explicit ``shards`` argument (the ``--shards`` CLI
    flag) wins; with ``shards=None`` a ``REPRO_SHARDS`` environment
    variable, if set to a parseable integer, decides (malformed values
    are ignored); otherwise campaigns stay unsharded (1). Values below
    1 are clamped to 1.
    """
    if shards is None:
        env = os.environ.get("REPRO_SHARDS")
        if env is not None:
            try:
                shards = int(env)
            except ValueError:
                shards = None
    if shards is None:
        return 1
    return max(1, int(shards))


def shard_of(fingerprint: str, shards: int) -> int:
    """Home shard of a task fingerprint: stable hash partition.

    Content-derived (the fingerprint is already a salted SHA-256 hex
    digest), so the same task lands on the same home shard in every
    process on every run — which is what makes a resumed sharded
    campaign re-partition identically.
    """
    return int(fingerprint[:16], 16) % max(1, shards)


# ----------------------------------------------------------------------
# Worker side (runs in the shard process)
# ----------------------------------------------------------------------

class _Heartbeat:
    """Background lease writer for one shard runner.

    The main thread mutates the counters under ``lock``; the heartbeat
    thread rewrites the lease atomically every ``interval`` seconds. A
    frozen heartbeat (chaos) stops rewriting but leaves the thread —
    and the shard — running, which is exactly the "lease expires
    without the process dying" failure the supervisor must catch.
    """

    def __init__(self, path, shard, interval):
        self.path = path
        self.interval = interval
        self.lock = threading.Lock()
        self.payload = {
            "shard": shard,
            "pid": os.getpid(),
            "state": "running",
            "done": 0,
            "assigned": 0,
            "retried": 0,
            "requeued": 0,
            "stolen": 0,
            "started": time.time(),
            "current_started": None,
        }
        self.frozen = False
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def start(self):
        self.write()  # one unconditional lease before chaos can freeze it
        self._thread.start()

    def _loop(self):
        while not self._stop.wait(self.interval):
            self.write()

    def update(self, **fields):
        with self.lock:
            self.payload.update(fields)

    def bump(self, **fields):
        with self.lock:
            for key, delta in fields.items():
                self.payload[key] = self.payload.get(key, 0) + delta

    def write(self):
        if self.frozen:
            return
        with self.lock:
            payload = dict(self.payload, ts=time.time())
        try:
            write_lease(self.path, payload)
        except OSError:
            pass  # a failed heartbeat must not kill the shard

    def freeze(self):
        self.frozen = True

    def stop(self, state="done"):
        self._stop.set()
        self.update(state=state, current_started=None)
        self.write()


def _tear_tail(journal: Journal, fingerprint: str, kind: str) -> None:
    """Leave a torn (newline-less) trailing record — what a crash in
    the middle of :meth:`Journal.record` leaves behind."""
    line = json.dumps(
        {"v": 1, "fp": fingerprint, "kind": kind, "status": "ok"}
    )
    journal._write(line[: max(4, len(line) // 2)].encode("utf-8"))


class _ShardWorker:
    """A shard's worker-side policy: the hooks
    :func:`repro.runner.core._worker_main` calls around each attempt.

    Keeps the per-shard journal (written before every acknowledgement,
    so the journaled fingerprints are always a superset of the
    acknowledged ones), the heartbeat lease, and the
    :class:`~repro.runner.ShardChaosPolicy` faults.
    """

    def __init__(self, slot, journal_path, lease_file, heartbeat_s, chaos):
        self.slot = slot
        self.journal_path = journal_path
        self.lease_file = lease_file
        self.heartbeat_s = heartbeat_s
        self.chaos = chaos
        self.accepted = 0
        self.kill_now = False

    def start(self):
        self.journal = Journal(self.journal_path, resume=True)
        self.beat = _Heartbeat(self.lease_file, self.slot, self.heartbeat_s)
        self.beat.start()

    def accept(self, task, note):
        chaos = self.chaos
        self.accepted += 1
        self.beat.bump(
            assigned=1,
            stolen=int(note == "stolen"),
            requeued=int(note == "requeued"),
        )
        self.kill_now = (
            chaos is not None
            and chaos.kill_shard == self.slot
            and self.accepted == chaos.kill_after
        )
        if chaos is not None and chaos.straggler_shard == self.slot:
            time.sleep(chaos.straggler_delay_s)
        if self.kill_now and chaos.kill_mode == "torn":
            # Crash mid-write: torn trailing line, then die.
            _tear_tail(
                self.journal, task_fingerprint(task), type(task).__name__
            )
            os._exit(31)
        self.beat.update(current_started=time.time())
        self.beat.write()

    def settle(self, task, attempt, status, result, error):
        """Journal a final outcome; returns the error record to send."""
        if status != "retry":
            try:
                _journal_outcome(
                    self.journal, task, task_fingerprint(task), status,
                    result, attempt, error,
                )
            except Exception:
                error = dict(error or {}, journal_error=True)
            self.beat.bump(done=1, retried=int(attempt > 1))
        if self.kill_now:
            # Journaled but never acknowledged: the supervisor harvests
            # this fingerprint and the merge dedups any re-run.
            os._exit(31)
        self.beat.update(current_started=None)
        chaos = self.chaos
        if (
            chaos is not None
            and chaos.freeze_shard == self.slot
            and self.accepted >= max(1, chaos.freeze_after)
        ):
            self.beat.freeze()
        self.beat.write()
        return error

    def stop(self):
        self.beat.stop(state="done")
        self.journal.close()


# ----------------------------------------------------------------------
# Supervisor side
# ----------------------------------------------------------------------

class _ShardPool(_Pool):
    """The shard policy on the runner's supervisor loop."""

    window = _WINDOW
    respawn = False  # a lost shard's work moves to the survivors
    charge_deaths = False  # a shard death may predate the task's start
    max_requeues = _MAX_REQUEUES
    worker_journals = True

    def __init__(self, run, deadline, count, base, heartbeat_s, lease_ttl,
                 chaos, watch):
        super().__init__(run, deadline, count)
        self.base = base
        self.heartbeat_s = heartbeat_s
        self.lease_ttl = lease_ttl
        self.chaos = chaos
        self.watch = watch
        self.queues = {slot: deque() for slot in range(count)}
        self.began = time.time()
        self.last_watch = 0.0

    def _hooks(self, slot):
        return _ShardWorker(
            slot, str(shard_journal_path(self.base, slot)),
            str(lease_path(self.base, slot)), self.heartbeat_s, self.chaos,
        )

    def _name(self, worker) -> str:
        return f"shard{worker.slot}:{worker.process.pid}"

    def _enqueue(self, index):
        """Home queue of the fingerprint, re-hashed over the live shards
        when the home shard is gone."""
        fingerprint = self.run.fingerprints[index]
        home = shard_of(fingerprint, self.count)
        live = sorted(worker.slot for worker in self.workers)
        if live and home not in live:
            home = live[shard_of(fingerprint, len(live))]
        self.queues[home].append(index)

    def _queued(self):
        return any(self.queues.values())

    def _next(self, worker):
        """The worker's own queue, else a steal from the cold tail of
        the most-backlogged other live shard."""
        run = self.run
        queue = self.queues[worker.slot]
        while queue:
            index = queue.popleft()
            if not run.done[index]:
                return index, "requeued" if run.requeues[index] else None
        victim = max(
            (self.queues[other.slot] for other in self.workers
             if other is not worker),
            key=len, default=None,
        )
        while victim:
            index = victim.pop()
            if not run.done[index]:
                run.stats.stolen_tasks += 1
                return index, "stolen"
        return None, None

    def _dead_reason(self, worker, now):
        reason = super()._dead_reason(worker, now)
        if reason is not None:
            return reason
        lease = read_lease(lease_path(self.base, worker.slot))
        wall = time.time()
        if lease is None:
            if wall - worker.spawned > 2 * self.lease_ttl:
                return "no lease"
        elif wall - float(lease["ts"]) > self.lease_ttl:
            return "lease expired"
        return None

    def _harvest(self, worker):
        """Anything the dead shard journaled is done, acknowledged or
        not."""
        journal = Journal.load(shard_journal_path(self.base, worker.slot))
        run = self.run
        for index in list(worker.inflight):
            entry = journal.get(run.fingerprints[index])
            if entry is not None:
                worker.inflight.remove(index)
                run.finish(
                    index, entry.status, entry.result,
                    f"shard{worker.slot}", entry.error, journaled=True,
                )

    def _abandon(self, worker):
        queue = self.queues[worker.slot]
        backlog = list(queue)
        queue.clear()
        for index in backlog:
            if not self.run.done[index]:
                self._enqueue(index)

    def _tick(self):
        if not self.watch:
            return
        now = time.time()
        if now - self.last_watch < _WATCH_INTERVAL:
            return
        self.last_watch = now
        text = render_dashboard(
            scan_campaign(self.base, shards=self.count, now=now),
            total=len(self.run.tasks) - self.run.stats.replayed,
            elapsed_s=now - self.began,
            lease_ttl=self.lease_ttl,
        )
        if callable(self.watch):
            self.watch(text)
        else:
            print(text, file=sys.stderr, flush=True)


def _shard_journals(base: pathlib.Path) -> list[pathlib.Path]:
    return [
        path for path in base.parent.glob(base.name + ".shard*")
        if re.fullmatch(r"\.shard\d+", path.suffix)
    ]


def _absorb(journal: Journal) -> None:
    """Fold every per-shard journal next to ``journal`` into it, byte for
    byte, skipping fingerprints it already holds."""
    merged = merge_journals(_shard_journals(journal.path))
    for fingerprint, raw in sorted(merged.items()):
        if fingerprint not in journal:
            journal.absorb_line(raw)


def run_sharded(
    tasks,
    shards: int | None = None,
    journal=None,
    retry=None,
    stats: CampaignStats | None = None,
    collect=None,
    task_deadline: float | None = None,
    heartbeat_s: float = 0.5,
    lease_ttl: float = 10.0,
    chaos=None,
    watch=None,
    jobs: int | None = 1,
) -> list:
    """Run a campaign across fault-tolerant shards; results in
    submission order.

    ``shards`` resolves via :func:`resolve_shards` (explicit >
    ``REPRO_SHARDS`` > 1); a resolved count of 1 delegates to
    :func:`repro.runner.run_tasks` with ``jobs`` workers — sharding is
    strictly additive. ``journal`` is the campaign's main
    :class:`~repro.runner.Journal` (or a path opened ``resume=True``,
    or ``None`` for a throwaway campaign journaled in a temp
    directory); per-shard journals and heartbeat leases live next to
    it (``<base>.shardK`` / ``<base>.shardK.lease``) and are absorbed
    into it — byte for byte — when the campaign completes. ``chaos``
    is a :class:`~repro.runner.ShardChaosPolicy`; ``watch`` enables
    the live dashboard (``True`` = stderr, or a callable receiving the
    rendered text). ``task_deadline`` arms the per-task kill: the shard
    running an overdue task is declared dead and the task is retried
    under ``retry`` or recorded as a timeout.
    """
    tasks = list(tasks)
    if stats is None:
        stats = CampaignStats()
    count = resolve_shards(shards)
    with contextlib.ExitStack() as stack:
        if journal is not None and not isinstance(journal, Journal):
            journal = stack.enter_context(Journal(journal, resume=True))
        if count <= 1 or len(tasks) <= 1:
            return run_tasks(
                tasks, jobs=jobs, task_deadline=task_deadline,
                collect=collect, journal=journal, retry=retry, stats=stats,
            )
        if journal is None:
            tempdir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-shard-")
            )
            journal = stack.enter_context(Journal(
                pathlib.Path(tempdir) / "campaign.jsonl", fsync=False
            ))
        _absorb(journal)  # leftovers of a crashed earlier run
        stats.total += len(tasks)
        run = _Run(tasks, collect, journal, _resolve_retry(retry), stats)
        todo = run.replay()
        if todo:
            _ShardPool(
                run, task_deadline, min(count, len(todo)), journal.path,
                heartbeat_s, lease_ttl, chaos, watch,
            ).supervise(todo)
        run.finish_locally()
        _absorb(journal)
        # Everything is in the fsync'd main journal now; stale shard
        # files would leak into a later resume=False campaign here.
        base = journal.path
        for path in _shard_journals(base) + list(
            base.parent.glob(base.name + ".shard*.lease")
        ):
            with contextlib.suppress(OSError):
                path.unlink()
        return run.results
