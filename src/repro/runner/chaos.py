"""Seeded, deterministic fault injection for the runner.

The resilience invariants — resume skips completed work, transient
failures are retried, permanent ones are recorded once, no task is lost
or duplicated — are worthless unless something actually exercises them.
:class:`ChaosTask` wraps any :class:`~repro.runner.Task` and, at
configured rates, makes it

* raise a *transient* :class:`ChaosError` (retried by the policy),
* raise a *permanent* ``ChaosPermanentError`` (recorded once),
* hang past the runner deadline (killed, then retried),
* kill its worker process outright (``os._exit``), or
* tear its own journal record (a truncated line, as a crash mid-write
  would leave).

Every draw is derived from ``sha256(seed, fingerprint, attempt, kind)``
— no global RNG state — so a given (seed, task, attempt) always fails
the same way regardless of worker scheduling, process boundaries, or
how many other tasks run: chaos campaigns are exactly reproducible, and
a *retried* attempt draws fresh (otherwise an injected fault would
repeat forever and retries could never succeed).

The wrapper delegates fingerprints and failure hooks to the wrapped
task, so a chaos campaign journals and resumes exactly like a clean
one.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass

from .core import Task, TransientTaskError
from .journal import task_fingerprint

__all__ = [
    "ChaosError",
    "ChaosPermanentError",
    "ChaosPolicy",
    "ChaosTask",
    "inject",
]


class ChaosError(TransientTaskError):
    """Injected *transient* fault (classified retryable by the runner)."""


class ChaosPermanentError(ValueError):
    """Injected *permanent* (domain-shaped) fault: recorded, not retried."""


@dataclass(frozen=True)
class ChaosPolicy:
    """Injection rates (each an independent probability in ``[0, 1]``).

    Faults are checked in the order kill → hang → transient raise →
    permanent raise, so with overlapping draws the most violent fault
    wins. ``hang_s`` should comfortably exceed the runner's
    ``task_deadline``; ``corrupt_rate`` tears the task's journal record
    *after* a successful run (keyed by fingerprint only, not attempt:
    the write happens once per completed task).

    ``kill_first_attempts`` makes kills deterministic instead of drawn:
    a positive value kills exactly the first that-many attempts of
    every task and then lets retries succeed — the shape chaos tests
    need to assert "died mid-request, then completed on a fresh
    worker" without tuning probabilities.
    """

    seed: int = 0
    raise_rate: float = 0.0
    permanent_rate: float = 0.0
    hang_rate: float = 0.0
    kill_rate: float = 0.0
    corrupt_rate: float = 0.0
    hang_s: float = 3600.0
    kill_first_attempts: int = 0


class ChaosTask(Task):
    """A :class:`~repro.runner.Task` wrapped with deterministic faults."""

    def __init__(self, inner: Task, policy: ChaosPolicy):
        self.inner = inner
        self.policy = policy
        self.attempt = 1
        self.parent_pid = os.getpid()

    # -- delegation (a chaos campaign must journal like a clean one) ----

    def fingerprint_spec(self):
        return self.inner.fingerprint_spec()

    def on_timeout(self, elapsed):
        return self.inner.on_timeout(elapsed)

    def on_error(self, message):
        return self.inner.on_error(message)

    # -- fault injection -----------------------------------------------

    def on_attempt(self, attempt: int) -> None:
        self.attempt = attempt
        self.inner.on_attempt(attempt)

    def _draw(self, kind: str, per_attempt: bool = True) -> float:
        """Uniform in ``[0, 1)`` from (seed, fingerprint, attempt, kind)."""
        attempt = self.attempt if per_attempt else 0
        token = (
            f"{self.policy.seed}:{task_fingerprint(self.inner)}"
            f":{attempt}:{kind}"
        )
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def run(self):
        kill = (
            self.attempt <= self.policy.kill_first_attempts
            or self._draw("kill") < self.policy.kill_rate
        )
        if kill:
            if os.getpid() != self.parent_pid:
                os._exit(23)  # a worker death the parent must survive
            # In-process there is no worker to kill; degrade to a
            # transient fault so jobs=1 chaos runs stay meaningful.
            raise ChaosError("injected worker kill (in-process)")
        if self._draw("hang") < self.policy.hang_rate:
            time.sleep(self.policy.hang_s)
        if self._draw("raise") < self.policy.raise_rate:
            raise ChaosError("injected transient fault")
        if self._draw("permanent") < self.policy.permanent_rate:
            raise ChaosPermanentError("injected permanent fault")
        return self.inner.run()

    def corrupt_journal_record(self) -> bool:
        return self._draw("corrupt", per_attempt=False) < (
            self.policy.corrupt_rate
        )


def inject(tasks, policy: ChaosPolicy) -> list[ChaosTask]:
    """Wrap every task with the same chaos policy."""
    return [ChaosTask(task, policy) for task in tasks]
