"""Parallel experiment execution (process pool, task protocol,
durability).

The paper's headline cost is the Table I / Table II / Figure 3 grid —
hundreds of independent ``(case, mode, method, backend)``
synthesis+validation tasks. :func:`run_tasks` fans them out over
shared-nothing worker processes with per-task wall-clock deadlines,
deterministic result ordering, retry-with-backoff for transient
failures, and graceful degradation to in-process execution (``jobs=1``
or no usable pool). A :class:`TimingCollector` passed as ``collect=``
receives one :class:`TaskTiming` (status, wall time, worker, attempts)
per task; :mod:`repro.runner.journal` persists every completed verdict
to an append-only fsync'd JSONL journal so killed campaigns resume by
replay, and :func:`journal_digest` hashes a journal independently of
the order its lines were written in; :mod:`repro.runner.chaos` injects
deterministic faults to prove those invariants hold.
"""

from .core import (
    CampaignStats,
    RetryPolicy,
    Task,
    TaskTiming,
    TimingCollector,
    TransientTaskError,
    resolve_jobs,
    run_tasks,
)
from .chaos import (
    ChaosError,
    ChaosPermanentError,
    ChaosPolicy,
    ChaosTask,
)
from .journal import (
    JOURNAL_SALT,
    Journal,
    JournalEntry,
    decode_value,
    encode_value,
    journal_digest,
    register_record_type,
    task_fingerprint,
)
from .tasks import (
    CegisTask,
    Figure3Task,
    FuzzTask,
    PiecewiseTask,
    RevalidateTask,
    Table1Task,
    Table2Task,
)

__all__ = [
    "Task",
    "TransientTaskError",
    "RetryPolicy",
    "CampaignStats",
    "run_tasks",
    "resolve_jobs",
    "Journal",
    "JournalEntry",
    "JOURNAL_SALT",
    "task_fingerprint",
    "encode_value",
    "decode_value",
    "register_record_type",
    "journal_digest",
    "ChaosError",
    "ChaosPermanentError",
    "ChaosPolicy",
    "ChaosTask",
    "Table1Task",
    "RevalidateTask",
    "Figure3Task",
    "Table2Task",
    "PiecewiseTask",
    "CegisTask",
    "FuzzTask",
    "TaskTiming",
    "TimingCollector",
]
