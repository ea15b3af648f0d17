"""The generic campaign engine every experiment driver runs through.

:class:`CampaignEngine` bundles the runner knobs — ``jobs``,
``task_deadline``, ``timing``, ``journal``, ``retry``, ``stats``,
``shards`` — into one object. The drivers build their task grids and
call :meth:`CampaignEngine.run`; they take an ``engine`` and no runner
knob of their own, and ``engine=None`` means ``CampaignEngine()``: an
in-process run.

``run`` forwards to :func:`repro.runner.run_tasks` (or, when sharded,
:func:`repro.runner.run_sharded`) with exactly those arguments, so an
engine-routed campaign renders byte-identically to a direct runner
call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..runner import CampaignStats, resolve_shards, run_sharded, run_tasks

__all__ = ["CampaignEngine"]


@dataclass
class CampaignEngine:
    """Shared execution context for task campaigns.

    Parameters mirror :func:`repro.runner.run_tasks`: ``jobs`` sizes
    the worker pool (``None`` = all available CPUs, honouring the
    ``REPRO_JOBS`` env override; ``1`` = in-process), ``task_deadline``
    is the per-task wall-clock kill (pooled mode only), ``timing`` an
    optional :class:`repro.runner.TimingCollector`, ``journal`` a
    :class:`repro.runner.Journal` for crash-safe resume, ``retry`` a
    :class:`repro.runner.RetryPolicy` (or int shorthand), and ``stats``
    accumulates the campaign summary counters across every ``run``
    call that shares this engine.

    ``shards`` routes campaigns through the fault-tolerant shards
    (:func:`repro.runner.run_sharded`) instead of the flat process
    pool: ``None`` honours the ``REPRO_SHARDS`` env override and
    otherwise stays unsharded, a resolved count of 1 is exactly
    ``run_tasks``. ``shard_opts`` passes shard knobs through
    (``heartbeat_s``, ``lease_ttl``, ``chaos``, ``watch``).
    """

    jobs: int | None = 1
    task_deadline: float | None = None
    timing: object | None = None
    journal: object | None = None
    retry: object | None = None
    stats: CampaignStats = field(default_factory=CampaignStats)
    shards: int | None = None
    shard_opts: dict = field(default_factory=dict)

    def run(self, tasks) -> list:
        """Run ``tasks`` under this engine's context, in submission order."""
        if resolve_shards(self.shards) > 1:
            return run_sharded(
                tasks,
                shards=self.shards,
                journal=self.journal,
                retry=self.retry,
                stats=self.stats,
                collect=self.timing,
                task_deadline=self.task_deadline,
                jobs=self.jobs,
                **self.shard_opts,
            )
        return run_tasks(
            tasks,
            jobs=self.jobs,
            task_deadline=self.task_deadline,
            collect=self.timing,
            journal=self.journal,
            retry=self.retry,
            stats=self.stats,
        )
