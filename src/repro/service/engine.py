"""The generic campaign engine every experiment driver runs through.

:class:`CampaignEngine` bundles the runner knobs — ``jobs``,
``task_deadline``, ``timing``, ``journal``, ``retry``, ``stats`` — into
one object. The drivers build their task grids and call
:meth:`CampaignEngine.run`; they take an ``engine`` and no runner knob
of their own, and ``engine=None`` means ``CampaignEngine()``: an
in-process run.

``run`` forwards to :func:`repro.runner.run_tasks` with exactly those
arguments, so an engine-routed campaign renders byte-identically to a
direct runner call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..runner import CampaignStats, run_tasks

__all__ = ["CampaignEngine"]


@dataclass
class CampaignEngine:
    """Shared execution context for task campaigns.

    Parameters mirror :func:`repro.runner.run_tasks`: ``jobs`` sizes
    the worker pool (``None`` = all available CPUs; ``1`` =
    in-process), ``task_deadline``
    is the per-task wall-clock kill (pooled mode only), ``timing`` an
    optional :class:`repro.runner.TimingCollector`, ``journal`` a
    :class:`repro.runner.Journal` for crash-safe resume, ``retry`` a
    :class:`repro.runner.RetryPolicy` (or int shorthand), and ``stats``
    accumulates the campaign summary counters across every ``run``
    call that shares this engine.
    """

    jobs: int | None = 1
    task_deadline: float | None = None
    timing: object | None = None
    journal: object | None = None
    retry: object | None = None
    stats: CampaignStats = field(default_factory=CampaignStats)

    def run(self, tasks) -> list:
        """Run ``tasks`` under this engine's context, in submission order."""
        return run_tasks(
            tasks,
            jobs=self.jobs,
            task_deadline=self.task_deadline,
            collect=self.timing,
            journal=self.journal,
            retry=self.retry,
            stats=self.stats,
        )
