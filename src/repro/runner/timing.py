"""Per-task timing instrumentation and the ``BENCH_experiments.json``
performance-trajectory artifact.

Every runner execution can feed a :class:`TimingCollector`; the CLI
(and the scaling micro-benchmark) then merges one entry per experiment
into a machine-readable JSON file, so per-task synthesis/validation
wall times are tracked across PRs.

Schema (``repro-bench/2``; ``/1`` files are migrated in place — the
``experiments`` section is carried over unchanged)::

    {
      "schema": "repro-bench/2",
      "experiments": {
        "<experiment>": {
          "jobs": 4,
          "quick": true,
          "total_wall_s": 12.34,        # whole-sweep wall clock
          "task_wall_s": 45.6,          # sum of per-task wall clocks
          "tasks": [
            {
              "case": "size3i", "mode": 0,
              "method": "eq-num", "backend": null,   # the task key
              "status": "ok",           # ok|error|timeout|fallback|replayed
              "wall_s": 0.0123,         # wall clock, summed over attempts
              "worker": "12345",        # worker pid, "local", or "journal"
              "attempts": 1,            # attempts made (0 = journal replay)
              "error": {"exc": "...",   # structured failure record, only
                        "transient": false},  # when the task failed
              "synth_s": 0.0004,        # driver-specific detail fields
              "validate_s": 0.0119,
              "degraded": [...]         # fallback provenance, when any
            }, ...
          ]
        }, ...
      },
      "resilience": {                   # journal/resume overheads
        ...                             # (benchmarks/test_resilience.py)
      },
      "kernels": {                      # exact-kernel micro-benchmarks
        "sizes": {                      # closed-loop matrix dimension
          "18": {
            "fraction_det_s": 0.0447,   # per-backend wall times
            "int_det_s": 0.0044,
            "modular_det_s": 0.0100,
            "fraction_minors_s": 0.0256,
            "int_minors_s": 0.0032,
            "modular_minors_s": 0.0123
          }, ...
        },
        "cache": {"hits": 416, "misses": 99, ...}   # kernel_cache_info()
      }
    }

Task keys are experiment-shaped: ``(case, mode, method, backend)`` for
Table I / Table II / Figure 3 (Figure 3 adds ``validator``),
``(case, encoding)`` for the piecewise sweep. The ``kernels`` section
is written by ``benchmarks/test_exact_kernels.py`` via
:func:`write_kernels_bench` and preserved by :func:`write_bench` (and
vice versa).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field

__all__ = [
    "TaskTiming",
    "TimingCollector",
    "write_bench",
    "write_section",
    "write_kernels_bench",
    "BENCH_SCHEMA",
]

BENCH_SCHEMA = "repro-bench/2"
#: Prior schema whose ``experiments`` section is still understood and
#: migrated forward instead of being discarded.
_BENCH_SCHEMA_V1 = "repro-bench/1"


@dataclass
class TaskTiming:
    """Wall-clock record of one runner task.

    ``wall_s`` accumulates across retry attempts; ``attempts`` is the
    number of attempts actually made (0 for a journal replay). ``error``
    is the runner's structured failure record
    (``{"exc": message, "transient": bool}``) when the task ultimately
    failed, ``None`` otherwise.
    """

    key: dict | None
    status: str  # "ok" | "error" | "timeout" | "fallback" | "replayed"
    wall_s: float
    worker: str  # worker pid, "local" or "journal"
    detail: dict = field(default_factory=dict)
    attempts: int = 1
    error: dict | None = None
    #: Attempts caused by infrastructure failure (worker death,
    #: deadline kill) rather than a policy retry; see
    #: :class:`repro.runner.CampaignStats`.
    requeues: int = 0

    def as_entry(self) -> dict:
        entry = dict(self.key or {})
        entry["status"] = self.status
        entry["wall_s"] = self.wall_s
        entry["worker"] = self.worker
        entry["attempts"] = self.attempts
        if self.requeues:
            entry["requeues"] = self.requeues
        if self.error is not None:
            entry["error"] = dict(self.error)
        entry.update(self.detail)
        return entry


class TimingCollector:
    """Accumulates :class:`TaskTiming` records across runner calls."""

    def __init__(self) -> None:
        self.timings: list[TaskTiming] = []

    def record(self, timing: TaskTiming) -> None:
        self.timings.append(timing)

    def task_wall_s(self) -> float:
        """Sum of per-task wall clocks (CPU-ish cost, not elapsed time)."""
        return sum(t.wall_s for t in self.timings)

    def entries(self) -> list[dict]:
        return [t.as_entry() for t in self.timings]


def write_bench(
    path: str | pathlib.Path,
    experiment: str,
    collector: TimingCollector,
    jobs: int,
    quick: bool,
    total_wall_s: float,
    stats=None,
) -> dict:
    """Merge one experiment's timings into the bench artifact at ``path``.

    Existing entries for *other* experiments are preserved — as is the
    ``kernels`` section — so a full ``python -m repro.experiments all``
    accumulates every sweep into a single file. ``stats`` (a
    :class:`repro.runner.CampaignStats`) adds the campaign counters —
    replays, retries, requeues — as a ``"campaign"`` sub-dict. Returns
    the written document.
    """
    path = pathlib.Path(path)
    data = _load_bench(path)
    entry = {
        "jobs": jobs,
        "quick": quick,
        "total_wall_s": total_wall_s,
        "task_wall_s": collector.task_wall_s(),
        "tasks": collector.entries(),
    }
    if stats is not None:
        entry["campaign"] = stats.counters()
    data["experiments"][experiment] = entry
    _dump_bench(path, data)
    return data


def write_section(path: str | pathlib.Path, name: str, payload: dict) -> dict:
    """Merge one top-level section (e.g. ``"kernels"``, ``"resilience"``)
    into the artifact, preserving everything else. Returns the written
    document."""
    path = pathlib.Path(path)
    data = _load_bench(path)
    data[name] = payload
    _dump_bench(path, data)
    return data


def write_kernels_bench(path: str | pathlib.Path, kernels: dict) -> dict:
    """Merge the exact-kernel micro-benchmark section into the artifact.

    ``kernels`` is stored verbatim under the top-level ``"kernels"``
    key (see the module docstring for the shape the kernel benchmark
    writes); every ``experiments`` entry is preserved. Returns the
    written document.
    """
    return write_section(path, "kernels", kernels)


def _load_bench(path: pathlib.Path) -> dict:
    """Read the artifact, migrating ``repro-bench/1`` files forward."""
    data: dict = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            data = {}
    schema = data.get("schema")
    if schema not in (BENCH_SCHEMA, _BENCH_SCHEMA_V1) or not isinstance(
        data.get("experiments"), dict
    ):
        data = {"experiments": {}}
    data["schema"] = BENCH_SCHEMA
    return data


def _dump_bench(path: pathlib.Path, data: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, default=str) + "\n")
