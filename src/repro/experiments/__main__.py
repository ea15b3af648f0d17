"""Command-line entry point for the experiment drivers.

``--quick`` restricts every experiment to the small benchmarks so the
whole sweep finishes in a few minutes; the full configuration mirrors
the paper's grid (and takes correspondingly longer, dominated by the
``eq-smt`` deadline and the ICP validators). ``--jobs N`` fans each
grid out over N worker processes (default: all CPU cores; ``--jobs 1``
runs in-process) — results are re-sorted into submission order, so the
rendered output is independent of N. ``--record DIR`` saves each
experiment's rendered output as ``<experiment>_full.txt`` (or
``_quick``), the files EXPERIMENTS.md references, and ``--json PATH``
dumps the raw records; apart from these and ``--journal``, the CLI
writes no file. The ``cegis`` experiment runs the
counterexample-guided refinement loop over both reference regimes
(``--cegis-rounds`` caps the per-campaign round budget).

Campaigns survive crashes: ``--journal PATH`` records every finished
task in an append-only JSONL journal, and ``--resume`` replays it so an
interrupted run re-executes only the gaps (rendered output is identical
to an uninterrupted run). ``--retries N`` re-runs transiently failed
tasks (worker death, deadline kill, IPC errors) with exponential
backoff; ``--no-fallback`` disarms the validator degradation chains
(see :mod:`repro.validate.validators`). A one-line campaign summary
(tasks run / replayed / retried / degraded) prints after each
experiment's table.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

import dataclasses

from ..runner import CampaignStats, Journal, RetryPolicy
from ..service.engine import CampaignEngine
from .cegis import render_cegis, run_cegis
from .figure3 import render_figure3, run_figure3
from .piecewise import render_piecewise, run_piecewise
from .records import dump_records
from .table1 import render_sweep, render_table1, rounding_sweep, run_table1
from .table2 import render_table2, run_table2


def _engine(args, campaign) -> CampaignEngine:
    """One shared campaign engine per experiment run (see
    :mod:`repro.service.engine`)."""
    engine = CampaignEngine(
        jobs=args.jobs,
        task_deadline=args.task_deadline,
        journal=campaign.journal,
        retry=campaign.retry,
    )
    engine.stats = campaign.stats
    return engine


class _Campaign:
    """Per-experiment resilience context: shared journal, retry policy,
    and the summary counters printed after the rendered output."""

    def __init__(self, args, journal):
        self.journal = journal
        self.retry = (
            RetryPolicy(retries=args.retries, backoff=args.retry_backoff)
            if args.retries
            else None
        )
        self.stats = CampaignStats()
        self.fallback = not args.no_fallback


def _table1(args, campaign) -> str:
    sizes = (3, 5) if args.quick else (3, 5, 10, 15, 18)
    deadline = 5.0 if args.quick else args.eq_smt_deadline
    engine = _engine(args, campaign)
    records, candidates = run_table1(
        sizes=sizes, eq_smt_deadline=deadline, keep_candidates=True,
        fallback=campaign.fallback, engine=engine,
    )
    text = render_table1(records)
    # The 10-sigfig validations were just computed: reuse them and only
    # re-run the aggressive rounding levels (6 and 4). The sweep never
    # honoured --task-deadline, so strip it from the shared engine.
    sweep = rounding_sweep(
        candidates, base_records=records, fallback=campaign.fallback,
        engine=dataclasses.replace(engine, task_deadline=None),
    )
    text += "\n\n" + render_sweep(sweep)
    if args.json:
        dump_records(records, args.json)
    return text


def _figure3(args, campaign) -> str:
    sizes = (3, 5) if args.quick else (3, 5, 10, 15, 18)
    records = run_figure3(
        sizes=sizes, fallback=campaign.fallback,
        engine=_engine(args, campaign),
    )
    if args.json:
        dump_records(records, args.json)
    return render_figure3(records)


def _piecewise(args, campaign) -> str:
    names = ("size3",) if args.quick else ("size3", "size5")
    iterations = 6_000 if args.quick else 20_000
    records = run_piecewise(
        case_names=names, max_iterations=iterations,
        engine=_engine(args, campaign),
    )
    if args.json:
        dump_records(records, args.json)
    return render_piecewise(records)


def _cegis(args, campaign) -> str:
    names = ("size3",) if args.quick else ("size3", "size5", "size10")
    records = run_cegis(
        case_names=names,
        max_rounds=args.cegis_rounds,
        max_iterations=6_000 if args.quick else 30_000,
        engine=_engine(args, campaign),
    )
    if args.json:
        dump_records(records, args.json)
    return render_cegis(records)


def _table2(args, campaign) -> str:
    names = ("size3", "size5") if args.quick else ("size15", "size18")
    records = run_table2(
        case_names=names, fallback=campaign.fallback,
        engine=_engine(args, campaign),
    )
    if args.json:
        dump_records(records, args.json)
    return render_table2(records)


COMMANDS = {
    "table1": _table1,
    "figure3": _figure3,
    "piecewise": _piecewise,
    "cegis": _cegis,
    "table2": _table2,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment", choices=[*COMMANDS, "all"],
        help="which artefact to regenerate",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small-benchmark configuration (minutes instead of hours)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (default: all CPU cores; 1 = in-process)",
    )
    parser.add_argument(
        "--task-deadline", type=float, default=None, metavar="SECONDS",
        help="kill any single task exceeding this wall-clock budget "
        "(pooled mode only)",
    )
    parser.add_argument(
        "--eq-smt-deadline", type=float, default=60.0,
        help="wall-clock budget (s) for the exact eq-smt method",
    )
    parser.add_argument(
        "--cegis-rounds", type=int, default=40, metavar="N",
        help="CEGIS round budget per campaign (cegis experiment only)",
    )
    parser.add_argument(
        "--json", type=str, default=None,
        help="also dump raw records to this JSON file",
    )
    parser.add_argument(
        "--record", type=str, default=None, metavar="DIR",
        help="save rendered output to DIR/<experiment>_full|_quick.txt",
    )
    parser.add_argument(
        "--journal", type=str, default=None, metavar="PATH",
        help="append-only JSONL result journal (crash-safe campaign state)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="replay completed tasks from --journal and run only the gaps",
    )
    parser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry transiently failed tasks up to N times "
        "(exponential backoff; default: no retries)",
    )
    parser.add_argument(
        "--retry-backoff", type=float, default=0.05, metavar="SECONDS",
        help="base delay of the retry backoff (doubles per attempt)",
    )
    parser.add_argument(
        "--no-fallback", action="store_true",
        help="disarm the kernel-backend fallback and validator "
        "escalation chains (failures propagate)",
    )
    args = parser.parse_args(argv)
    if args.resume and not args.journal:
        parser.error("--resume requires --journal")
    chosen = list(COMMANDS) if args.experiment == "all" else [args.experiment]
    journal = (
        Journal(args.journal, resume=args.resume) if args.journal else None
    )
    try:
        for name in chosen:
            if args.experiment == "all":
                print(f"\n=== {name} ===")
            campaign = _Campaign(args, journal)
            text = COMMANDS[name](args, campaign)
            print(text)
            # Campaign counters go to the terminal only, never into the
            # --record files: resumed runs must stay byte-identical.
            print(campaign.stats.summary())
            if args.record:
                suffix = "quick" if args.quick else "full"
                path = pathlib.Path(args.record) / f"{name}_{suffix}.txt"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text + "\n")
    finally:
        if journal is not None:
            journal.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
