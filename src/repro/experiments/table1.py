"""Table I driver: synthesis and validation of single-mode Lyapunov
functions across the benchmark ladder.

For every benchmark case (size x integer-variant), each operating mode,
and each synthesis method/backend: synthesize a candidate (``eq-smt``
under a wall-clock deadline, like the paper's 2 h limit scaled down),
round it at 10 significant figures, and validate both Lyapunov
conditions exactly. The grid is enumerated as picklable tasks and
submitted through a :class:`repro.service.CampaignEngine` (worker
processes, or in-process by default); results come back in submission
order, so parallel runs render identically to serial ones. The renderer
aggregates per size, matching the paper's layout: average synthesis
time and "validated / total" ratio.

``rounding_sweep`` reruns validation of the same candidates at 6 and 4
significant figures, reproducing the paper's robustness observation
(more aggressive rounding breaks validity; ``LMIalpha`` candidates
survive best). Levels already covered by the Table I records
(``base_records``) are reused instead of re-validated.
"""

from __future__ import annotations

from collections import defaultdict

from ..engine import MODES, benchmark_suite, case_by_name
from .records import MethodKey, Table1Record, method_rows, render_grid

__all__ = ["run_table1", "render_table1", "rounding_sweep", "render_sweep"]


def run_table1(
    sizes: tuple[int, ...] = (3, 5, 10, 15, 18),
    integer_sizes: tuple[int, ...] = (3, 5, 10),
    methods: list[MethodKey] | None = None,
    eq_smt_deadline: float = 60.0,
    validator: str = "sylvester",
    sigfigs: int = 10,
    keep_candidates: bool = False,
    fallback: bool = True,
    engine=None,
) -> tuple[list[Table1Record], dict]:
    """Run the full synthesis+validation grid.

    Returns the records plus (when ``keep_candidates``) a dict mapping
    ``(case, mode, method, backend)`` to the synthesized candidate —
    reused by the Figure 3 driver so the timing comparison runs on the
    *same* candidates. ``engine`` (a
    :class:`repro.service.CampaignEngine`; ``None`` runs in-process)
    carries the runner context: worker count, deadline, timing,
    journal, retries, stats. ``fallback=False`` disarms the
    validator degradation chains.
    """
    # Imported lazily: the runner's task specs import this package's
    # records module (see repro.runner.tasks).
    from ..runner import Table1Task
    from ..service.engine import CampaignEngine

    if methods is None:
        methods = method_rows()
    tasks = [
        Table1Task(
            case_name=case.name, size=case.size, mode=mode,
            method=key.method, backend=key.backend,
            eq_smt_deadline=eq_smt_deadline, validator=validator,
            sigfigs=sigfigs, keep_candidate=keep_candidates,
            fallback=fallback,
        )
        for case in benchmark_suite(sizes=sizes, integer_sizes=integer_sizes)
        for mode in MODES
        for key in methods
    ]
    outcomes = (engine or CampaignEngine()).run(tasks)
    records: list[Table1Record] = []
    candidates: dict = {}
    for task, outcome in zip(tasks, outcomes):
        record, candidate = outcome
        records.append(record)
        if keep_candidates and candidate is not None:
            candidates[
                (task.case_name, task.mode, task.method, task.backend)
            ] = candidate
    return records, candidates


def render_table1(records: list[Table1Record]) -> str:
    """Aggregate to the paper's layout: per (method, backend) row and per
    size column, 'avg synth time' and 'valid ratio'."""
    sizes = sorted({r.size for r in records})
    grouped: dict = defaultdict(list)
    for r in records:
        grouped[(r.method, r.backend, r.size)].append(r)
    headers = ["method", "solver"]
    for size in sizes:
        headers += [f"s{size} synth", f"s{size} valid"]
    rows = []
    seen_keys = dict.fromkeys((r.method, r.backend) for r in records)
    for method, backend in seen_keys:
        row = [method, backend or "-"]
        for size in sizes:
            bucket = grouped.get((method, backend, size), [])
            ok_times = [
                b.synth_time for b in bucket if b.synth_time is not None
            ]
            if not bucket:
                row += ["-", "-"]
                continue
            if not ok_times:
                row += ["TO", f"0/{len(bucket)}"]
                continue
            avg = sum(ok_times) / len(ok_times)
            n_valid = sum(1 for b in bucket if b.valid is True)
            row += [f"{avg:.3g}", f"{n_valid}/{len(bucket)}"]
        rows.append(row)
    return render_grid(
        headers, rows,
        title="Table I — synthesis and validation of Lyapunov functions",
    )


def rounding_sweep(
    candidates: dict,
    sigfig_levels: tuple[int, ...] = (10, 6, 4),
    validator: str = "sylvester",
    base_records: list[Table1Record] | None = None,
    fallback: bool = True,
    engine=None,
) -> list[Table1Record]:
    """Re-validate stored candidates at several rounding precisions.

    ``base_records`` lets the caller hand over validations already
    computed (the Table I grid validates at 10 significant figures):
    any ``(candidate, level)`` pair covered by a matching successful
    base record is reused instead of re-validated, so only the
    remaining levels actually run.
    """
    from ..runner import RevalidateTask
    from ..service.engine import CampaignEngine

    reuse: dict = {}
    for record in base_records or ():
        if record.synth_status == "ok":
            reuse[
                (record.case, record.mode, record.method, record.backend,
                 record.sigfigs)
            ] = record
    tasks = []
    task_index: dict = {}
    for (case_name, mode, method, backend), candidate in candidates.items():
        for sigfigs in sigfig_levels:
            key = (case_name, mode, method, backend, sigfigs)
            if key in reuse:
                continue
            task_index[key] = len(tasks)
            tasks.append(
                RevalidateTask(
                    case_name=case_name, size=case_by_name(case_name).size,
                    mode=mode, method=method, backend=backend,
                    candidate=candidate, sigfigs=sigfigs, validator=validator,
                    fallback=fallback,
                )
            )
    outcomes = (engine or CampaignEngine()).run(tasks)
    records = []
    for (case_name, mode, method, backend), _candidate in candidates.items():
        for sigfigs in sigfig_levels:
            key = (case_name, mode, method, backend, sigfigs)
            if key in reuse:
                records.append(reuse[key])
            else:
                records.append(outcomes[task_index[key]])
    return records


def render_sweep(records: list[Table1Record]) -> str:
    """Invalid-candidate counts per rounding level and per method."""
    levels = sorted({r.sigfigs for r in records}, reverse=True)
    methods = list(dict.fromkeys((r.method, r.backend) for r in records))
    headers = ["method", "solver"] + [f"invalid@{lvl}sf" for lvl in levels]
    rows = []
    for method, backend in methods:
        row = [method, backend or "-"]
        for level in levels:
            bucket = [
                r for r in records
                if (r.method, r.backend, r.sigfigs) == (method, backend, level)
            ]
            row.append(str(sum(1 for r in bucket if r.valid is False)))
        rows.append(row)
    totals = ["TOTAL", ""]
    for level in levels:
        totals.append(
            str(sum(1 for r in records if r.sigfigs == level and r.valid is False))
        )
    rows.append(totals)
    return render_grid(
        headers, rows, title="Rounding-precision sweep (invalid candidates)"
    )
