"""Table II driver: robust-region synthesis and perturbation radii.

For each of the largest benchmarks (sizes 15 and 18 in the paper), each
operating mode, and every *numerical* synthesis method (``eq-smt`` is
excluded, as in the paper): synthesize a Lyapunov candidate, validate it
exactly, and when valid compute

* the robust level ``k_i`` (exact QP on the switching surface),
* the volume of the truncated ellipsoid ``W_i`` ("vol" column),
* the reference-perturbation radius ``epsilon_i``.

Invalid candidates produce dash entries — the paper's Table II has the
same holes (LMIalpha+/Mosek at size 18).
"""

from __future__ import annotations

from ..engine import MODES, case_by_name
from .records import MethodKey, Table2Record, method_rows, render_grid

__all__ = ["run_table2", "render_table2"]


def run_table2(
    case_names: tuple[str, ...] = ("size15", "size18"),
    methods: list[MethodKey] | None = None,
    sigfigs: int = 10,
    validator: str = "sylvester",
    fallback: bool = True,
    engine=None,
) -> list[Table2Record]:
    """One runner task per (case, mode, method) cell; the shared
    per-(case, mode) geometry (switching surface, exact equilibrium) is
    rebuilt once per worker process (see
    :func:`repro.runner.tasks._table2_context`). ``engine`` (a
    :class:`repro.service.CampaignEngine`; ``None`` runs in-process)
    carries the runner context."""
    from ..runner import Table2Task
    from ..service.engine import CampaignEngine

    if methods is None:
        methods = method_rows(include_eq_smt=False)
    tasks = [
        Table2Task(
            case_name=name, size=case_by_name(name).size, mode=mode,
            method=key.method, backend=key.backend,
            sigfigs=sigfigs, validator=validator, fallback=fallback,
        )
        for name in case_names
        for mode in MODES
        for key in methods
    ]
    return (engine or CampaignEngine()).run(tasks)


def render_table2(records: list[Table2Record]) -> str:
    headers = [
        "case", "mode", "method", "solver",
        "time (s)", "k", "vol", "eps", "qp-case",
    ]
    rows = []
    for r in records:
        if r.skipped_reason:
            rows.append(
                [r.case, str(r.mode), r.method, r.backend or "-",
                 "-", "-", "-", "-", r.skipped_reason]
            )
            continue
        rows.append(
            [
                r.case, str(r.mode), r.method, r.backend or "-",
                f"{r.time:.3g}",
                f"{r.k:.3g}",
                f"{r.volume:.2g}",
                f"{r.epsilon:.2g}",
                r.region_case,
            ]
        )
    return render_grid(
        headers, rows,
        title="Table II — synthesis of robust regions",
    )
