"""Section VI-B.2 driver: piecewise-quadratic synthesis for the switched
system, with both surface encodings, followed by exact validation.

Expected reproduction shape (and what the paper reports): the LMI
machinery always produces a *candidate*, but exact validation of the
switching-surface non-increase condition fails every time. Our run adds
one diagnosis the paper could not make: the deep-cut ellipsoid method
*proves* the LMI systems infeasible for the case-study references —
both operating modes have locally stable equilibria inside their own
regions, so no global piecewise-quadratic certificate can exist.
"""

from __future__ import annotations

from ..engine import case_by_name
from ..lyapunov import ENCODINGS
from .records import PiecewiseRecord, render_grid

__all__ = ["run_piecewise", "render_piecewise"]


def run_piecewise(
    case_names: tuple[str, ...] = ("size3", "size5"),
    encodings: tuple[str, ...] = ENCODINGS,
    max_iterations: int = 20_000,
    max_boxes: int = 6_000,
    conditions_scope: str = "surface",
    solver: str = "hybrid",
    oracle_batch: bool = True,
    engine=None,
) -> list[PiecewiseRecord]:
    """Run the synthesis+validation grid.

    ``solver`` picks the synthesis pipeline per task (``"hybrid"`` =
    tensorized ellipsoid burn-in + warm-started barrier polish,
    ``"ellipsoid"`` = certifying deep-cut method alone, ``"barrier"`` =
    level-shift candidate finder); ``oracle_batch=False`` falls back to
    the per-block differential separation oracle. ``engine`` (a
    :class:`repro.service.CampaignEngine`; ``None`` runs in-process)
    carries the runner context.
    """
    from ..runner import PiecewiseTask
    from ..service.engine import CampaignEngine

    tasks = [
        PiecewiseTask(
            case_name=name, size=case_by_name(name).size, encoding=encoding,
            max_iterations=max_iterations, max_boxes=max_boxes,
            conditions_scope=conditions_scope,
            solver=solver, oracle_batch=oracle_batch,
        )
        for name in case_names
        for encoding in encodings
    ]
    return (engine or CampaignEngine()).run(tasks)


def render_piecewise(records: list[PiecewiseRecord]) -> str:
    headers = [
        "case", "encoding", "solver", "candidate", "LMI verdict",
        "synth (s)", "validation", "failed conditions",
    ]
    rows = []
    for r in records:
        if r.lmi_feasible:
            verdict = "tolerance-feasible"
        elif r.proved_infeasible:
            verdict = "proved infeasible"
        else:
            verdict = "budget exhausted"
        rows.append(
            [
                r.case,
                r.encoding,
                r.solver,
                "best iterate",
                verdict,
                f"{r.synth_time:.3g}",
                {True: "VALID", False: "FAILED", None: "undecided"}[
                    r.validation_valid
                ],
                ", ".join(r.failed_conditions) or "-",
            ]
        )
    return render_grid(
        headers,
        rows,
        title=(
            "Piecewise-quadratic synthesis for the switched system "
            "(Sec. VI-B.2)"
        ),
    )
