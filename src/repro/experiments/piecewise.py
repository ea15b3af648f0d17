"""Section VI-B.2 driver: piecewise-quadratic synthesis for the switched
system, with both surface encodings, followed by exact validation.

Expected reproduction shape (and what the paper reports): the LMI
machinery always produces a *candidate*, but exact validation of the
switching-surface non-increase condition fails every time. The table's
``LMI verdict`` adds the synthesizer's own view: ``empty (float)`` when
the deep-cut ellipsoid burn-in claims the search ball empty. That claim
is computed in floats and is no proof. The proof that no global
piecewise-quadratic certificate exists is exact and lives in the
``cegis`` experiment: at the nominal references both operating modes
keep a locally stable equilibrium inside their own region, and the
``nominal`` rows read ``infeasible`` from that equilibrium witness
(:func:`repro.lyapunov.bistability_witness`).
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
    engine=None,
) -> list[PiecewiseRecord]:
    """Run the synthesis+validation grid.

    ``engine`` (a :class:`repro.service.CampaignEngine`; ``None`` runs
    in-process) carries the runner context.
    """
    from ..runner import PiecewiseTask
    from ..service.engine import CampaignEngine

    tasks = [
        PiecewiseTask(
            case_name=name, size=case_by_name(name).size, encoding=encoding,
            max_iterations=max_iterations, max_boxes=max_boxes,
        )
        for name in case_names
        for encoding in encodings
    ]
    return (engine or CampaignEngine()).run(tasks)


def render_piecewise(records: list[PiecewiseRecord]) -> str:
    headers = [
        "case", "encoding", "candidate", "LMI verdict",
        "synth (s)", "validation", "failed conditions",
    ]
    rows = []
    for r in records:
        if r.lmi_feasible:
            verdict = "tolerance-feasible"
        elif r.proved_infeasible:
            verdict = "empty (float)"
        else:
            verdict = "budget exhausted"
        rows.append(
            [
                r.case,
                r.encoding,
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
