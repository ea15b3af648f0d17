"""CEGIS driver: the refinement loop the paper's Section VI-B.2 lacked.

The piecewise experiment (:mod:`repro.experiments.piecewise`) ends
where the paper ends: candidates always exist, exact validation always
fails, and the ellipsoid method proves *why* (the nominal references
are bistable). This driver runs the counterexample-guided loop of
:mod:`repro.lyapunov.cegis` over both reference regimes:

* ``nominal`` — the paper's references; the certifying synthesizer
  proves the LMI infeasible at iteration 0 with zero cuts (the pinned
  negative result, now a one-row regression);
* ``attracting`` — references with the guard margin pushed negative
  (:data:`repro.engine.ATTRACTING_MARGIN`), where the loop converges
  to certificates whose every condition is checked exactly (Sylvester
  on the integer kernels) on the reduced models.

Each row reports the loop status, round/cut counts, phase timings and
the deterministic provenance digest (the CI smoke job golden-diffs it).
"""

from __future__ import annotations

from ..engine import case_by_name
from .records import CegisRecord, render_grid

__all__ = ["run_cegis", "render_cegis", "DEFAULT_GRID"]

#: (regime, synthesis) cells of the default experiment grid. The
#: sampled loop only runs at the attracting regime — at the nominal one
#: the sampled relaxation is feasible but no certificate exists, so the
#: loop would spin its full budget refuting snapshots of an empty set;
#: the full-matrix row already proves that emptiness in round 1.
DEFAULT_GRID = (
    ("nominal", "full"),
    ("attracting", "full"),
    ("attracting", "sampled"),
)


def run_cegis(
    case_names: tuple[str, ...] = ("size3", "size5"),
    grid: tuple = DEFAULT_GRID,
    snap: str = "structured",
    max_rounds: int = 40,
    max_iterations: int = 30_000,
    engine=None,
) -> list[CegisRecord]:
    """Run the CEGIS grid as a resumable campaign.

    Every ``(case, regime, synthesis)`` cell is one
    :class:`~repro.runner.CegisTask`; ``engine`` (a
    :class:`repro.service.CampaignEngine`; ``None`` runs in-process)
    carries the runner context, as for the other drivers.
    """
    from ..runner import CegisTask
    from ..service.engine import CampaignEngine

    tasks = [
        CegisTask(
            case_name=name, size=case_by_name(name).size,
            regime=regime, synthesis=synthesis, snap=snap,
            max_rounds=max_rounds, max_iterations=max_iterations,
        )
        for name in case_names
        for regime, synthesis in grid
    ]
    return (engine or CampaignEngine()).run(tasks)


def render_cegis(records: list[CegisRecord]) -> str:
    headers = [
        "case", "regime", "synthesis", "status", "rounds", "cuts",
        "synth (s)", "verify (s)", "failed checks", "digest",
    ]
    rows = []
    for r in records:
        rows.append(
            [
                r.case,
                r.regime,
                r.synthesis,
                r.status.upper() if r.validated else r.status,
                r.rounds,
                r.cuts,
                f"{r.synth_time:.3g}",
                f"{r.verify_time:.3g}",
                ", ".join(r.failed_checks) or "-",
                r.digest[:12] if r.digest else "-",
            ]
        )
    return render_grid(
        headers,
        rows,
        title=(
            "CEGIS piecewise certificates "
            "(counterexample-guided refinement of Sec. VI-B.2)"
        ),
    )
