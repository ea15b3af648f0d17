"""Figure 3 driver: validation time across symbolic solvers.

The paper's Figure 3 compares the wall-clock cost of validating the same
candidate Lyapunov functions with different symbolic engines (SymPy's
``is_positive_definite``, an ad-hoc Sylvester implementation,
Mathematica, Z3, CVC5 — the latter ones also in a "+ det" variant).
Our validator registry plays the same roles (see
:mod:`repro.validate.validators`); this driver validates one shared
candidate set with every validator and renders cumulative times plus
the slowdown relative to the fastest (Sylvester — the paper's winner).

Search-based validators (``icp``/``icp+det``) and SymPy are far slower
on large instances; ``size_caps`` bounds the *plant* size each validator
is asked to handle, mirroring how the paper's per-solver timeouts show
up as missing/huge bars.
"""

from __future__ import annotations

from collections import defaultdict

from ..engine import case_by_name
from .records import Figure3Record, render_grid
from .table1 import run_table1

__all__ = ["DEFAULT_SIZE_CAPS", "run_figure3", "render_figure3"]

#: Box budget of the ``icp``/``icp+det`` validators in this sweep.
_ICP_MAX_BOXES = 150_000

DEFAULT_SIZE_CAPS = {
    "sylvester": 18,
    "gauss": 18,
    "ldl": 18,
    "sympy": 10,
    "icp": 3,
    "icp+det": 3,
}


def run_figure3(
    candidates: dict | None = None,
    validators: tuple[str, ...] = (
        "sylvester", "gauss", "ldl", "sympy", "icp", "icp+det",
    ),
    size_caps: dict | None = None,
    sizes: tuple[int, ...] = (3, 5, 10, 15, 18),
    fallback: bool = True,
    engine=None,
) -> list[Figure3Record]:
    """Validate a shared candidate set with every registered validator.

    Each (candidate, validator) pair is one runner task, so the slow
    search-based validators no longer serialize the sweep when
    the engine runs workers. ``engine`` (a
    :class:`repro.service.CampaignEngine`; ``None`` runs in-process)
    carries the runner context; ``fallback=False`` disarms the
    degradation chains.
    """
    import dataclasses

    from ..runner import Figure3Task
    from ..service.engine import CampaignEngine

    if engine is None:
        engine = CampaignEngine()
    if size_caps is None:
        size_caps = DEFAULT_SIZE_CAPS
    if candidates is None:
        # A representative, quick-to-synthesize candidate set: eq-num and
        # one LMI method per case/mode. The synthesis stage historically
        # ran without the per-task deadline (it only applies to the
        # validation sweep), so strip it from the shared engine.
        from .records import MethodKey

        _, candidates = run_table1(
            sizes=sizes,
            methods=[MethodKey("eq-num"), MethodKey("lmi", "shift")],
            keep_candidates=True,
            fallback=fallback,
            engine=dataclasses.replace(engine, task_deadline=None),
        )
    tasks = []
    for (case_name, mode, method, backend), candidate in candidates.items():
        case = case_by_name(case_name)
        for validator in validators:
            if case.size > size_caps.get(validator, 18):
                continue
            options = (
                {"max_boxes": _ICP_MAX_BOXES}
                if validator.startswith("icp")
                else {}
            )
            tasks.append(
                Figure3Task(
                    case_name=case_name, size=case.size, mode=mode,
                    method=method, backend=backend, candidate=candidate,
                    validator=validator, options=options, fallback=fallback,
                )
            )
    outcomes = engine.run(tasks)
    return [record for record in outcomes if record is not None]


def render_figure3(records: list[Figure3Record]) -> str:
    """Cumulative validation time per validator and per size, plus the
    slowdown relative to the Sylvester method (the paper's reference
point; our elimination-based checks beat it — see EXPERIMENTS.md)."""
    sizes = sorted({r.size for r in records})
    validators = []
    for r in records:
        if r.validator not in validators:
            validators.append(r.validator)
    cumulative: dict = defaultdict(float)
    counts: dict = defaultdict(int)
    for r in records:
        cumulative[(r.validator, r.size)] += r.time
        counts[(r.validator, r.size)] += 1
    headers = ["validator"] + [f"s{size} (s)" for size in sizes] + [
        "total (s)", "vs sylvester",
    ]
    sylvester_total = sum(
        cumulative[("sylvester", size)] for size in sizes
    ) or 1e-12
    rows = []
    for validator in validators:
        row = [validator]
        total = 0.0
        for size in sizes:
            if counts[(validator, size)]:
                value = cumulative[(validator, size)]
                total += value
                row.append(f"{value:.3g}")
            else:
                row.append("-")
        row.append(f"{total:.3g}")
        row.append(f"{total / sylvester_total:.1f}x")
        rows.append(row)
    return render_grid(
        headers, rows, title="Figure 3 — validation time per symbolic solver"
    )
