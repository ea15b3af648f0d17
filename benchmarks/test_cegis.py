"""Benchmark harness for the CEGIS loop (the flipped negative result).

Times counterexample-guided synthesis end to end on the reduced case
studies and pins the loop's shape — iterations to a validated
certificate, accumulated cut counts:

* ``full`` synthesis at the attracting references must validate the
  3-, 5- and 10-state models in **one** round (the matrix encoding is
  exact; refinement has nothing to add);
* ``sampled`` synthesis on size3 must converge through genuine
  refinement (strictly more than one round, a nonzero cut budget) and
  still end validated — the loop earning its keep;
* the nominal size3 run must reproduce the paper's negative result as
  a round-1 infeasibility proof with zero cuts.

Wall-time pins are soft by default (warned past budget) and
only hard-fail past ``HARD_FACTOR`` times the budget, or at the budget
itself when ``REPRO_PERF_STRICT=1``.
"""

from __future__ import annotations

import os
import time
import warnings

import pytest

from repro.engine import attracting_reference, case_by_name, nominal_reference
from repro.lyapunov import cegis_piecewise

#: Wall-time budgets (s) per row, generous multiples of the measured
#: times on the development container (size3 full 0.5s, size5 full
#: 1.1s, size10 full 3.6s, size3 sampled 3.6s, size3 nominal 1.6s).
BUDGETS_S = {
    ("size3", "attracting", "full"): 15.0,
    ("size5", "attracting", "full"): 30.0,
    ("size10", "attracting", "full"): 90.0,
    ("size3", "attracting", "sampled"): 60.0,
    ("size3", "nominal", "full"): 30.0,
}
HARD_FACTOR = 4.0

_REFERENCES = {
    "nominal": nominal_reference,
    "attracting": attracting_reference,
}


def _run_row(case_name: str, regime: str, synthesis: str):
    case = case_by_name(case_name)
    system = case.switched_system(_REFERENCES[regime](case.plant))
    start = time.perf_counter()
    outcome = cegis_piecewise(
        system, synthesis=synthesis, max_iterations=60_000
    )
    elapsed = time.perf_counter() - start
    return outcome, elapsed


def _check_budget(row_key, elapsed: float) -> None:
    budget = BUDGETS_S[row_key]
    strict = bool(os.environ.get("REPRO_PERF_STRICT"))
    limit = budget if strict else HARD_FACTOR * budget
    if elapsed > budget:
        warnings.warn(
            f"cegis row {row_key} took {elapsed:.1f}s "
            f"(budget {budget:.0f}s)",
            stacklevel=2,
        )
    assert elapsed <= limit, (
        f"cegis row {row_key}: {elapsed:.1f}s exceeds "
        f"{'strict ' if strict else ''}limit {limit:.0f}s"
    )


def test_cegis_loop_shapes():
    """Run every row within its budget and pin the loop shapes."""
    for case_name, regime, synthesis in BUDGETS_S:
        outcome, elapsed = _run_row(case_name, regime, synthesis)
        _check_budget((case_name, regime, synthesis), elapsed)
        if regime == "nominal":
            # The paper's negative result: proved infeasible before
            # any refinement could happen.
            assert outcome.status == "infeasible"
            assert len(outcome.rounds) == 1 and outcome.cut_count == 0
        elif synthesis == "full":
            # Exact matrix encoding: nothing left for cuts to do.
            assert outcome.status == "validated"
            assert len(outcome.rounds) == 1 and outcome.cut_count == 0
        else:
            # Sampled synthesis converges through genuine refinement.
            assert outcome.status == "validated"
            assert len(outcome.rounds) > 1 and outcome.cut_count > 0


def test_cegis_digest_stability():
    """The provenance digest is a pure function of the loop structure:
    two fresh size3 campaigns must agree bit for bit."""
    first, _ = _run_row("size3", "attracting", "full")
    second, _ = _run_row("size3", "attracting", "full")
    assert first.digest() == second.digest()
