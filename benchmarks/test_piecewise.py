"""Benchmark harness for the Section VI-B.2 negative result.

Times the piecewise-quadratic LMI synthesis per encoding and pins the
paper's observation: candidates are produced (as tolerance/best-iterate
solutions), yet exact validation of the switching-surface condition
fails — plus the ellipsoid burn-in's float claim that the case-study
LMI system is empty in its search ball.

The headline pin is the tensorized-pipeline speedup: the hybrid solver
(compiled separation oracle + warm-started barrier polish) must run the
quick-config size-3 synthesis at least 5x faster than the seed
revision's per-block ellipsoid loop, per encoding, with the validation
verdicts unchanged. ``REPRO_PERF_SOFT=1`` (shared/noisy CI runners)
relaxes the 5x pin to a warning but still hard-fails below 2.5x — a
regression of more than 2x from the pinned baseline.
"""

from __future__ import annotations

import os
import time
import warnings

import pytest

from repro.engine import case_by_name
from repro.lyapunov import ENCODINGS, synthesize_piecewise
from repro.validate import validate_piecewise

#: Seed-revision synthesis wall times (s) for the quick experiment
#: config — size3, max_iterations=6000 — measured with the per-block
#: Python separation oracle this PR replaced. The 5x pin is against
#: these numbers on the same config.
SEED_SYNTH_S = {"continuous": 9.088, "relaxed": 23.26}
PIN_SPEEDUP = 5.0
#: REPRO_PERF_SOFT floor: >2x regression from the pinned 5x baseline.
SOFT_FLOOR_SPEEDUP = 2.5


@pytest.fixture(scope="module")
def switched_size3():
    case = case_by_name("size3")
    return case.switched_system(case.reference())


def test_hybrid_pipeline_speedup_pin(switched_size3):
    """The tentpole pin: >=5x over the seed per-block oracle, both
    encodings, verdicts preserved."""
    soft = bool(os.environ.get("REPRO_PERF_SOFT"))
    for encoding in ENCODINGS:
        started = time.perf_counter()
        candidate = synthesize_piecewise(
            switched_size3, encoding=encoding, max_iterations=6_000
        )
        measured = time.perf_counter() - started
        speedup = SEED_SYNTH_S[encoding] / measured
        # The negative result is solver-independent: candidates still
        # come back as best iterates and still fail exact validation.
        assert not candidate.feasible, encoding
        report = validate_piecewise(
            candidate, switched_size3,
            conditions_scope="surface", max_boxes=4_000,
        )
        assert report.valid is not True, encoding

        floor = SOFT_FLOOR_SPEEDUP if soft else PIN_SPEEDUP
        if soft and speedup < PIN_SPEEDUP:
            warnings.warn(
                f"piecewise[{encoding}]: speedup {speedup:.1f}x below "
                f"the {PIN_SPEEDUP:g}x pin (soft mode, floor "
                f"{SOFT_FLOOR_SPEEDUP:g}x)",
                stacklevel=1,
            )
        assert speedup >= floor, (
            f"piecewise[{encoding}]: {measured:.2f}s is only "
            f"{speedup:.1f}x over the seed {SEED_SYNTH_S[encoding]:.2f}s "
            f"(floor {floor:g}x)"
        )


@pytest.mark.parametrize("encoding", ENCODINGS)
def test_piecewise_synthesis(benchmark, switched_size3, encoding):
    candidate = benchmark.pedantic(
        synthesize_piecewise,
        args=(switched_size3,),
        kwargs={"encoding": encoding, "max_iterations": 4_000},
        rounds=1,
        iterations=1,
    )
    # A candidate always comes back (best iterate), like the paper's
    # numerical solvers.
    assert candidate.p[0].shape == candidate.p[1].shape


def test_piecewise_surface_validation(benchmark, switched_size3):
    candidate = synthesize_piecewise(
        switched_size3, encoding="continuous", max_iterations=4_000
    )
    report = benchmark.pedantic(
        validate_piecewise,
        args=(candidate, switched_size3),
        kwargs={"conditions_scope": "surface", "max_boxes": 4_000},
        rounds=1,
        iterations=1,
    )
    # The paper's result: the surface condition always fails validation.
    assert report.valid is False
    assert any(
        name.startswith("surface-nonincrease")
        for name in report.failed_conditions
    )


@pytest.mark.parametrize("encoding", ENCODINGS)
def test_shape_validation_always_fails(switched_size3, encoding):
    """Both encodings, same outcome — matching the paper verbatim.

    A near-zero candidate would make the surface difference vanish
    identically (trivially 'valid' but meaningless), so nontriviality is
    asserted first."""
    import numpy as np

    candidate = synthesize_piecewise(
        switched_size3, encoding=encoding, max_iterations=8_000
    )
    assert np.abs(candidate.p[0]).max() > 1e-6  # nontrivial candidate
    report = validate_piecewise(
        candidate, switched_size3, conditions_scope="surface", max_boxes=4_000
    )
    assert report.valid is not True


def test_shape_lmi_system_is_provably_infeasible(switched_size3):
    """With the nominal reference both modes own a locally stable
    equilibrium. The ellipsoid burn-in's deep cut then claims the search
    ball empty, and the pipeline never polishes a claimed-empty system.
    The claim is computed in floats, so it is evidence, not a proof; the
    exact proof that no certificate exists is the equilibrium witness
    behind the CEGIS nominal rows (``bistability_witness``)."""
    candidate = synthesize_piecewise(
        switched_size3, encoding="continuous", max_iterations=30_000
    )
    assert not candidate.feasible
    assert candidate.info["proved_infeasible"]
