"""Picklable experiment tasks (the runner's shared-nothing protocol).

A task pickles as a handful of strings/numbers (plus, for
validation-only tasks, the candidate being validated): workers resolve
benchmark cases *by name* via :func:`repro.engine.case_by_name` and
rebuild matrices locally, so nothing heavyweight crosses the pipe.
Per-process ``lru_cache``s (the benchmark ladder, the Table II
mode context) make the rebuilds one-time costs per worker.

Import note: this module imports :mod:`repro.experiments.records`
(pure dataclasses), while the experiment *drivers* import the runner
lazily inside their ``run_*`` functions — that keeps the
``experiments -> runner -> experiments.records`` chain acyclic.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..engine import REGIME_MARGINS, case_by_name, mode_gains, nominal_reference
from ..exact import RationalMatrix, solve_vector, to_fraction
from ..experiments.records import (
    CegisRecord,
    Figure3Record,
    PiecewiseRecord,
    Table1Record,
    Table2Record,
)
from ..lyapunov import SynthesisTimeout, synthesize, synthesize_piecewise
from ..sdp import LmiInfeasibleError
from ..systems import closed_loop_matrices
from ..validate import validate_candidate, validate_piecewise
from .core import Task

__all__ = [
    "Table1Task",
    "RevalidateTask",
    "Figure3Task",
    "Table2Task",
    "PiecewiseTask",
    "CegisTask",
    "FuzzTask",
]


def _candidate_fingerprint(candidate) -> dict:
    """The stable identity of a candidate for journal fingerprints.

    ``P`` (deterministically synthesized), the method and the backend
    identify the candidate; measured wall times and solver diagnostics
    (``synthesis_time``, ``info``) are volatile across runs and must
    not perturb the fingerprint, or resumed campaigns would never
    replay validation tasks.
    """
    return {
        "p": candidate.p.tolist(),
        "method": candidate.method,
        "backend": candidate.backend,
    }


@lru_cache(maxsize=64)
def _exact_mode_matrix(case_name: str, mode: int) -> RationalMatrix:
    """Per-process cache of a case's exact closed-loop mode matrix.

    Every validation task of one worker shares a single
    :class:`RationalMatrix` per ``(case, mode)``; since the exact
    kernels memoize denominator-clearing on the (hashable) matrix,
    this also keeps :func:`repro.exact.kernel_cache_info` hitting
    across tasks instead of re-normalizing per validation.
    """
    case = case_by_name(case_name)
    return RationalMatrix.from_numpy(
        np.asarray(case.mode_matrix(mode), dtype=float)
    )


class Table1Task(Task):
    """One Table I cell: synthesize a candidate, validate it exactly."""

    def __init__(
        self, case_name, size, mode, method, backend,
        eq_smt_deadline, validator, sigfigs, keep_candidate=False,
        fallback=True,
    ):
        self.case_name = case_name
        self.size = size
        self.mode = mode
        self.method = method
        self.backend = backend
        self.eq_smt_deadline = eq_smt_deadline
        self.validator = validator
        self.sigfigs = sigfigs
        self.keep_candidate = keep_candidate
        self.fallback = fallback

    def run(self):
        case = case_by_name(self.case_name)
        a = case.mode_matrix(self.mode)
        try:
            candidate = synthesize(
                self.method, a, backend=self.backend or "ipm",
                deadline=(
                    self.eq_smt_deadline if self.method == "eq-smt" else None
                ),
            )
        except SynthesisTimeout:
            return self._failed("timeout")
        except (LmiInfeasibleError, ValueError):
            return self._failed("infeasible")
        report = validate_candidate(
            candidate, a, sigfigs=self.sigfigs, validator=self.validator,
            exact_a=_exact_mode_matrix(self.case_name, self.mode),
            fallback=self.fallback,
        )
        record = Table1Record(
            case=self.case_name, size=self.size, mode=self.mode,
            method=self.method, backend=self.backend,
            synth_time=candidate.synthesis_time, synth_status="ok",
            valid=report.valid, validation_time=report.total_time,
            sigfigs=self.sigfigs, degraded=report.degraded,
        )
        return record, (candidate if self.keep_candidate else None)

    def _failed(self, status):
        return Table1Record(
            case=self.case_name, size=self.size, mode=self.mode,
            method=self.method, backend=self.backend,
            synth_time=None, synth_status=status,
            valid=None, validation_time=None, sigfigs=self.sigfigs,
        ), None

    def on_timeout(self, elapsed):
        return self._failed("timeout")

    def on_error(self, message):
        return self._failed("error")


class RevalidateTask(Task):
    """Re-validate an existing candidate at a different rounding level."""

    def __init__(
        self, case_name, size, mode, method, backend,
        candidate, sigfigs, validator, fallback=True,
    ):
        self.case_name = case_name
        self.size = size
        self.mode = mode
        self.method = method
        self.backend = backend
        self.candidate = candidate
        self.sigfigs = sigfigs
        self.validator = validator
        self.fallback = fallback

    def fingerprint_spec(self):
        fields = {
            k: v for k, v in vars(self).items() if not k.startswith("_")
        }
        fields["candidate"] = _candidate_fingerprint(fields["candidate"])
        return type(self).__name__, fields

    def run(self):
        case = case_by_name(self.case_name)
        a = case.mode_matrix(self.mode)
        report = validate_candidate(
            self.candidate, a, sigfigs=self.sigfigs, validator=self.validator,
            exact_a=_exact_mode_matrix(self.case_name, self.mode),
            fallback=self.fallback,
        )
        return self._record(
            report.valid, report.total_time, degraded=report.degraded
        )

    def _record(self, valid, validation_time, degraded=()):
        return Table1Record(
            case=self.case_name, size=self.size, mode=self.mode,
            method=self.method, backend=self.backend,
            synth_time=self.candidate.synthesis_time, synth_status="ok",
            valid=valid, validation_time=validation_time,
            sigfigs=self.sigfigs, degraded=list(degraded),
        )

    def on_timeout(self, elapsed):
        return self._record(None, None)

    def on_error(self, message):
        return self._record(None, None)


class Figure3Task(Task):
    """Validate one shared candidate with one registered validator."""

    def __init__(
        self, case_name, size, mode, method, backend,
        candidate, validator, options, fallback=True,
    ):
        self.case_name = case_name
        self.size = size
        self.mode = mode
        self.method = method
        self.backend = backend
        self.candidate = candidate
        self.validator = validator
        self.options = options
        self.fallback = fallback

    def fingerprint_spec(self):
        fields = {
            k: v for k, v in vars(self).items() if not k.startswith("_")
        }
        fields["candidate"] = _candidate_fingerprint(fields["candidate"])
        return type(self).__name__, fields

    def run(self):
        case = case_by_name(self.case_name)
        a = case.mode_matrix(self.mode)
        report = validate_candidate(
            self.candidate, a, validator=self.validator,
            exact_a=_exact_mode_matrix(self.case_name, self.mode),
            fallback=self.fallback,
            **self.options,
        )
        return Figure3Record(
            case=self.case_name, size=self.size, mode=self.mode,
            method=self.method, backend=self.backend,
            validator=self.validator,
            valid=report.valid,
            time=report.total_time,
            degraded=report.degraded,
        )


@lru_cache(maxsize=64)
def _table2_context(case_name: str, mode: int):
    """Per-process cache of the Table II mode geometry (flow, switching
    halfspace, exact equilibrium, surface geometry)."""
    case = case_by_name(case_name)
    r = case.reference()
    from ..robust import surface_geometry

    system = case.switched_system(r)
    flow = system.modes[mode].flow
    halfspace = system.modes[mode].region.halfspaces[0]
    a_exact = RationalMatrix.from_numpy(flow.a)
    w_eq = solve_vector(a_exact, [-to_fraction(x) for x in flow.b.tolist()])
    w_eq_float = np.array([float(x) for x in w_eq])
    _, b_cl = closed_loop_matrices(case.plant, mode_gains(mode))
    geometry = surface_geometry(halfspace, flow)
    return case, flow, halfspace, w_eq, w_eq_float, b_cl, geometry, a_exact


class Table2Task(Task):
    """One Table II cell: synthesis, validation, robust region, radii."""

    def __init__(self, case_name, size, mode, method, backend,
                 sigfigs, validator, fallback=True):
        self.case_name = case_name
        self.size = size
        self.mode = mode
        self.method = method
        self.backend = backend
        self.sigfigs = sigfigs
        self.validator = validator
        self.fallback = fallback

    def _skipped(self, reason):
        return Table2Record(
            case=self.case_name, size=self.size, mode=self.mode,
            method=self.method, backend=self.backend,
            time=None, volume=None, log10_volume=None,
            epsilon=None, k=None, region_case=None,
            skipped_reason=reason,
        )

    def on_timeout(self, elapsed):
        return self._skipped("runner deadline exceeded")

    def on_error(self, message):
        return self._skipped("task error")

    def run(self):
        import time as _time

        from ..robust import (
            EpsilonInputs,
            epsilon_radius,
            log10_truncated_ellipsoid_volume,
            synthesize_robust_level,
            truncated_ellipsoid_volume,
        )

        _case, flow, halfspace, w_eq, w_eq_float, b_cl, geometry, a_exact = (
            _table2_context(self.case_name, self.mode)
        )
        try:
            candidate = synthesize(
                self.method, flow.a, backend=self.backend or "ipm"
            )
        except (LmiInfeasibleError, ValueError):
            return self._skipped("synthesis failed")
        report = validate_candidate(
            candidate, flow.a, sigfigs=self.sigfigs, validator=self.validator,
            exact_a=a_exact, fallback=self.fallback,
        )
        if report.valid is not True:
            # The paper leaves such cells empty (LMIalpha+/Mosek, size 18).
            return self._skipped("candidate not validated")
        base = dict(
            case=self.case_name, size=self.size, mode=self.mode,
            method=self.method, backend=self.backend,
        )

        def epsilon(k):
            inputs = EpsilonInputs(
                flow_a=flow.a, b_cl=b_cl, p=candidate.p,
                k=min(k, 1e300), w_eq=w_eq_float, geometry=geometry,
            )
            return epsilon_radius(inputs)

        start = _time.perf_counter()
        p_exact = candidate.exact_p(self.sigfigs)
        region = synthesize_robust_level(flow, halfspace, p_exact, w_eq=w_eq)
        elapsed = _time.perf_counter() - start
        if not region.bounded:
            return Table2Record(
                **base, time=elapsed, volume=float("inf"),
                log10_volume=float("inf"), epsilon=epsilon(float("inf")),
                k=float("inf"), region_case=region.case,
            )
        k_float = region.k_float()
        normal = halfspace.normal_float()
        volume = truncated_ellipsoid_volume(
            candidate.p, k_float, w_eq_float, normal, float(halfspace.offset)
        )
        log_volume = log10_truncated_ellipsoid_volume(
            candidate.p, k_float, w_eq_float, normal, float(halfspace.offset)
        )
        return Table2Record(
            **base, time=elapsed, volume=volume, log10_volume=log_volume,
            epsilon=epsilon(k_float), k=k_float, region_case=region.case,
        )


class PiecewiseTask(Task):
    """One piecewise synthesis+validation attempt (Sec. VI-B.2)."""

    def __init__(self, case_name, size, encoding, max_iterations,
                 max_boxes):
        self.case_name = case_name
        self.size = size
        self.encoding = encoding
        self.max_iterations = max_iterations
        self.max_boxes = max_boxes

    def run(self):
        case = case_by_name(self.case_name)
        system = case.switched_system(case.reference())
        candidate = synthesize_piecewise(
            system, encoding=self.encoding,
            max_iterations=self.max_iterations,
        )
        report = validate_piecewise(
            candidate,
            system,
            conditions_scope="surface",
            max_boxes=self.max_boxes,
        )
        return PiecewiseRecord(
            case=self.case_name,
            size=self.size,
            encoding=self.encoding,
            lmi_feasible=candidate.feasible,
            proved_infeasible=bool(candidate.info.get("proved_infeasible")),
            iterations=candidate.iterations,
            synth_time=candidate.synthesis_time,
            validation_valid=report.valid,
            failed_conditions=report.failed_conditions,
            validation_time=report.time,
        )

    def _aborted(self, reason, elapsed):
        return PiecewiseRecord(
            case=self.case_name, size=self.size, encoding=self.encoding,
            lmi_feasible=False, proved_infeasible=False, iterations=0,
            synth_time=elapsed, validation_valid=None,
            failed_conditions=[reason], validation_time=0.0,
        )

    def on_timeout(self, elapsed):
        return self._aborted("runner deadline exceeded", elapsed)

    def on_error(self, message):
        return self._aborted("task error", 0.0)


class CegisTask(Task):
    """One CEGIS campaign on a benchmark case at a reference regime.

    Pickles as plain scalars; the worker rebuilds the switched system
    from the case name and the regime's reference margin
    (:data:`repro.engine.REGIME_MARGINS`) and runs
    :func:`repro.lyapunov.cegis_piecewise`. The record carries the
    deterministic provenance digest, so journal fingerprints (and the
    CI smoke golden-diff) are stable across reruns.
    """

    def __init__(self, case_name, size, regime, synthesis="sampled",
                 snap="structured", max_rounds=40, max_iterations=30_000):
        self.case_name = case_name
        self.size = size
        self.regime = regime
        self.synthesis = synthesis
        self.snap = snap
        self.max_rounds = max_rounds
        self.max_iterations = max_iterations

    def run(self):
        from ..lyapunov import cegis_piecewise

        case = case_by_name(self.case_name)
        r = nominal_reference(
            case.plant, margin=REGIME_MARGINS[self.regime]
        )
        system = case.switched_system(r)
        outcome = cegis_piecewise(
            system,
            synthesis=self.synthesis,
            snap=self.snap,
            max_rounds=self.max_rounds,
            max_iterations=self.max_iterations,
        )
        last = outcome.rounds[-1] if outcome.rounds else None
        failed = []
        if last is not None and not outcome.validated:
            failed = [
                name for name, verdict in sorted(last.checks.items())
                if verdict is not True
            ]
        return CegisRecord(
            case=self.case_name,
            size=self.size,
            regime=self.regime,
            synthesis=self.synthesis,
            snap=self.snap,
            status=outcome.status,
            rounds=len(outcome.rounds),
            cuts=outcome.cut_count,
            validated=outcome.validated,
            proved_infeasible=outcome.status == "infeasible",
            synth_time=sum(r.synth_time for r in outcome.rounds),
            verify_time=sum(r.verify_time for r in outcome.rounds),
            total_time=outcome.total_time,
            digest=outcome.digest(),
            failed_checks=failed,
        )

    def _aborted(self, reason, elapsed):
        return CegisRecord(
            case=self.case_name, size=self.size, regime=self.regime,
            synthesis=self.synthesis, snap=self.snap,
            status="aborted", rounds=0, cuts=0,
            validated=False, proved_infeasible=False,
            synth_time=elapsed, verify_time=0.0,
            total_time=elapsed, digest="", failed_checks=[reason],
        )

    def on_timeout(self, elapsed):
        return self._aborted("runner deadline exceeded", elapsed)

    def on_error(self, message):
        return self._aborted(f"task error: {message}", 0.0)


class FuzzTask(Task):
    """One oracle-fuzz case: regenerate a spec'd system, run the battery.

    The task pickles as ``(kind, n, seed)`` plus the profile's plain-dict
    spec — the system itself is deterministically regenerated in the
    worker (:func:`repro.oracle.generate_system`), so nothing
    matrix-shaped crosses the pipe and the journal fingerprint is the
    spec itself.  The resulting :class:`~repro.oracle.FuzzRecord`
    deliberately carries no wall-clock fields, which is what makes two
    same-seed campaign journals byte-identical (the determinism test's
    contract).
    """

    def __init__(self, kind, n, seed, profile=None):
        self.kind = kind
        self.n = n
        self.seed = seed
        self.profile = dict(profile) if profile else None

    def _profile(self):
        if self.profile is None:
            return None
        from ..oracle import FuzzProfile

        return FuzzProfile(**{
            k: tuple(v) if isinstance(v, list) else v
            for k, v in self.profile.items()
        })

    def run(self):
        from ..oracle import (
            CEGIS_KINDS,
            check_cegis_scenario,
            check_system,
            generate_system,
        )

        if self.kind in CEGIS_KINDS:
            return check_cegis_scenario(self.kind, self.n, self.seed)
        system = generate_system(self.kind, self.n, self.seed)
        return check_system(system, self._profile())

    def _aborted(self, message):
        from ..oracle.records import FuzzRecord

        return FuzzRecord(
            kind=self.kind, n=self.n, seed=self.seed,
            stable=None, provenance="aborted",
            harness_errors=[message],
        )

    def on_timeout(self, elapsed):
        # No elapsed time in the record: FuzzRecords must stay
        # deterministic functions of the spec (see the class docstring).
        return self._aborted("runner deadline exceeded")

    def on_error(self, message):
        return self._aborted(f"task error: {message}")
