"""Tests for the validation pipeline (repro.validate)."""

import numpy as np
import pytest

from repro.exact import RationalMatrix
from repro.lyapunov import LyapunovCandidate, synthesize
from repro.validate import (
    VALIDATORS,
    ValidationReport,
    lie_derivative_exact,
    run_validator,
    validate_candidate,
)

EXACT_VALIDATORS = ["sylvester", "gauss", "ldl", "sympy"]
ALL_VALIDATORS = EXACT_VALIDATORS + ["icp", "icp+det"]
#: One option each validator takes besides the matrix.
KNOWN_OPTION = {
    "sylvester": {"backend": "int"},
    "gauss": {"backend": "int"},
    "ldl": {"backend": "fraction"},
    "sympy": {"fallback": False},
    "icp": {"max_boxes": 50_000},
    "icp+det": {"delta": 1e-6},
}


def stable_matrix(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    return a - (np.linalg.eigvals(a).real.max() + 0.5) * np.eye(n)


class TestRunValidator:
    @pytest.mark.parametrize("name", ALL_VALIDATORS)
    def test_accepts_pd(self, name):
        result = run_validator(name, RationalMatrix([[2, 1], [1, 2]]))
        assert result.valid is True
        assert result.time >= 0
        assert result.counterexample is None

    @pytest.mark.parametrize("name", ALL_VALIDATORS)
    def test_rejects_indefinite_with_witness(self, name):
        m = RationalMatrix([[1, 2], [2, 1]])
        result = run_validator(name, m)
        assert result.valid is False
        assert result.counterexample is not None
        assert m.quadratic_form(result.counterexample) <= 0

    @pytest.mark.parametrize("name", ALL_VALIDATORS)
    def test_unknown_option_raises(self, name):
        # Escalation to sympy must not swallow a misspelled option.
        m = RationalMatrix([[2, 1], [1, 2]])
        assert run_validator(name, m, **KNOWN_OPTION[name]).valid is True
        with pytest.raises(TypeError, match="typo_backend"):
            run_validator(name, m, typo_backend="int")

    def test_unknown_validator(self):
        with pytest.raises(KeyError):
            run_validator("mathematica", RationalMatrix([[1]]))

    def test_registry_contents(self):
        assert set(VALIDATORS) == {
            "sylvester", "gauss", "ldl", "sympy", "icp", "icp+det",
        }

    def test_icp_refutes_singular_with_dyadic_null_vector(self):
        # q(w) = (w0 - w1)^2 vanishes at the corner (1, 1): the exact
        # witness check refutes strict definiteness immediately.
        result = run_validator("icp", RationalMatrix([[1, -1], [-1, 1]]))
        assert result.valid is False

    def test_icp_budget_gives_unknown(self):
        # q(w) = (3 w0 - w1)^2 vanishes only at the non-dyadic w0 = 1/3
        # on the face w1 = 1: ICP can neither refute nor verify.
        m = RationalMatrix([[9, -3], [-3, 1]])
        result = run_validator("icp", m, max_boxes=2_000)
        assert result.valid is None

    def test_icp_det_decides_singular(self):
        m = RationalMatrix([[9, -3], [-3, 1]])
        result = run_validator("icp+det", m)
        assert result.valid is False


class TestLieDerivative:
    def test_exact_formula(self):
        a = RationalMatrix([[-1, 0], [0, -2]])
        p = RationalMatrix([[1, 0], [0, 1]])
        lie = lie_derivative_exact(p, a)
        assert lie == RationalMatrix([[-2, 0], [0, -4]])


class TestValidateCandidate:
    def test_valid_candidate_passes(self):
        a = stable_matrix(4, seed=1)
        candidate = synthesize("eq-num", a)
        report = validate_candidate(candidate, a)
        assert report.valid is True
        assert report.total_time > 0
        assert report.positivity.valid and report.decrease.valid

    def test_invalid_candidate_fails_with_short_circuit(self):
        a = -np.eye(2)
        bogus = LyapunovCandidate(-np.eye(2), method="bogus")
        report = validate_candidate(bogus, a)
        assert report.valid is False
        assert report.positivity.valid is False
        assert report.decrease.extra.get("skipped")

    def test_decrease_failure_detected(self):
        # P is PD but V increases along the unstable direction.
        a = np.diag([1.0, -2.0])
        candidate = LyapunovCandidate(np.eye(2), method="bogus")
        report = validate_candidate(candidate, a)
        assert report.positivity.valid is True
        assert report.decrease.valid is False
        assert report.valid is False

    def test_aggressive_rounding_can_invalidate(self):
        """The paper's robustness observation: rounding at too few
        significant figures can break validity."""
        a = stable_matrix(6, seed=3)
        # Scale A so the Lyapunov solution has small margins.
        candidate = synthesize("eq-num", a)
        report10 = validate_candidate(candidate, a, sigfigs=10)
        assert report10.valid is True
        # At 1 significant figure the decrease margin usually dies; we
        # only assert the pipeline runs and produces a verdict.
        report1 = validate_candidate(candidate, a, sigfigs=1)
        assert report1.valid in (True, False)

    def test_dimension_mismatch(self):
        candidate = LyapunovCandidate(np.eye(2), method="x")
        with pytest.raises(ValueError):
            validate_candidate(candidate, -np.eye(3))

    @pytest.mark.parametrize("validator", EXACT_VALIDATORS)
    def test_validators_agree_on_synthesized(self, validator):
        a = stable_matrix(5, seed=4)
        candidate = synthesize("modal", a)
        report = validate_candidate(candidate, a, validator=validator)
        assert report.valid is True

    def test_exact_a_override(self):
        a_int = RationalMatrix([[-2, 0], [0, -3]])
        candidate = synthesize("eq-num", a_int.to_numpy())
        report = validate_candidate(
            candidate, a_int.to_numpy(), exact_a=a_int
        )
        assert report.valid is True

    def test_report_metadata(self):
        a = stable_matrix(3, seed=5)
        candidate = synthesize("lmi", a, backend="shift")
        report = validate_candidate(candidate, a)
        assert report.extra["method"] == "lmi"
        assert report.extra["backend"] == "shift"
        assert report.sigfigs == 10
        assert isinstance(report, ValidationReport)


class TestGracefulDegradation:
    """Forced backend/validator failures must degrade visibly, never
    silently (ValidatorResult.extra carries the provenance)."""

    def _break_modular(self, monkeypatch):
        from repro.exact import kernels

        def explode(*_a, **_k):
            raise RuntimeError("modular kernel corrupted")

        monkeypatch.setattr(
            kernels, "modular_leading_principal_minors", explode
        )

    def test_modular_backend_falls_back_to_int(self, monkeypatch):
        self._break_modular(monkeypatch)
        matrix = RationalMatrix([[2, 1], [1, 2]])
        result = run_validator("sylvester", matrix, backend="modular")
        assert result.valid is True
        assert result.degraded
        hops = result.extra["backend_fallbacks"]
        assert [h["backend"] for h in hops] == ["modular"]
        assert "modular kernel corrupted" in hops[0]["error"]
        assert result.extra["backend"] == "int"  # who actually decided
        assert result.validator == "sylvester"  # no escalation needed

    def test_no_fallback_propagates_backend_error(self, monkeypatch):
        self._break_modular(monkeypatch)
        matrix = RationalMatrix([[2, 1], [1, 2]])
        with pytest.raises(RuntimeError, match="modular kernel corrupted"):
            run_validator(
                "sylvester", matrix, backend="modular", fallback=False
            )

    def _break_sylvester(self, monkeypatch):
        from repro.exact import definiteness

        def explode(_matrix):
            raise RuntimeError("sylvester imploded")

        # First call inside every exact check: breaks all its backends.
        monkeypatch.setattr(definiteness, "_require_symmetric", explode)

    def test_validator_escalates_to_sympy(self, monkeypatch):
        self._break_sylvester(monkeypatch)
        matrix = RationalMatrix([[2, 1], [1, 2]])
        result = run_validator("sylvester", matrix)
        assert result.valid is True
        assert result.validator == "sympy"  # the verdict's true author
        assert result.extra["escalated_from"] == "sylvester"
        assert "sylvester imploded" in result.extra["escalation_error"]
        assert result.degraded

    def test_escalation_drops_the_failed_validators_options(
        self, monkeypatch
    ):
        self._break_sylvester(monkeypatch)
        result = run_validator(
            "sylvester", RationalMatrix([[2, 1], [1, 2]]), backend="int"
        )
        assert result.valid is True
        assert result.validator == "sympy"

    def test_escalation_opt_out(self, monkeypatch):
        self._break_sylvester(monkeypatch)
        with pytest.raises(RuntimeError, match="sylvester imploded"):
            run_validator(
                "sylvester", RationalMatrix([[2, 1], [1, 2]]),
                fallback=False,
            )

    def test_clean_run_has_no_provenance_keys(self):
        result = run_validator("sylvester", RationalMatrix([[2, 1], [1, 2]]))
        assert not result.degraded
        assert "backend_fallbacks" not in result.extra
        assert "escalated_from" not in result.extra

    def test_report_aggregates_degradations(self, monkeypatch):
        self._break_sylvester(monkeypatch)
        a = stable_matrix(3, seed=2)
        candidate = synthesize("eq-num", a)
        report = validate_candidate(candidate, a)
        assert report.valid is True  # verdict survived the degradation
        stages = {d["stage"] for d in report.degraded}
        kinds = {d["kind"] for d in report.degraded}
        assert stages == {"positivity", "decrease"}
        assert kinds == {"validator"}
        assert all(d["failed"] == "sylvester" for d in report.degraded)
        assert all(d["used"] == "sympy" for d in report.degraded)

    def test_report_no_fallback_raises(self, monkeypatch):
        self._break_sylvester(monkeypatch)
        a = stable_matrix(3, seed=2)
        candidate = synthesize("eq-num", a)
        with pytest.raises(RuntimeError, match="sylvester imploded"):
            validate_candidate(candidate, a, fallback=False)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_degradation_reaches_record_and_stats(
        self, monkeypatch, tmp_path, jobs
    ):
        """End-to-end: a degraded validation shows up on each Table I
        record and in the campaign's ``degraded`` counter, whether the
        task ran in-process or in a pool worker (two tasks, so that
        ``jobs=2`` really pools). A resumed run replays both records and
        counts no degradation of its own."""
        self._break_sylvester(monkeypatch)
        from repro.runner import CampaignStats, Journal, Table1Task, run_tasks

        tasks = [
            Table1Task(
                case_name="size3", size=3, mode=mode, method="eq-num",
                backend=None, eq_smt_deadline=5.0, validator="sylvester",
                sigfigs=10,
            )
            for mode in (0, 1)
        ]
        path = tmp_path / "journal.jsonl"
        stats = CampaignStats()
        with Journal(path) as journal:
            results = run_tasks(
                tasks, jobs=jobs, journal=journal, stats=stats
            )
        for record, _candidate in results:
            assert record.valid is True
            assert record.degraded, "degradation must be recorded on the row"
            assert all(d["used"] == "sympy" for d in record.degraded)
        assert (stats.executed, stats.degraded) == (2, 2)

        resumed = CampaignStats()
        with Journal(path, resume=True) as journal:
            replayed = run_tasks(
                tasks, jobs=jobs, journal=journal, stats=resumed
            )
        assert (resumed.replayed, resumed.executed) == (2, 0)
        assert resumed.degraded == 0
        assert [r.degraded for r, _ in replayed] == [
            r.degraded for r, _ in results
        ]
