"""The candidate-validation pipeline (paper Section VI-B).

A numerically synthesized candidate ``P`` is rounded at ``sigfigs``
significant figures (the paper uses 10, and probes robustness at 6 and
4), and both Lyapunov conditions are then checked *exactly*:

1. ``P ≻ 0``;
2. ``-(A^T P + P A) ≻ 0``  (the Lie derivative is negative definite),

where ``A`` enters exactly (the benchmark model's own matrix). The two
checks run on the configured validator from :mod:`repro.validate.validators`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exact import RationalMatrix
from ..exact.matrix import int_matmul
from ..lyapunov import LyapunovCandidate
from .validators import ValidatorResult, run_validator

__all__ = ["ValidationReport", "validate_candidate", "lie_derivative_exact"]


def _lie_normal_form(
    p: RationalMatrix, a: RationalMatrix
) -> tuple[list[list[int]], int]:
    """Integer normal form of ``A^T sym(P) + sym(P) A``.

    With ``P = N / p_den`` and ``A = M / a_den``, ``sym(P) = (N + N^T) /
    (2 p_den)``, so one integer product ``X = M^T (N + N^T)`` gives the
    result as ``(X + X^T) / (2 a_den p_den)``.
    """
    if a.shape != p.shape or not a.is_square():
        raise ValueError(f"A {a.shape} and P {p.shape} dimension mismatch")
    n_p, p_den = p.normal_form()
    n_a, a_den = a.normal_form()
    s = [[x + y for x, y in zip(row, col)] for row, col in zip(n_p, zip(*n_p))]
    x = int_matmul(list(zip(*n_a)), s)
    lie = [[u + v for u, v in zip(row, col)] for row, col in zip(x, zip(*x))]
    return lie, 2 * a_den * p_den


def lie_derivative_exact(
    p: RationalMatrix, a: RationalMatrix
) -> RationalMatrix:
    """``A^T sym(P) + sym(P) A`` over the rationals.

    This is ``A^T P + P A`` for the symmetric ``P`` every candidate
    yields; for a non-symmetric ``P`` it is the symmetric part of that
    sum. Built from one integer product; each entry becomes a
    ``Fraction`` once.
    """
    return RationalMatrix.from_normal_form(*_lie_normal_form(p, a))


@dataclass
class ValidationReport:
    """Joint outcome of the positivity and decrease checks."""

    validator: str
    sigfigs: int | None
    positivity: ValidatorResult
    decrease: ValidatorResult
    extra: dict = field(default_factory=dict)

    @property
    def valid(self) -> bool | None:
        """``True`` when both conditions are proved; ``False`` when either
        is refuted; ``None`` when undecided."""
        verdicts = (self.positivity.valid, self.decrease.valid)
        if False in verdicts:
            return False
        if None in verdicts:
            return None
        return True

    @property
    def total_time(self) -> float:
        """Sum of the two checks' wall-clock times."""
        return self.positivity.time + self.decrease.time

    @property
    def degraded(self) -> list[dict]:
        """Fallback/escalation provenance aggregated over both checks.

        One entry per degradation hop, each tagged with the check stage
        (``"positivity"``/``"decrease"``); empty for a clean run. See
        :mod:`repro.validate.validators` for the per-check encoding.
        """
        hops: list[dict] = []
        for stage, result in (
            ("positivity", self.positivity),
            ("decrease", self.decrease),
        ):
            for hop in result.extra.get("backend_fallbacks", ()):
                hops.append(
                    {
                        "stage": stage,
                        "kind": "kernel-backend",
                        "failed": hop["backend"],
                        "used": result.extra.get("backend"),
                        "error": hop["error"],
                    }
                )
            if "escalated_from" in result.extra:
                hops.append(
                    {
                        "stage": stage,
                        "kind": "validator",
                        "failed": result.extra["escalated_from"],
                        "used": result.validator,
                        "error": result.extra.get("escalation_error"),
                    }
                )
        return hops


def validate_candidate(
    candidate: LyapunovCandidate,
    a: np.ndarray,
    sigfigs: int | None = 10,
    validator: str = "sylvester",
    exact_a: RationalMatrix | None = None,
    fallback: bool = True,
    **validator_options,
) -> ValidationReport:
    """Round the candidate and prove (or refute) both Lyapunov conditions.

    ``fallback`` arms the validator degradation chains (kernel-backend
    fallback, sylvester→sympy escalation); pass ``False`` to let
    validator errors propagate instead. Any degradation that occurred
    is visible in :attr:`ValidationReport.degraded`.
    """
    p_exact = candidate.exact_p(sigfigs)
    a_exact = (
        exact_a
        if exact_a is not None
        else RationalMatrix.from_numpy(np.asarray(a, dtype=float))
    )
    if a_exact.shape != p_exact.shape:
        raise ValueError(
            f"A {a_exact.shape} and P {p_exact.shape} dimension mismatch"
        )
    positivity = run_validator(
        validator, p_exact, fallback=fallback, **validator_options
    )
    if positivity.valid is False:
        # Short-circuit like the paper's pipeline: an invalid P already
        # settles the verdict; record a zero-cost decrease result.
        decrease = ValidatorResult(
            validator=validator, valid=None, time=0.0,
            extra={"skipped": "positivity refuted"},
        )
    else:
        lie, den = _lie_normal_form(p_exact, a_exact)
        negated = RationalMatrix.from_normal_form(
            [[-x for x in row] for row in lie], den
        )
        decrease = run_validator(
            validator, negated, fallback=fallback, **validator_options
        )
    return ValidationReport(
        validator=validator,
        sigfigs=sigfigs,
        positivity=positivity,
        decrease=decrease,
        extra={"method": candidate.method, "backend": candidate.backend},
    )
