"""The symbolic validator registry (paper Figure 3).

Each validator decides, with a *proof*, whether a symmetric rational
matrix is positive definite. The registry mirrors the solver families
the paper compares:

==============  ====================================================
``sylvester``   all leading principal minors streamed from a single
                Bareiss elimination pass (the paper's fastest
                validator; the single-pass rewrite put it back in the
                same league as ``gauss``/``ldl`` — see EXPERIMENTS.md)
``gauss``       fraction-free Gaussian elimination pivots (SymPy's
                ``is_positive_definite`` strategy, reimplemented)
``ldl``         exact LDL^T pivots (ablation variant)
``sympy``       the actual SymPy ``is_positive_definite`` on an exact
                Rational matrix
``icp``         the ICP/SMT refuter on unit-sphere faces (the
                Z3/CVC5/Mathematica stand-in; may return *unknown*)
``icp+det``     the "+ det" encoding: non-strict refutation plus an
                exact determinant test
==============  ====================================================

The three exact validators accept a ``backend`` option
(``"auto"|"fraction"|"int"|"modular"``, forwarded to
:mod:`repro.exact.kernels`): ``run_validator(name, matrix,
backend="int")`` decides the same verdict from integer kernels after a
single denominator clearing, while ``backend="fraction"`` pins the
historical Fraction oracle — the pair powers the differential tests.
The ICP validators run :func:`~repro.smt.check_positive_definite_icp`
on its default engine and accept ``max_boxes`` and ``delta``. Every
validator is called as ``fn(matrix, fallback=..., **options)`` and
takes only the options it uses: :func:`run_validator` raises
``TypeError`` for any other option before anything runs.

**Graceful degradation.** Verdicts must survive a flaky backend, so
failures degrade along two chains (opt out with ``fallback=False``,
the CLI's ``--no-fallback``):

* a kernel backend that *raises* falls back ``modular -> int ->
  fraction`` (see :data:`repro.exact.kernels.KERNEL_FALLBACKS`)
  inside the same
  validator;
* a validator whose every backend failed escalates to the independent
  ``sympy`` implementation (:data:`VALIDATOR_ESCALATION`).

Every hop is recorded in :attr:`ValidatorResult.extra` so degraded
results stay distinguishable from clean ones:
``extra["backend_fallbacks"]`` is the list of
``{"backend", "error"}`` hops that *failed* (with ``extra["backend"]``
then naming the backend that actually decided), and
``extra["escalated_from"]``/``extra["escalation_error"]`` mark a
validator swap (``ValidatorResult.validator`` then names the validator
that produced the verdict). A clean run carries none of these keys.
"""

from __future__ import annotations

import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

from ..exact import (
    RationalMatrix,
    definiteness_counterexample,
    fallback_backend,
    gauss_positive_definite,
    ldl_positive_definite,
    resolve_backend,
    sylvester_positive_definite,
)
from ..smt import check_positive_definite_icp

__all__ = [
    "ValidatorResult",
    "VALIDATORS",
    "VALIDATOR_ESCALATION",
    "run_validator",
    "temporary_validator",
]


@dataclass
class ValidatorResult:
    """Outcome of one definiteness check.

    ``valid`` is ``True``/``False`` for a proof either way and ``None``
    when the validator could not decide (ICP budget exhausted).
    ``extra`` carries validator statistics and, for degraded runs, the
    fallback/escalation provenance described in the module docstring.
    """

    validator: str
    valid: bool | None
    time: float
    counterexample: list | None = None
    extra: dict = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        """Did a backend fallback or validator escalation occur?"""
        return bool(
            self.extra.get("backend_fallbacks")
            or self.extra.get("escalated_from")
        )


def _with_witness(check: Callable[..., bool]):
    def run(
        matrix: RationalMatrix,
        backend: str = "auto",
        fallback: bool = True,
    ) -> tuple[bool, list | None, dict]:
        mode = resolve_backend(backend, matrix.rows, op="minors")
        hops: list[dict] = []
        while True:
            try:
                verdict = check(matrix, backend=mode)
                break
            except Exception as exc:
                nxt = fallback_backend(mode) if fallback else None
                if nxt is None:
                    raise
                hops.append(
                    {
                        "backend": mode,
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                )
                mode = nxt
        witness = None if verdict else definiteness_counterexample(matrix)
        extra: dict = {} if backend == "auto" else {"backend": backend}
        if hops:
            extra["backend"] = mode  # the backend that actually decided
            extra["backend_fallbacks"] = hops
        return verdict, witness, extra

    return run


def _sympy_validator(matrix: RationalMatrix, fallback: bool = True):
    # ``fallback`` is part of every validator's call; SymPy has no
    # backend chain to degrade along.
    import sympy

    sym = sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row]
         for row in matrix.tolist()]
    )
    verdict = bool(sym.is_positive_definite)
    witness = None if verdict else definiteness_counterexample(matrix)
    return verdict, witness, {}


def _icp_validator(plus_det: bool):
    def run(
        matrix: RationalMatrix,
        fallback: bool = True,
        max_boxes: int = 200_000,
        delta: float = 1e-7,
    ):
        # As for SymPy: ICP has no backend chain, so ``fallback`` is moot.
        outcome = check_positive_definite_icp(
            matrix,
            plus_det=plus_det,
            delta=delta,
            max_boxes=max_boxes,
        )
        witness = None
        if outcome.counterexample is not None:
            witness = [
                outcome.counterexample[f"w{i}"] for i in range(matrix.rows)
            ]
        return outcome.verdict, witness, {
            "faces": outcome.faces_checked,
            "boxes": outcome.boxes_explored,
        }

    return run


VALIDATORS: dict[str, Callable] = {
    "sylvester": _with_witness(sylvester_positive_definite),
    "gauss": _with_witness(gauss_positive_definite),
    "ldl": _with_witness(ldl_positive_definite),
    "sympy": _sympy_validator,
    "icp": _icp_validator(plus_det=False),
    "icp+det": _icp_validator(plus_det=True),
}

#: When an exact validator fails outright (even its last kernel backend
#: raised, or the implementation itself broke), the verdict escalates to
#: the independent SymPy implementation rather than aborting the task.
VALIDATOR_ESCALATION: dict[str, str] = {
    "sylvester": "sympy",
    "gauss": "sympy",
    "ldl": "sympy",
}


@contextmanager
def temporary_validator(name: str, fn: Callable):
    """Register (or shadow) a validator for the duration of a block.

    The fuzz test suite uses this to plant deliberately broken
    validators — e.g. a sign-flipped ``sylvester`` — and assert the
    differential harness catches and shrinks them.  Restores the
    previous registry state (including a shadowed original) on exit.
    """
    sentinel = object()
    previous = VALIDATORS.get(name, sentinel)
    VALIDATORS[name] = fn
    try:
        yield
    finally:
        if previous is sentinel:
            VALIDATORS.pop(name, None)
        else:
            VALIDATORS[name] = previous


def run_validator(
    name: str,
    matrix: RationalMatrix,
    fallback: bool = True,
    **options,
) -> ValidatorResult:
    """Run one registered validator and time it.

    ``fallback=True`` (the default) arms both degradation chains:
    kernel-backend fallback inside the exact validators, and validator
    escalation per :data:`VALIDATOR_ESCALATION` when the named
    validator fails entirely. ``fallback=False`` lets the original
    exception propagate instead. An option the validator does not take
    raises ``TypeError`` up front and never escalates; the escalation
    target gets ``fallback`` only, not the failed validator's options.
    """
    if name not in VALIDATORS:
        raise KeyError(f"unknown validator {name!r}; known: {sorted(VALIDATORS)}")
    validate = VALIDATORS[name]
    start = time.perf_counter()
    used = name
    try:
        valid, witness, extra = validate(matrix, fallback=fallback, **options)
    except Exception as exc:
        escalation = VALIDATOR_ESCALATION.get(name) if fallback else None
        if escalation is None:
            raise
        # An option the validator does not take failed the call before
        # its body ran: that is the caller's error, not a reason to
        # escalate, so re-raise it from here.
        inspect.signature(validate).bind(matrix, fallback=fallback, **options)
        valid, witness, extra = VALIDATORS[escalation](
            matrix, fallback=fallback
        )
        extra = dict(extra)
        extra["escalated_from"] = name
        extra["escalation_error"] = f"{type(exc).__name__}: {exc}"
        used = escalation
    elapsed = time.perf_counter() - start
    return ValidatorResult(
        validator=used,
        valid=valid,
        time=elapsed,
        counterexample=witness,
        extra=extra,
    )
