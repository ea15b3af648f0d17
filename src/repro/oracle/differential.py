"""The differential harness: fan one system through every combination.

For each :class:`~repro.oracle.generate.GeneratedSystem` the harness
checks four families of invariants, recording one dict per violation:

``hurwitz-backend``
    The exact stability test (:func:`repro.exact.is_hurwitz_matrix`)
    must reproduce the constructed verdict on every kernel backend.

``witness``
    For backwards-constructed systems, the known witness pair
    ``(P, 2Q)`` must be *proved* positive definite by every validator on
    every kernel backend — these matrices are PD by construction, so any
    ``False``/``None`` is a validator soundness/completeness bug.

``candidate-consensus`` / ``unsound-true``
    Every synthesis method that produces a candidate has it validated by
    the full ``validator x kernel-backend`` matrix. Rounded candidates
    may *legitimately* fail validation (the paper's fragile-candidate
    phenomenon), so the invariant is pairwise agreement, not truth; but
    a consensus ``valid=True`` on a system that is unstable by
    construction is a soundness bug (no quadratic Lyapunov certificate
    can exist), reported as ``unsound-true``.

``icp-engine``
    The batched ICP refuter (:mod:`repro.smt.boxes`) must reproduce the
    scalar branch-and-prune engine *exactly* — verdict, counterexample
    and box statistics — on small definiteness queries.

``metamorphic-*``
    Verdict invariance under exact similarity transforms, state
    permutations, positive scaling of ``P``, and LMI block reordering —
    see :mod:`repro.oracle.metamorphic`.

``service-cache``
    The certification service's performance layers must be invisible:
    a cold compute, a cache hit and a same-shape batched screen must
    all return certificates with identical stable payloads
    (:meth:`repro.service.Certificate.identity`) as running the task
    directly, and the repeat request must hit the cache instead of
    recomputing.

Synthesis failures (timeouts, infeasibility, defective-matrix modal
errors) are recorded in :attr:`FuzzRecord.synth` and are never
disagreements. Harness-level exceptions (a validator *crashing*) land
in :attr:`FuzzRecord.harness_errors` — the harness runs with
``fallback=False`` so degradation chains cannot paper over a broken
backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from ..exact import RationalMatrix, is_hurwitz_matrix
from ..lyapunov import SynthesisTimeout, synthesize
from ..sdp import LmiInfeasibleError
from ..smt import check_positive_definite_icp
from ..validate import run_validator
from ..validate.pipeline import lie_derivative_exact
from .generate import GeneratedSystem
from .records import FuzzRecord

__all__ = [
    "FuzzProfile",
    "QUICK_PROFILE",
    "LONG_PROFILE",
    "check_system",
]

#: Validators that accept the ``backend=`` kernel option; everything
#: else (sympy, icp, scratch validators) runs once per matrix.
_KERNEL_VALIDATORS = frozenset({"sylvester", "gauss", "ldl"})

#: Default kernel-backend sweep: every backend against the Fraction
#: oracle.
_DEFAULT_KERNEL_BACKENDS = ("fraction", "int", "modular")


@dataclass(frozen=True)
class FuzzProfile:
    """The combination grid one fuzz campaign sweeps.

    Frozen and made of plain tuples/ints/floats so it pickles into
    runner tasks and hashes into journal fingerprints deterministically.
    """

    name: str = "quick"
    sizes: tuple = (1, 2, 3, 4, 5)
    methods: tuple = (
        "eq-smt", "eq-num", "modal", "lmi", "lmi-alpha", "lmi-alpha+",
    )
    lmi_backends: tuple = ("ipm", "shift", "proj")
    validators: tuple = ("sylvester", "gauss", "ldl", "sympy")
    kernel_backends: tuple = _DEFAULT_KERNEL_BACKENDS
    sigfigs: int = 10
    eq_smt_max_n: int = 5
    eq_smt_deadline: float = 5.0
    ipm_max_n: int = 12
    metamorphic: bool = True
    lmi_block_max_n: int = 3
    lmi_block_iterations: int = 4000
    icp_backends: tuple = ("scalar", "batched")
    icp_max_n: int = 3
    icp_max_boxes: int = 4000
    service_checks: bool = True
    service_max_n: int = 3
    #: Run the service-cache family on every k-th system (by seed) —
    #: its four extra synthesis+validation runs per system would
    #: otherwise dominate a quick campaign's budget. 1 = every system.
    service_sample: int = 4

    def spec(self) -> dict:
        """Plain-dict form (picklable task field / fingerprint input)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def method_combos(self, n: int) -> list[tuple[str, str | None]]:
        """The ``(method, lmi_backend)`` grid applicable at size ``n``."""
        combos: list[tuple[str, str | None]] = []
        for method in self.methods:
            if method == "eq-smt" and n > self.eq_smt_max_n:
                continue
            if method.startswith("lmi"):
                for backend in self.lmi_backends:
                    if backend == "ipm" and n > self.ipm_max_n:
                        continue
                    combos.append((method, backend))
            else:
                combos.append((method, None))
        return combos


QUICK_PROFILE = FuzzProfile()

LONG_PROFILE = FuzzProfile(
    name="long",
    sizes=tuple(range(1, 22)),
    eq_smt_max_n=8,
    eq_smt_deadline=30.0,
    lmi_block_max_n=6,
)


# ----------------------------------------------------------------------
# Verdict plumbing
# ----------------------------------------------------------------------

class _Harness:
    """Mutable check/disagreement accumulator for one system."""

    def __init__(self, system: GeneratedSystem, profile: FuzzProfile):
        self.system = system
        self.profile = profile
        self.record = FuzzRecord(
            kind=system.kind, n=system.n, seed=system.seed,
            stable=system.stable, provenance=system.provenance,
        )

    def verdict_matrix(self, matrix: RationalMatrix) -> dict[str, bool | None]:
        """Run every ``validator x kernel-backend`` combo on ``matrix``."""
        verdicts: dict[str, bool | None] = {}
        for validator in self.profile.validators:
            if validator in _KERNEL_VALIDATORS:
                for backend in self.profile.kernel_backends:
                    verdicts[f"{validator}/{backend}"] = self._one(
                        validator, matrix, backend
                    )
            else:
                verdicts[validator] = self._one(validator, matrix, None)
        return verdicts

    def _one(
        self, validator: str, matrix: RationalMatrix, backend: str | None
    ) -> bool | None:
        options = {"backend": backend} if backend is not None else {}
        self.record.checks += 1
        try:
            return run_validator(
                validator, matrix, fallback=False, **options
            ).valid
        except Exception as exc:
            self.record.harness_errors.append(
                f"{validator}"
                f"{'/' + backend if backend else ''}: "
                f"{type(exc).__name__}: {exc}"
            )
            return None

    def disagree(self, check: str, **details) -> None:
        self.record.disagreements.append({"check": check, **details})

    def expect(self, check: str, combo: str, expected, got) -> None:
        self.record.checks += 1
        if got != expected:
            self.disagree(check, combo=combo, expected=expected, got=got)


def _consensus(verdicts: dict[str, bool | None]):
    """``(value, conflicts)`` — the agreed verdict over non-None entries.

    ``None`` entries (undecided validators, crashed combos) do not
    participate; a ``True`` vs ``False`` split returns the conflicting
    combos.
    """
    decided = {k: v for k, v in verdicts.items() if v is not None}
    values = set(decided.values())
    if len(values) > 1:
        return None, decided
    return (next(iter(values)) if decided else None), {}


# ----------------------------------------------------------------------
# Check families
# ----------------------------------------------------------------------

def _check_hurwitz_backends(h: _Harness) -> None:
    for backend in h.profile.kernel_backends:
        try:
            got = is_hurwitz_matrix(h.system.a, backend=backend)
        except Exception as exc:
            h.record.harness_errors.append(
                f"hurwitz/{backend}: {type(exc).__name__}: {exc}"
            )
            continue
        h.expect("hurwitz-backend", backend, h.system.stable, got)


def _check_witness(h: _Harness) -> None:
    system = h.system
    if system.witness_p is None:
        return
    for label, matrix in (
        ("P", system.witness_p),
        ("2Q", system.witness_q.scale(2)),
    ):
        for combo, verdict in h.verdict_matrix(matrix).items():
            if verdict is not True:
                h.disagree(
                    "witness", matrix=label, combo=combo,
                    expected=True, got=verdict,
                )


def _check_candidates(h: _Harness) -> None:
    system, profile = h.system, h.profile
    a_float = system.a_float
    for method, backend in profile.method_combos(system.n):
        label = f"{method}/{backend}" if backend else method
        try:
            candidate = synthesize(
                method, a_float, backend=backend or "ipm",
                deadline=(
                    profile.eq_smt_deadline if method == "eq-smt" else None
                ),
                exact_a=system.a if method == "eq-smt" else None,
            )
        except SynthesisTimeout:
            h.record.synth[label] = "timeout"
            continue
        except (LmiInfeasibleError, ValueError):
            h.record.synth[label] = "infeasible"
            continue
        except Exception as exc:
            h.record.synth[label] = "error"
            h.record.harness_errors.append(
                f"synthesize {label}: {type(exc).__name__}: {exc}"
            )
            continue
        h.record.synth[label] = "ok"
        p_exact = candidate.exact_p(profile.sigfigs)
        positivity = h.verdict_matrix(p_exact)
        pos, conflicts = _consensus(positivity)
        if conflicts:
            h.disagree(
                "candidate-consensus", method=label, stage="positivity",
                verdicts=conflicts,
            )
        lie_neg = lie_derivative_exact(p_exact, system.a).scale(-1)
        decrease = h.verdict_matrix(lie_neg)
        dec, conflicts = _consensus(decrease)
        if conflicts:
            h.disagree(
                "candidate-consensus", method=label, stage="decrease",
                verdicts=conflicts,
            )
        if not system.stable and pos is True and dec is True:
            # No quadratic Lyapunov certificate exists for an unstable
            # system: a unanimous "valid" verdict is a soundness bug.
            h.disagree(
                "unsound-true", method=label,
                expected="not both-True on an unstable system",
                got={"positivity": pos, "decrease": dec},
            )


def _check_icp_engines(h: _Harness) -> None:
    """The scalar and batched ICP engines must be indistinguishable.

    The batched engine (:mod:`repro.smt.boxes`) is specified to replay
    the scalar branch-and-prune *exactly* — same verdicts, same
    counterexamples, same box counts — so any divergence on a fuzzed
    definiteness query is a bug in the vectorized kernels, not noise.
    Small sizes only: the sphere-face query count grows with ``n`` and
    the equivalence is dimension-independent.
    """
    system, profile = h.system, h.profile
    if len(profile.icp_backends) < 2 or system.n > profile.icp_max_n:
        return
    targets = [("A-sym", system.a.symmetrize())]
    if system.witness_p is not None:
        targets.append(("P", system.witness_p))
    for label, matrix in targets:
        outcomes = {}
        for backend in profile.icp_backends:
            try:
                outcomes[backend] = check_positive_definite_icp(
                    matrix,
                    max_boxes=profile.icp_max_boxes,
                    backend=backend,
                )
            except Exception as exc:
                h.record.checks += 1
                h.record.harness_errors.append(
                    f"icp/{backend} on {label}: {type(exc).__name__}: {exc}"
                )
        if len(outcomes) < 2:
            continue
        reference_name = next(iter(outcomes))
        reference = outcomes[reference_name]
        expected = (
            reference.verdict, reference.counterexample,
            reference.faces_checked, reference.boxes_explored,
        )
        for backend, outcome in outcomes.items():
            if backend == reference_name:
                continue
            h.expect(
                "icp-engine",
                f"{label}:{reference_name}-vs-{backend}",
                expected,
                (
                    outcome.verdict, outcome.counterexample,
                    outcome.faces_checked, outcome.boxes_explored,
                ),
            )


def _check_service_cache(h: _Harness) -> None:
    """Direct, cold, cached and batched ``certify`` must agree bit for bit.

    The certification service promises that its performance layers are
    invisible: a cache hit, a single-flight coalesce and a same-shape
    batched screen all return the *same* certificate (same ``P`` bytes,
    verdicts and margins — :meth:`repro.service.Certificate.identity`)
    as running the underlying :class:`~repro.service.CertifyTask`
    directly. This family certifies exactly that on fuzzed systems,
    including unstable ones (whose deterministic infeasible/failed
    certificates must also cache and batch identically).
    """
    system, profile = h.system, h.profile
    if (
        not profile.service_checks
        or system.n > profile.service_max_n
        or system.seed % max(1, profile.service_sample)
    ):
        return
    from ..service import CertificationService

    a = system.a_float
    try:
        with CertificationService(
            sigfigs=profile.sigfigs, fallback=False
        ) as service:
            direct = service.request(a).run()  # no cache in the loop
            cold = service.certify(a)
            warm = service.certify(a)
        with CertificationService(
            sigfigs=profile.sigfigs, fallback=False
        ) as batch_service:
            [batched] = batch_service.certify_many(
                [batch_service.request(a)]
            )
    except Exception as exc:
        h.record.checks += 1
        h.record.harness_errors.append(
            f"service-cache: {type(exc).__name__}: {exc}"
        )
        return
    reference = direct.identity()
    for label, certificate in (
        ("cold", cold), ("warm-cache-hit", warm), ("batched", batched),
    ):
        h.expect("service-cache", label, reference, certificate.identity())
    # The repeat request must be served from the cache, not recomputed.
    h.expect("service-cache", "single-computation", 1, service.computations)
    h.expect(
        "service-cache", "cache-hit", True, service.store.memory_hits >= 1
    )


def check_system(
    system: GeneratedSystem, profile: FuzzProfile | None = None
) -> FuzzRecord:
    """Run the full differential + metamorphic battery on one system."""
    profile = profile or QUICK_PROFILE
    h = _Harness(system, profile)
    _check_hurwitz_backends(h)
    _check_witness(h)
    _check_icp_engines(h)
    _check_candidates(h)
    _check_service_cache(h)
    if profile.metamorphic:
        from .metamorphic import metamorphic_checks

        metamorphic_checks(h)
    return h.record
