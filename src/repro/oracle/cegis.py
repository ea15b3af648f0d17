"""Ground-truth switched-system scenarios for the CEGIS loop fuzzer.

The ``cegis`` fuzz family stresses the whole counterexample-guided
pipeline (:mod:`repro.lyapunov.cegis`) against scenarios whose verdict
is known *by construction*, the same backwards philosophy as
:mod:`repro.oracle.generate`:

``cegis-shared``
    Both modes are built from **one** witness ``P``: draw ``P ≻ 0``
    and per-mode ``Q_i ≻ 0``, skew ``K_i``, set ``A_i = P^{-1}(K_i -
    Q_i)`` so ``A_i^T P + P A_i = -2 Q_i ≺ 0`` exactly, and give both
    modes the **same** equilibrium strictly inside region 0. The
    centered decision point ``x* = (svec(sigma P), q=0, U=0, W=0)`` is
    then feasible for the full LMI by construction — the loop must
    *validate*, and (the metamorphic invariant) **no sampled cut may
    ever exclude** ``x*``: every cut is a 1x1 section of a matrix
    constraint that ``x*`` satisfies.

``cegis-bistable``
    Independent stable constructions per mode, each equilibrium
    strictly interior to its own region. The mode-1 decrease condition
    ``-dV/dt >= eps |w - w_0|^2`` is violated *at* the mode-1
    equilibrium (where ``dV/dt = 0`` but ``w != w_0``), so no
    certificate exists, and the loop must report it **infeasible** from
    that exact equilibrium (:func:`repro.lyapunov.bistability_witness`)
    before any synthesis — the synthetic miniature of the paper's
    negative result.

Scenarios are pure functions of ``(kind, n, seed)``; failures shrink
and replay through the standard fuzz artifact machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..exact import RationalMatrix, solve
from ..systems import (
    AffineSystem,
    HalfSpace,
    PolyhedralRegion,
    PwaMode,
    PwaSystem,
)
from .generate import _random_skew, random_spd
from .records import FuzzRecord

__all__ = [
    "CEGIS_KINDS",
    "CegisScenario",
    "generate_cegis_scenario",
    "check_cegis_scenario",
    "cegis_specs",
]

#: The fuzz kinds this module owns (dispatched by ``FuzzTask``,
#: ``shrink_failure`` and ``replay_spec``).
CEGIS_KINDS = ("cegis-shared", "cegis-bistable")

#: Seed-sequence tags, disjoint from ``generate._KIND_TAG`` by offset.
_KIND_TAG = {kind: 101 + index for index, kind in enumerate(CEGIS_KINDS)}


@dataclass
class CegisScenario:
    """A switched system with a CEGIS verdict known by construction."""

    kind: str
    n: int
    seed: int
    system: PwaSystem
    #: "validated" (certificate exists — and ``x_star`` proves it) or
    #: "infeasible" (bistable: provably no certificate).
    expected: str
    #: the shared Lyapunov witness (``cegis-shared`` only)
    witness_p: RationalMatrix | None = None
    #: exact mode equilibria used in the construction
    w_eq0: list | None = None
    w_eq1: list | None = None

    def spec(self) -> dict:
        return {"kind": self.kind, "n": self.n, "seed": self.seed}


def _rng(kind: str, n: int, seed: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([_KIND_TAG[kind], n, seed])
    )


def _interior_point(
    rng: np.random.Generator, n: int, first: Fraction
) -> list[Fraction]:
    """A rational point with a pinned first coordinate (the guard axis)."""
    return [first] + [
        Fraction(int(rng.integers(-2, 3)), int(rng.integers(1, 4)))
        for _ in range(n - 1)
    ]


def _affine_mode(
    a: RationalMatrix, w_eq: list, region: PolyhedralRegion, name: str
) -> PwaMode:
    """Mode with flow ``w' = A (w - w_eq)`` (exact ``b = -A w_eq``)."""
    n = a.rows
    b = [
        -sum(a[i, j] * w_eq[j] for j in range(n)) for i in range(n)
    ]
    return PwaMode(
        flow=AffineSystem(a.to_numpy(), np.array([float(x) for x in b])),
        region=region,
        name=name,
    )


def generate_cegis_scenario(kind: str, n: int, seed: int) -> CegisScenario:
    """Build one scenario; deterministic in ``(kind, n, seed)``."""
    if kind not in CEGIS_KINDS:
        raise KeyError(f"unknown cegis kind {kind!r}; known: {CEGIS_KINDS}")
    if not 1 <= n <= 8:
        raise ValueError(f"cegis scenario dimension n={n} out of range")
    rng = _rng(kind, n, seed)
    # Guard axis: mode 0 owns w[0] > 1, mode 1 the complement w[0] <= 1.
    guard = HalfSpace(
        normal=tuple(
            [Fraction(1)] + [Fraction(0)] * (n - 1)
        ),
        offset=Fraction(-1),
        strict=True,
    )
    region0 = PolyhedralRegion([guard])
    region1 = PolyhedralRegion([guard.complement()])
    p = random_spd(n, rng)
    q0 = random_spd(n, rng, shift=1)
    a0 = solve(p, _random_skew(n, rng) - q0)
    w_eq0 = _interior_point(rng, n, Fraction(2))

    if kind == "cegis-shared":
        # Same witness P, independent dynamics, shared equilibrium.
        q1 = random_spd(n, rng, shift=1)
        a1 = solve(p, _random_skew(n, rng) - q1)
        system = PwaSystem([
            _affine_mode(a0, w_eq0, region0, "mode0"),
            _affine_mode(a1, w_eq0, region1, "mode1"),
        ])
        return CegisScenario(
            kind=kind, n=n, seed=seed, system=system,
            expected="validated", witness_p=p,
            w_eq0=w_eq0, w_eq1=w_eq0,
        )

    # cegis-bistable: an independent witness for mode 1, and its
    # equilibrium strictly inside region 1 (w[0] = 0 < 1).
    p1 = random_spd(n, rng)
    q1 = random_spd(n, rng, shift=1)
    a1 = solve(p1, _random_skew(n, rng) - q1)
    w_eq1 = _interior_point(rng, n, Fraction(0))
    system = PwaSystem([
        _affine_mode(a0, w_eq0, region0, "mode0"),
        _affine_mode(a1, w_eq1, region1, "mode1"),
    ])
    return CegisScenario(
        kind=kind, n=n, seed=seed, system=system,
        expected="infeasible",
        w_eq0=w_eq0, w_eq1=w_eq1,
    )


def cegis_specs(
    count: int, seed: int, sizes: tuple[int, ...] = (1, 2, 3)
) -> list[dict]:
    """A deterministic plan of ``count`` cegis-family specs.

    Same contract as :func:`repro.oracle.generate.system_specs`: kinds
    cycle round-robin, sizes and per-scenario seeds come from one
    master stream, so the plan is a pure function of its arguments.
    Sizes default small — every scenario runs a whole CEGIS campaign.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if not sizes:
        raise ValueError("sizes must be nonempty")
    rng = np.random.default_rng(np.random.SeedSequence([997, seed]))
    specs = []
    for index in range(count):
        kind = CEGIS_KINDS[index % len(CEGIS_KINDS)]
        n = int(sizes[int(rng.integers(0, len(sizes)))])
        specs.append(
            {"kind": kind, "n": n, "seed": int(rng.integers(0, 2**31))}
        )
    return specs


def _feasible_point(
    scenario: CegisScenario, lmi, cap: float
) -> np.ndarray:
    """The known-feasible decision vector ``x*`` of a shared scenario.

    ``sigma P`` with ``sigma`` chosen (from float eigenvalues — only
    the *choice* is float; feasibility has construction-sized margins)
    to sit comfortably inside ``delta I ⪯ S_0 ⪯ cap I``; the surface
    correction and both multiplier triples are zero.
    """
    p_float = scenario.witness_p.to_numpy()
    eigenvalues = np.linalg.eigvalsh(p_float)
    sigma = min(1.0, (0.5 * cap) / float(eigenvalues[-1]))
    x = np.zeros(lmi.dim)
    for k, e in enumerate(lmi.basis):
        x[k] = float(np.sum(e * (sigma * p_float)))
    return x


def check_cegis_scenario(
    kind: str,
    n: int,
    seed: int,
    profile=None,
    max_rounds: int = 40,
    max_iterations: int = 20_000,
) -> FuzzRecord:
    """Run the full loop on one scenario and compare against ground truth.

    Checks (counted in ``FuzzRecord.checks``):

    1. **verdict** — the loop's status equals the constructed one
       (``cegis-shared`` runs the *sampled* synthesis so the cut
       machinery is genuinely engaged, and must never end
       ``inconclusive``; ``cegis-bistable`` runs the full-matrix
       synthesis, which the exact equilibrium witness ends in round 1);
    2. **cut admissibility** (shared) — every sampled cut accumulated
       during the campaign is satisfied at the known-feasible ``x*``,
       within the parent block's own margin: cuts may prune the search,
       never the answer;
    3. **certificate soundness** (shared, validated) — the accepted
       exact certificate is strictly positive at the constructed
       equilibria's reflections (exact rational evaluation, no floats).
    """
    from ..lyapunov import assemble_centered_lmi, cegis_piecewise

    record = FuzzRecord(
        kind=kind, n=n, seed=seed,
        stable=kind == "cegis-shared",
        provenance="construction",
    )
    try:
        scenario = generate_cegis_scenario(kind, n, seed)
    except Exception as error:  # pragma: no cover - generator bug
        record.harness_errors.append(f"generate: {error!r}")
        return record
    synthesis = "sampled" if kind == "cegis-shared" else "full"
    try:
        lmi = assemble_centered_lmi(scenario.system)
        outcome = cegis_piecewise(
            scenario.system,
            synthesis=synthesis,
            max_rounds=max_rounds,
            max_iterations=max_iterations,
            lmi=lmi,
        )
    except Exception as error:
        record.harness_errors.append(f"cegis: {error!r}")
        return record
    record.synth["cegis"] = outcome.status
    record.checks += 1
    if outcome.status != scenario.expected:
        record.disagreements.append({
            "check": "cegis-verdict",
            "expected": scenario.expected,
            "got": outcome.status,
            "rounds": len(outcome.rounds),
            "cuts": outcome.cut_count,
        })
        return record
    if kind != "cegis-shared":
        return record

    x_star = _feasible_point(scenario, lmi, cap=lmi.cap)
    parent_margin = max(
        lmi.pos1.violation(x_star)[0], lmi.dec1.violation(x_star)[0]
    )
    for index, cut in enumerate(outcome.cuts):
        record.checks += 1
        violation, _ = cut.violation(x_star)
        # A 1x1 section of a satisfied matrix constraint is bounded by
        # the parent's own worst violation (Rayleigh quotient).
        if violation > parent_margin + 1e-9:
            record.disagreements.append({
                "check": "cegis-cut-excludes-witness",
                "cut_index": index,
                "cut_name": cut.name,
                "violation": float(violation),
                "parent_margin": float(parent_margin),
            })
    certificate = outcome.certificate
    if certificate is not None:
        record.checks += 1
        # Exact spot soundness: V_0 > 0 away from the equilibrium in
        # region 0, V_1 > 0 in region 1 (rational arithmetic only).
        probe0 = [w + 1 for w in certificate.w0]
        probe1 = [Fraction(0)] + list(certificate.w0[1:])
        if not (
            certificate.value(0, probe0) > 0
            and certificate.value(1, probe1) > 0
        ):
            record.disagreements.append({
                "check": "cegis-certificate-not-positive",
                "v0": str(certificate.value(0, probe0)),
                "v1": str(certificate.value(1, probe1)),
            })
    return record
