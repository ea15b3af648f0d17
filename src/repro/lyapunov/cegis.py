"""Counterexample-guided synthesis of piecewise-quadratic certificates.

The paper's Section VI-B.2 protocol — synthesize a piecewise-quadratic
Lyapunov candidate with an LMI solver, round it, hand it to an SMT
refuter — *always fails*, and the repo's earlier PRs diagnosed two
independent reasons:

1. at the case-study references both modes keep their equilibrium
   strictly inside their own operating region (bistability), so no
   global certificate exists — one exact solve for the mode-1
   equilibrium *proves* it (:func:`bistability_witness`);
2. even where a certificate exists, rounding the two mode matrices
   independently breaks the exact surface equality ``V_0 = V_1`` that
   the both-directions surface non-increase condition forces, so the
   refuter always finds a surface witness.

This module flips the negative result by closing the loop the paper
left open (Ravanbakhsh & Sankaranarayanan; Ahmed, Peruffo & Abate):

* **centered continuous certificates** — ``V_0`` is parametrized as
  ``(w - w_0)^T S_0 (w - w_0)`` around the *exact rational* mode-0
  equilibrium and ``V_1 = V_0 + 2 (g . w̄)(q . w̄)``, so surface
  equality holds *identically* and the mode-0 conditions become plain
  ``d``-dimensional definiteness checks;
* **structure-preserving exact snap** — only ``S_0`` and ``q`` are
  rounded; ``P̄_1`` is rebuilt from them in rational arithmetic, so
  the continuity identity survives the snap (rounding the two modes
  independently — the paper's protocol — is kept as ``snap=
  "independent"`` and still fails, which the regression suite pins);
* **exact S-procedure verification** — acceptance checks the matrix
  blocks ``N_pos = P̄_1 - E^T U E - eps J_c`` and ``N_dec = -(Ā_1^T
  P̄_1 + P̄_1 Ā_1) - E^T W E - eps J_c`` (and the two mode-0 blocks)
  for positive definiteness by Sylvester's criterion on the integer
  Bareiss kernels: an exact decision either way, with no search budget
  (the pointwise ICP refuter :func:`refute_certificate` is never on the
  acceptance path; the test suite uses it as an independent oracle
  against accepted certificates);
* **the CEGIS loop** — with ``synthesis="sampled"`` the synthesizer
  never sees the hard ``(d+1)``-dimensional mode-1 matrix blocks: it
  solves a finite relaxation over *sampled directions* (1x1 cuts), the
  verifier checks the full matrices, and the min-eigenvector of every
  refuted mode-1 block becomes a new cut, deduplicated by
  normalized-direction fingerprint.
  ``synthesis="full"`` keeps the matrix blocks in the synthesizer (the
  one-shot path used by the benchmarks).

Outcome on the reproduction ladder: validated certificates on the
reduced 3- and 5-state models (and the 10-state model) at *attracting*
references, with the paper's nominal-reference failure reproduced at
iteration 0 by the exact witness, before any synthesis. ``infeasible``
is only ever that exact proof; a float emptiness claim of the ellipsoid
that survives a cold re-solve ends the loop ``inconclusive``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ..exact import (
    RationalMatrix,
    solve_vector,
    sylvester_positive_definite,
    to_fraction,
)
from ..sdp import (
    CompiledLmiSystem,
    LmiBlock,
    solve_lmi_barrier,
    solve_lmi_ellipsoid,
    svec_basis,
)
from ..sdp.generic import cut_fingerprint, sampled_cut
from ..smt import (
    Atom,
    Box,
    IcpSolver,
    IcpStatus,
    Relation,
    Var,
    affine_term,
    quadratic_form_term,
    witness_point,
)

__all__ = [
    "CenteredLmi",
    "assemble_centered_lmi",
    "PiecewiseCertificate",
    "snap_certificate",
    "CertificateCheck",
    "CertificateVerification",
    "definiteness_conditions",
    "verify_certificate",
    "CegisWitness",
    "refute_certificate",
    "bistability_witness",
    "CegisRound",
    "CegisOutcome",
    "cegis_piecewise",
    "seed_directions",
]


# ----------------------------------------------------------------------
# Centered LMI assembly
# ----------------------------------------------------------------------
@dataclass
class CenteredLmi:
    """The centered continuous-encoding S-procedure LMI of one system.

    Decision layout: ``[svec(S0) | q (d+1) | U1 (3) | W1 (3)]`` where
    ``S0`` is the mode-0 *centered* quadratic, ``q`` the surface
    correction, and ``U1``/``W1`` the mode-1 S-procedure multipliers
    (the mode-0 conditions are unconditional after centering, so mode 0
    needs none).
    """

    system: object
    d: int
    da: int
    dim: int
    basis: list
    off_q: int
    off_u1: int
    off_w1: int
    #: exact rational mode-0 closed-loop equilibrium
    w0: list
    w0f: np.ndarray
    #: exact augmented surface vector (normal, offset), length ``da``
    g_exact: list
    g_bar: np.ndarray
    epsilon: float
    delta: float
    cap: float
    #: blocks the synthesizer always sees (mode-0, multipliers, cap)
    base_blocks: list
    #: the two hard mode-1 matrix blocks (sampled or kept whole)
    pos1: LmiBlock
    dec1: LmiBlock
    a1_bar: np.ndarray

    def blocks(self, synthesis: str = "full") -> list[LmiBlock]:
        """Synthesizer block list for ``synthesis`` in {"full","sampled"}."""
        if synthesis == "full":
            return self.base_blocks + [self.pos1, self.dec1]
        if synthesis == "sampled":
            return list(self.base_blocks)
        raise ValueError(f"unknown synthesis mode {synthesis!r}")


def assemble_centered_lmi(
    system,
    epsilon: float = 1e-3,
    delta: float = 1e-3,
    cap: float = 100.0,
) -> CenteredLmi:
    """Compile the centered continuous-encoding LMI for a 2-mode system.

    ``epsilon`` is the quadratic floor coefficient on the mode-1 blocks
    (``eps * (w - w0)^T (w - w0)`` in augmented form), ``delta`` the
    definiteness margin on the mode-0 blocks, and ``cap`` the
    normalization ``S0 ⪯ cap I`` that keeps the feasible cone bounded.
    """
    if len(system.modes) != 2:
        raise ValueError("centered CEGIS assembly needs exactly two modes")
    halfspaces = system.modes[0].region.halfspaces
    if len(halfspaces) != 1:
        raise ValueError("mode-0 region must be a single halfspace")
    d = system.dimension
    da = d + 1
    f0, f1 = system.modes[0].flow, system.modes[1].flow
    w0 = solve_vector(
        RationalMatrix.from_numpy(f0.a),
        [-to_fraction(x) for x in f0.b.tolist()],
    )
    w0f = np.array([float(x) for x in w0])
    h = halfspaces[0]
    g_exact = [to_fraction(x) for x in h.normal] + [to_fraction(h.offset)]
    g_bar = np.append(h.normal_float(), float(h.offset))
    basis = svec_basis(d)
    m_sym = len(basis)
    off_q = m_sym
    off_u1 = off_q + da
    off_w1 = off_u1 + 3
    dim = off_w1 + 3
    # P̄_0(x) = Z^T S0 Z with Z = [I, -w0]: V_0(w) = (w-w0)^T S0 (w-w0).
    z = np.hstack([np.eye(d), -w0f.reshape(-1, 1)])

    def zeros(n):
        return [np.zeros((n, n)) for _ in range(dim)]

    def p1_coefficients():
        out = zeros(da)
        for k, e in enumerate(basis):
            out[k] += z.T @ e @ z
        for k in range(da):
            sym = np.zeros((da, da))
            sym[:, k] += g_bar
            sym[k, :] += g_bar
            out[off_q + k] += sym
        return out

    def subtract_s_procedure(coefficients, offset):
        # Region 1 is the complement halfspace: s = -(g . w̄) >= 0 there.
        rows = [-g_bar, np.eye(da)[-1]]
        for var, r1, r2 in ((0, 0, 0), (1, 0, 1), (2, 1, 1)):
            term = np.outer(rows[r1], rows[r2])
            term = 0.5 * (term + term.T) * (2.0 if r1 != r2 else 1.0)
            coefficients[offset + var] -= term

    j_c = np.zeros((da, da))
    j_c[:d, :d] = np.eye(d)
    j_c[:d, d] = -w0f
    j_c[d, :d] = -w0f
    j_c[d, d] = float(w0f @ w0f)
    a1_bar = np.zeros((da, da))
    a1_bar[:d, :d] = f1.a
    a1_bar[:d, d] = f1.b

    base: list[LmiBlock] = []
    c = zeros(d)
    for k, e in enumerate(basis):
        c[k] += e
    base.append(LmiBlock(np.zeros((d, d)), c, margin=delta, name="pos0"))
    c = zeros(d)
    for k, e in enumerate(basis):
        c[k] += -(f0.a.T @ e + e @ f0.a)
    base.append(LmiBlock(np.zeros((d, d)), c, margin=delta, name="dec0"))
    for offset, prefix in ((off_u1, "u1"), (off_w1, "w1")):
        for k in range(3):
            c1 = [np.zeros((1, 1)) for _ in range(dim)]
            c1[offset + k][0, 0] = 1.0
            base.append(LmiBlock(np.zeros((1, 1)), c1, name=f"{prefix}[{k}]"))
    c = zeros(d)
    for k, e in enumerate(basis):
        c[k] -= e
    base.append(LmiBlock(cap * np.eye(d), c, name="cap"))

    c = p1_coefficients()
    subtract_s_procedure(c, off_u1)
    pos1 = LmiBlock(-epsilon * j_c, c, name="pos1")
    c = [-(a1_bar.T @ m + m @ a1_bar) for m in p1_coefficients()]
    subtract_s_procedure(c, off_w1)
    dec1 = LmiBlock(-epsilon * j_c, c, name="dec1")

    return CenteredLmi(
        system=system, d=d, da=da, dim=dim, basis=basis,
        off_q=off_q, off_u1=off_u1, off_w1=off_w1,
        w0=w0, w0f=w0f, g_exact=g_exact, g_bar=g_bar,
        epsilon=epsilon, delta=delta, cap=cap,
        base_blocks=base, pos1=pos1, dec1=dec1, a1_bar=a1_bar,
    )


def seed_directions(lmi: CenteredLmi) -> list[np.ndarray]:
    """Initial sample directions for the sampled-relaxation synthesizer.

    The augmented coordinate axes plus the two physically meaningful
    rays: the mode-0 equilibrium ``w̄_0`` and the mode-1 *virtual*
    equilibrium ``w̄_1`` (where the mode-1 decrease form is exactly
    singular — without sampling it, early iterates are refuted there
    every time).
    """
    seeds = [np.eye(lmi.da)[i] for i in range(lmi.da)]
    seeds.append(np.append(lmi.w0f, 1.0))
    f1 = lmi.system.modes[1].flow
    try:
        w1 = np.linalg.solve(f1.a, -f1.b)
    except np.linalg.LinAlgError:  # pragma: no cover - singular mode 1
        return seeds
    seeds.append(np.append(w1, 1.0))
    return seeds


# ----------------------------------------------------------------------
# Exact certificates
# ----------------------------------------------------------------------
@dataclass
class PiecewiseCertificate:
    """An exact rational piecewise-quadratic certificate candidate.

    ``p0_bar``/``p1_bar`` are the augmented quadratic matrices of the
    two modes (``V_i(w) = w̄^T P̄_i w̄``); with the ``"structured"``
    snap they satisfy ``P̄_1 = P̄_0 + sym(ḡ q^T)`` *identically*, so
    ``V_0 = V_1`` on the switching surface by construction.
    """

    s0: RationalMatrix
    q: list
    p0_bar: RationalMatrix
    p1_bar: RationalMatrix
    #: mode-1 S-procedure multipliers (positivity / decrease)
    u1: list
    w1: list
    #: the float iterate the certificate was snapped from
    x: np.ndarray
    sigfigs: int
    snap: str
    w0: list
    g: list

    def value(self, mode: int, point) -> Fraction:
        """Exact ``V_mode`` at a rational point ``w`` (length ``d``)."""
        p_bar = self.p0_bar if mode == 0 else self.p1_bar
        w_bar = [to_fraction(v) for v in point] + [Fraction(1)]
        return _augmented_value(p_bar, w_bar)

    def lie_value(self, mode: int, flow, point) -> Fraction:
        """Exact ``d/dt V_mode`` along ``flow`` at a rational point."""
        p_bar = self.p0_bar if mode == 0 else self.p1_bar
        d = len(self.w0)
        a_bar = _augmented_flow_exact(flow, d)
        lie = (a_bar.transpose() @ p_bar + p_bar @ a_bar).symmetrize()
        w_bar = [to_fraction(v) for v in point] + [Fraction(1)]
        return _augmented_value(lie, w_bar)

    def surface_defect(self) -> RationalMatrix:
        """``P̄_1 - P̄_0 - sym(ḡ q^T)`` — exactly zero iff continuity
        survived the snap (always, for the structured snap)."""
        da = self.p0_bar.rows
        correction = RationalMatrix(
            [
                [
                    self.g[i] * self.q[j] + self.q[i] * self.g[j]
                    for j in range(da)
                ]
                for i in range(da)
            ]
        )
        return (self.p1_bar - self.p0_bar - correction).symmetrize()


def _augmented_value(p_bar: RationalMatrix, w_bar: list) -> Fraction:
    total = Fraction(0)
    n = p_bar.rows
    for i in range(n):
        row = sum(p_bar[i, j] * w_bar[j] for j in range(n))
        total += w_bar[i] * row
    return total


def _augmented_flow_exact(flow, d: int) -> RationalMatrix:
    b = [to_fraction(v) for v in flow.b.tolist()]
    rows = [
        [to_fraction(flow.a[i, j]) for j in range(d)] + [b[i]]
        for i in range(d)
    ]
    rows.append([Fraction(0)] * (d + 1))
    return RationalMatrix(rows)


def snap_certificate(
    lmi: CenteredLmi,
    x: np.ndarray,
    sigfigs: int = 10,
    snap: str = "structured",
) -> PiecewiseCertificate:
    """Round a float iterate into an exact rational certificate.

    ``snap="structured"`` (the flip): round only ``S0`` and ``q``, then
    rebuild ``P̄_0`` from the exact equilibrium and ``P̄_1 = P̄_0 +
    sym(ḡ q^T)`` in rational arithmetic — surface continuity is exact
    by construction. ``snap="independent"`` reproduces the paper's
    protocol: the two augmented mode matrices are rounded separately,
    which generically breaks the surface identity and is why the
    Section VI-B.2 validation always fails.
    """
    d, da, basis = lmi.d, lmi.da, lmi.basis
    s0_float = sum(x[k] * e for k, e in enumerate(basis))
    q_float = x[lmi.off_q:lmi.off_q + da]
    u1 = [
        max(Fraction(0), to_fraction(round(float(v), 12)))
        for v in x[lmi.off_u1:lmi.off_u1 + 3]
    ]
    w1 = [
        max(Fraction(0), to_fraction(round(float(v), 12)))
        for v in x[lmi.off_w1:lmi.off_w1 + 3]
    ]
    s0 = RationalMatrix.from_numpy(s0_float).round_sigfigs(
        sigfigs
    ).symmetrize()
    q = [to_fraction(v) for v in np.round(q_float, sigfigs).tolist()]
    if snap == "structured":
        s0_w0 = [
            sum(s0[i, j] * lmi.w0[j] for j in range(d)) for i in range(d)
        ]
        p0_bar = RationalMatrix(
            [[s0[i, j] for j in range(d)] + [-s0_w0[i]] for i in range(d)]
            + [
                [-s0_w0[i] for i in range(d)]
                + [sum(lmi.w0[i] * s0_w0[i] for i in range(d))]
            ]
        )
        correction = RationalMatrix(
            [
                [
                    lmi.g_exact[i] * q[j] + q[i] * lmi.g_exact[j]
                    for j in range(da)
                ]
                for i in range(da)
            ]
        )
        p1_bar = (p0_bar + correction).symmetrize()
    elif snap == "independent":
        # Paper protocol: round each augmented mode matrix on its own.
        z = np.hstack([np.eye(d), -lmi.w0f.reshape(-1, 1)])
        p0_float = z.T @ s0_float @ z
        correction_float = np.outer(lmi.g_bar, q_float)
        p1_float = p0_float + correction_float + correction_float.T
        p0_bar = RationalMatrix.from_numpy(p0_float).round_sigfigs(
            sigfigs
        ).symmetrize()
        p1_bar = RationalMatrix.from_numpy(p1_float).round_sigfigs(
            sigfigs
        ).symmetrize()
    else:
        raise ValueError(f"unknown snap mode {snap!r}")
    return PiecewiseCertificate(
        s0=s0, q=q, p0_bar=p0_bar, p1_bar=p1_bar, u1=u1, w1=w1,
        x=np.asarray(x, dtype=float).copy(), sigfigs=sigfigs, snap=snap,
        w0=list(lmi.w0), g=list(lmi.g_exact),
    )


# ----------------------------------------------------------------------
# Exact verification (acceptance path)
# ----------------------------------------------------------------------
@dataclass
class CertificateCheck:
    """One verification condition: exact verdict plus cut direction.

    Every verdict is decided in rational arithmetic. ``direction`` is
    set only on a refuted definiteness condition: the float eigenvector
    of the refuted matrix's smallest eigenvalue, which the loop turns
    into a sampled cut.
    """

    name: str
    verdict: bool
    direction: np.ndarray | None = None


@dataclass
class CertificateVerification:
    """Aggregate verification outcome of one certificate."""

    checks: list
    time: float = 0.0

    @property
    def valid(self) -> bool:
        return all(c.verdict for c in self.checks)

    @property
    def failed(self) -> list:
        return [c for c in self.checks if not c.verdict]

    def verdict_map(self) -> dict:
        return {c.name: c.verdict for c in self.checks}


def _definiteness_check(name: str, matrix: RationalMatrix) -> CertificateCheck:
    """Exact ``matrix ≻ 0`` by Sylvester's criterion (integer minors).

    Floats never decide the verdict; they only supply the cut direction
    of a refuted matrix.
    """
    if sylvester_positive_definite(matrix):
        return CertificateCheck(name=name, verdict=True)
    _, eigenvectors = np.linalg.eigh(matrix.to_numpy())
    return CertificateCheck(
        name=name, verdict=False, direction=eigenvectors[:, 0]
    )


def _s_procedure_matrix(lmi: CenteredLmi, multipliers: list) -> RationalMatrix:
    """``E^T M E`` for the region-1 rows ``E = [-ḡ ; e_last]`` exactly."""
    da = lmi.da
    g = [-v for v in lmi.g_exact]
    e_last = [Fraction(0)] * lmi.d + [Fraction(1)]
    rows = [g, e_last]
    out = RationalMatrix.zeros(da, da)
    for var, r1, r2 in ((0, 0, 0), (1, 0, 1), (2, 1, 1)):
        term = RationalMatrix(
            [
                [
                    rows[r1][i] * rows[r2][j]
                    + (rows[r1][j] * rows[r2][i] if r1 != r2 else 0)
                    for j in range(da)
                ]
                for i in range(da)
            ]
        )
        out = out + term.scale(to_fraction(multipliers[var]))
    return out.symmetrize()


def _distance_form_exact(lmi: CenteredLmi) -> RationalMatrix:
    """``J_c`` for the exact center ``w0``: ``(w-w0)^T(w-w0)`` augmented."""
    d = lmi.d
    rows = [
        [Fraction(1) if i == j else Fraction(0) for j in range(d)]
        + [-lmi.w0[i]]
        for i in range(d)
    ]
    rows.append(
        [-lmi.w0[i] for i in range(d)] + [sum(v * v for v in lmi.w0)]
    )
    return RationalMatrix(rows)


def definiteness_conditions(
    lmi: CenteredLmi, certificate: PiecewiseCertificate
) -> dict[str, RationalMatrix]:
    """The exact matrices a valid certificate makes positive definite.

    * ``pos0``/``dec0`` — ``S_0`` and ``-(A_0^T S_0 + S_0 A_0)``
      (``d``-dimensional);
    * ``pos1``/``dec1`` — the augmented S-procedure blocks ``N_pos``
      and ``N_dec`` (``d+1``-dimensional).
    """
    a0 = RationalMatrix.from_numpy(lmi.system.modes[0].flow.a)
    s0 = certificate.s0
    p1_bar = certificate.p1_bar
    a1_bar = _augmented_flow_exact(lmi.system.modes[1].flow, lmi.d)
    lie1 = (a1_bar.transpose() @ p1_bar + p1_bar @ a1_bar).symmetrize()
    floor = _distance_form_exact(lmi).scale(to_fraction(lmi.epsilon))
    return {
        "pos0": s0,
        "dec0": (a0.transpose() @ s0 + s0 @ a0).scale(-1).symmetrize(),
        "pos1": (
            p1_bar - _s_procedure_matrix(lmi, certificate.u1) - floor
        ).symmetrize(),
        "dec1": (
            lie1.scale(-1) - _s_procedure_matrix(lmi, certificate.w1) - floor
        ).symmetrize(),
    }


def verify_certificate(
    lmi: CenteredLmi, certificate: PiecewiseCertificate
) -> CertificateVerification:
    """Exactly verify a certificate via the S-procedure matrix blocks.

    The pointwise region-1 conditions follow from ``N_pos ⪰ eps J_c``
    and ``N_dec ⪰ eps J_c`` with exactly-nonnegative multipliers (the
    S-procedure), so verification never needs the intractable pointwise
    region queries — those stay in :func:`refute_certificate`. Every
    check is decided in rational arithmetic:

    * ``surface``   — the continuity defect is exactly zero;
    * ``multipliers`` — all six multipliers are exactly nonnegative;
    * ``pos0``/``dec0``/``pos1``/``dec1`` — the matrices of
      :func:`definiteness_conditions` are positive definite (Sylvester
      on the integer Bareiss kernels).
    """
    start = time.perf_counter()
    defect = certificate.surface_defect()
    checks = [
        CertificateCheck(
            name="surface",
            verdict=all(v == 0 for v in defect.iter_entries()),
        ),
        CertificateCheck(
            name="multipliers",
            verdict=all(v >= 0 for v in [*certificate.u1, *certificate.w1]),
        ),
    ]
    checks += [
        _definiteness_check(name, matrix)
        for name, matrix in definiteness_conditions(lmi, certificate).items()
    ]
    return CertificateVerification(
        checks=checks, time=time.perf_counter() - start
    )


# ----------------------------------------------------------------------
# Pointwise refuter (witness path)
# ----------------------------------------------------------------------
@dataclass
class CegisWitness:
    """An exact refutation witness: point, condition, exact violation.

    ``violation`` is computed in rational arithmetic from the exact
    certificate (positive means the Lyapunov condition really fails at
    the point — the property suite asserts this for every witness the
    refuter emits).
    """

    condition: str
    point: dict
    violation: Fraction
    status: str


def refute_certificate(
    certificate: PiecewiseCertificate,
    system,
    box_radius: float = 12.0,
    max_boxes: int = 20_000,
    delta: float = 1e-6,
) -> list[CegisWitness]:
    """Hunt pointwise counterexamples in the mode-1 region via ICP.

    Each query asks for a region-1 point where a Lyapunov condition
    *fails* (``V_1 <= 0`` or ``dV_1/dt >= 0``); a SAT answer yields an
    exact rational witness whose violation is re-derived with
    :mod:`repro.exact` arithmetic before it is trusted. Bounded budget:
    UNSAT/UNKNOWN answers simply produce no witness (the exact
    acceptance path is :func:`verify_certificate`, not this refuter).
    """
    d = len(certificate.w0)
    variables = [Var(f"w{i}") for i in range(d)]
    region = system.modes[1].region.to_atoms(variables)
    box = Box.cube([v.name for v in variables], -box_radius, box_radius)
    solver = IcpSolver(delta=delta, max_boxes=max_boxes)
    flow1 = system.modes[1].flow
    a1_bar = _augmented_flow_exact(flow1, d)
    lie1 = (
        a1_bar.transpose() @ certificate.p1_bar
        + certificate.p1_bar @ a1_bar
    ).symmetrize()
    queries = {
        "pos1": (_augmented_term(certificate.p1_bar, variables), 1),
        "dec1": (_augmented_term(lie1, variables), -1),
    }
    witnesses: list[CegisWitness] = []
    for condition, (term, sign) in queries.items():
        # pos1 fails where V1 <= 0; dec1 fails where Lie V1 >= 0.
        query = Atom(term if sign > 0 else -term, Relation.LE)
        result = solver.check(region + [query], box)
        if result.status not in (IcpStatus.SAT, IcpStatus.DELTA_SAT):
            continue
        point = witness_point(result)
        if point is None:  # pragma: no cover - SAT always carries one
            continue
        matrix = certificate.p1_bar if condition == "pos1" else lie1
        w_bar = [point[f"w{i}"] for i in range(d)] + [Fraction(1)]
        value = _augmented_value(matrix, w_bar)
        violation = -value if condition == "pos1" else value
        witnesses.append(
            CegisWitness(
                condition=condition,
                point=point,
                violation=violation,
                status=result.status.name.lower(),
            )
        )
    return witnesses


def _augmented_term(p_bar: RationalMatrix, variables):
    """``w̄^T P̄ w̄`` as an SMT term over the state variables."""
    d = len(variables)
    quadratic = p_bar.submatrix(range(d), range(d))
    linear = [2 * p_bar[i, d] for i in range(d)]
    return quadratic_form_term(quadratic, variables) + affine_term(
        linear, variables, p_bar[d, d]
    )


# ----------------------------------------------------------------------
# Exact infeasibility (bistability witness)
# ----------------------------------------------------------------------
def bistability_witness(lmi: CenteredLmi) -> list | None:
    """The augmented mode-1 equilibrium ``w̄_1`` if it refutes every
    candidate, else ``None``.

    ``w_1`` solves ``A_1 w + b_1 = 0`` over the same rationals the
    verifier uses (:func:`_augmented_flow_exact`), so ``Ā_1 w̄_1 = 0``
    and the Lie term of every ``P̄_1`` vanishes at ``w̄_1``. When ``w_1``
    lies in region 1, ``s = -ḡ . w̄_1 >= 0``, and every multiplier
    triple ``W >= 0`` gives

        w̄_1^T N_dec w̄_1 = -(W_0 s^2 + 2 W_1 s + W_2) - eps |w_1 - w_0|^2
                        <= 0,

    so the ``dec1`` check of :func:`verify_certificate` fails for every
    certificate whose ``multipliers`` check passes: an exact proof that
    no certificate exists. ``None`` when ``A_1`` is singular or ``w_1``
    lies strictly in region 0 (``s < 0``; ``-1.5`` to within 1e-15 at
    every attracting reference).
    """
    d = lmi.d
    a1_bar = _augmented_flow_exact(lmi.system.modes[1].flow, d)
    try:
        w1 = solve_vector(
            a1_bar.submatrix(range(d), range(d)),
            [-a1_bar[i, d] for i in range(d)],
        )
    except ValueError:  # singular A_1: no unique equilibrium
        return None
    w1_bar = w1 + [Fraction(1)]
    s = -sum(g * w for g, w in zip(lmi.g_exact, w1_bar))
    return w1_bar if s >= 0 else None


# ----------------------------------------------------------------------
# The loop
# ----------------------------------------------------------------------
@dataclass
class CegisRound:
    """Provenance of one CEGIS round (synthesize, snap, verify, cut)."""

    index: int
    synth_iterations: int
    synth_time: float
    worst_violation: float
    polished: bool
    proved_infeasible: bool
    checks: dict = field(default_factory=dict)
    new_cuts: list = field(default_factory=list)
    cut_total: int = 0
    verify_time: float = 0.0
    #: which exact proof set ``proved_infeasible``: ``"equilibrium"``
    #: (:func:`bistability_witness`) or ``None``. Not in the provenance,
    #: which records decisions, not the mechanism behind them.
    proof: str | None = None


@dataclass
class CegisOutcome:
    """Result of a CEGIS campaign on one switched system.

    ``status`` is one of ``"validated"`` (sound certificate found),
    ``"infeasible"`` (exactly proved: :func:`bistability_witness` fired
    — the paper's nominal-reference negative result), ``"inconclusive"``
    (the ellipsoid claimed the synthesizer's LMI empty, from the origin
    too, with no exact proof: a float claim about a ball of radius
    ``initial_radius``, not a verdict), ``"stalled"`` (refuted but no
    new cut available, e.g. the independent-rounding protocol whose
    surface defect no cut can repair) or ``"exhausted"`` (round budget
    spent).
    """

    status: str
    synthesis: str
    snap: str
    rounds: list
    certificate: PiecewiseCertificate | None
    cut_count: int
    total_time: float
    epsilon: float
    delta: float
    cap: float
    #: the accumulated sampled cut blocks (seed + refutation-derived) —
    #: kept on the outcome so soundness harnesses can re-evaluate them
    #: against known-feasible points (cuts must never exclude one).
    cuts: list = field(default_factory=list)

    @property
    def validated(self) -> bool:
        return self.status == "validated"

    def provenance(self) -> dict:
        """Deterministic structural provenance (digest input).

        Wall times, violation floats and solver iteration counts are
        excluded on purpose: the digest must be stable across reruns
        and across BLAS builds, so it covers only the decision
        structure — statuses, per-round verdicts, and the normalized
        cut fingerprints.
        """
        return {
            "status": self.status,
            "synthesis": self.synthesis,
            "snap": self.snap,
            "cut_count": self.cut_count,
            "rounds": [
                {
                    "index": r.index,
                    "proved_infeasible": r.proved_infeasible,
                    "checks": {
                        k: r.checks[k] for k in sorted(r.checks)
                    },
                    # The loop takes no pointwise witnesses; the key
                    # stays, at 0, so the pinned digests still match.
                    "witnesses": 0,
                    "new_cuts": [
                        [name, list(direction)]
                        for name, direction in r.new_cuts
                    ],
                    "cut_total": r.cut_total,
                }
                for r in self.rounds
            ],
        }

    def digest(self) -> str:
        """SHA-256 of the canonical provenance JSON."""
        payload = json.dumps(
            self.provenance(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def cegis_piecewise(
    system,
    synthesis: str = "sampled",
    snap: str = "structured",
    max_rounds: int = 40,
    sigfigs: int = 10,
    epsilon: float = 1e-3,
    delta: float = 1e-3,
    cap: float = 100.0,
    initial_radius: float = 200.0,
    max_iterations: int = 30_000,
    polish_outer: int = 60,
    target_margin: float = 0.5,
    warm_start: bool = True,
    fingerprint_digits: int = 6,
    lmi: CenteredLmi | None = None,
) -> CegisOutcome:
    """Run the counterexample-guided loop on one 2-mode switched system.

    Before the first round, :func:`bistability_witness` checks exactly
    whether the mode-1 equilibrium refutes every candidate. If it does,
    the loop ends in round 1 with status ``"infeasible"``, zero new cuts
    and no synthesis — on the paper's nominal references this is the
    Section VI-B.2 negative result the regression suite pins.

    Otherwise, per round: (1) synthesize over the current block set —
    the full matrix system (``synthesis="full"``) or the finite sampled
    relaxation (``"sampled"``) — with the deep-cut ellipsoid method
    warm-started from the previous round's iterate, polished by the
    level-shift barrier; (2) snap the iterate to an exact rational
    certificate; (3) verify it exactly (:func:`verify_certificate`);
    (4) on refutation, convert every counterexample direction (the
    min-eigenvectors of refuted mode-1 blocks) into a sampled 1x1 cut,
    deduplicated by normalized-direction fingerprint, and resynthesize.

    The ellipsoid's emptiness claim covers only the ball of radius
    ``initial_radius`` around its start, so a warm-started round that
    claims it is solved once more from the origin; if that claims it
    too, the loop ends ``"inconclusive"``, never ``"infeasible"``.
    """
    start = time.perf_counter()
    if lmi is None:
        lmi = assemble_centered_lmi(
            system, epsilon=epsilon, delta=delta, cap=cap
        )
    cuts: list[LmiBlock] = []
    seen: set = set()
    if synthesis == "sampled":
        for direction in seed_directions(lmi):
            for block in (lmi.pos1, lmi.dec1):
                fingerprint = cut_fingerprint(
                    block.name, direction, digits=fingerprint_digits
                )
                if fingerprint in seen:
                    continue
                seen.add(fingerprint)
                cuts.append(sampled_cut(block, direction))
    compiled = CompiledLmiSystem(lmi.blocks(synthesis), lmi.dim).with_cuts(
        cuts
    )
    rounds: list[CegisRound] = []
    certificate: PiecewiseCertificate | None = None
    previous_x: np.ndarray | None = None
    status = "exhausted"
    witness_start = time.perf_counter()
    if bistability_witness(lmi) is not None:
        status = "infeasible"
        rounds.append(
            CegisRound(
                index=1,
                synth_iterations=0,
                synth_time=time.perf_counter() - witness_start,
                worst_violation=float("nan"),
                polished=False,
                proved_infeasible=True,
                cut_total=len(cuts),
                proof="equilibrium",
            )
        )
        max_rounds = 0  # no candidate can pass dec1: synthesize nothing

    def solve_from(center: np.ndarray | None):
        return solve_lmi_ellipsoid(
            compiled.blocks,
            dimension=lmi.dim,
            initial_radius=initial_radius,
            max_iterations=max_iterations,
            raise_on_infeasible=False,
            compiled=compiled,
            sweep_every=16,
            initial_center=center,
        )

    for index in range(1, max_rounds + 1):
        synth_start = time.perf_counter()
        center = previous_x if warm_start else None
        result = solve_from(center)
        iterations = result.iterations
        if result.proved_infeasible and center is not None:
            # The claim covers only the ball around the warm start.
            result = solve_from(None)
            iterations += result.iterations
        x = result.x
        polished = False
        if not result.proved_infeasible and polish_outer > 0:
            polish = solve_lmi_barrier(
                None,
                dimension=lmi.dim,
                radius=initial_radius,
                target_margin=target_margin,
                max_outer=polish_outer,
                initial=x,
                compiled=compiled,
            )
            if -polish.t_star <= result.worst_violation:
                x = polish.x
                polished = True
        synth_time = time.perf_counter() - synth_start
        record = CegisRound(
            index=index,
            synth_iterations=iterations,
            synth_time=synth_time,
            worst_violation=float(result.worst_violation),
            polished=polished,
            proved_infeasible=False,
            cut_total=len(cuts),
        )
        rounds.append(record)
        if result.proved_infeasible:
            status = "inconclusive"
            break
        previous_x = x
        certificate = snap_certificate(lmi, x, sigfigs=sigfigs, snap=snap)
        verification = verify_certificate(lmi, certificate)
        record.checks = verification.verdict_map()
        record.verify_time = verification.time
        if verification.valid:
            status = "validated"
            break
        directions: list[tuple[str, np.ndarray]] = []
        for check in verification.failed:
            if check.direction is not None and check.name in (
                "pos1",
                "dec1",
            ):
                directions.append((check.name, check.direction))
        new_cuts: list[LmiBlock] = []
        for name, direction in directions:
            block = lmi.pos1 if name == "pos1" else lmi.dec1
            fingerprint = cut_fingerprint(
                block.name, direction, digits=fingerprint_digits
            )
            if fingerprint in seen:
                continue
            seen.add(fingerprint)
            new_cuts.append(sampled_cut(block, direction))
            record.new_cuts.append(fingerprint)
        if not new_cuts:
            status = "stalled"
            break
        cuts.extend(new_cuts)
        record.cut_total = len(cuts)
        compiled = compiled.with_cuts(new_cuts)
    return CegisOutcome(
        status=status,
        synthesis=synthesis,
        snap=snap,
        rounds=rounds,
        certificate=certificate,
        cut_count=len(cuts),
        total_time=time.perf_counter() - start,
        epsilon=lmi.epsilon,
        delta=lmi.delta,
        cap=lmi.cap,
        cuts=cuts,
    )
