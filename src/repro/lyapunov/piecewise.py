"""Piecewise-quadratic Lyapunov synthesis for the switched system.

This is the paper's Section VI-B.2 experiment: attempt to certify the
*switched* closed loop with a piecewise-quadratic function

    V(w) = w_bar^T P_i w_bar    on region R_i,   w_bar = (w, 1),

synthesized from an S-procedure LMI system (Johansson--Rantzer style,
cf. Oehlerking Thm. 3.10) with two switching-surface encodings:

* ``continuous`` — ``P_1 = P_0 + g_bar q^T + q g_bar^T``: the values
  agree *exactly* on the surface ``g_bar . w_bar = 0``;
* ``relaxed``    — independent ``P_0, P_1`` with Finsler-multiplier
  non-increase constraints across the surface in both directions.

The LMI system is compiled once into stacked coefficient tensors
(:class:`repro.sdp.CompiledLmiSystem`) and solved by
:func:`repro.sdp.solve_lmi_hybrid`: a deep-cut ellipsoid burn-in whose
best iterate warm-starts a level-shift barrier polish. Like the
numerical solvers in the paper, :func:`synthesize_piecewise` returns its
best iterate as a *candidate* even when convergence is not certified.
Exact validation of the surface condition then fails on rounded
candidates — the negative result the paper reports.

When the burn-in's deep cut strips the whole search ball, the candidate
records ``info["proved_infeasible"]``. That is the ellipsoid's float
emptiness claim, not an exact proof; the exact proof that no
certificate exists at the nominal references is the equilibrium
witness of :func:`repro.lyapunov.bistability_witness`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..sdp import CompiledLmiSystem, LmiBlock, solve_lmi_hybrid, svec_basis
from ..systems import PwaSystem

__all__ = ["PiecewiseCandidate", "synthesize_piecewise"]

ENCODINGS = ("continuous", "relaxed")


@dataclass
class PiecewiseCandidate:
    """A candidate piecewise-quadratic Lyapunov function (augmented form)."""

    p: list  # one (d+1) x (d+1) symmetric matrix per mode
    encoding: str
    feasible: bool
    iterations: int
    worst_violation: float
    synthesis_time: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def dimension(self) -> int:
        """The underlying (non-augmented) state dimension."""
        return self.p[0].shape[0] - 1

    def value(self, mode: int, w: np.ndarray) -> float:
        """``V_mode(w)`` evaluated on the augmented vector."""
        w_bar = np.append(np.asarray(w, dtype=float), 1.0)
        return float(w_bar @ self.p[mode] @ w_bar)


def _augmented_flow(system: PwaSystem, mode: int) -> np.ndarray:
    flow = system.modes[mode].flow
    d = flow.dimension
    out = np.zeros((d + 1, d + 1))
    out[:d, :d] = flow.a
    out[:d, d] = flow.b
    return out


def _surface_vector(system: PwaSystem) -> np.ndarray:
    """``g_bar`` with region 0 = {g_bar . w_bar > 0} (single half-space)."""
    halfspaces = system.modes[0].region.halfspaces
    if len(halfspaces) != 1:
        raise ValueError(
            "piecewise synthesis expects single-half-space regions "
            f"(mode 0 has {len(halfspaces)})"
        )
    h = halfspaces[0]
    return np.append(h.normal_float(), float(h.offset))


def _distance_form(w_star: np.ndarray) -> np.ndarray:
    """``||w - w*||^2`` as a quadratic form on the augmented vector."""
    d = len(w_star)
    out = np.zeros((d + 1, d + 1))
    out[:d, :d] = np.eye(d)
    out[:d, d] = -w_star
    out[d, :d] = -w_star
    out[d, d] = float(w_star @ w_star)
    return out


def synthesize_piecewise(
    system: PwaSystem,
    encoding: str = "continuous",
    epsilon: float = 1e-3,
    max_iterations: int = 60_000,
    initial_radius: float = 50.0,
    tolerance: float = 1e-6,
) -> PiecewiseCandidate:
    """Set up and run the S-procedure LMI system for the switched loop.

    ``tolerance`` relaxes every block to ``F(x) ⪰ -tolerance I``. This
    mirrors the numerical SDP solvers the paper used: the Lyapunov
    decrease condition is *exactly* singular at the equilibrium
    direction, so a strictly feasible point does not exist and solvers
    accept a tolerance-feasible iterate — which exact validation then
    rejects (the paper's Section VI-B.2 observation).

    The system is solved by :func:`repro.sdp.solve_lmi_hybrid` in a
    ball of radius ``initial_radius`` with ``max_iterations`` ellipsoid
    iterations. ``info["proved_infeasible"]`` is the burn-in's float
    emptiness claim: numerical evidence, not an exact proof.
    """
    if encoding not in ENCODINGS:
        raise ValueError(f"encoding must be one of {ENCODINGS}")
    if system.n_modes != 2:
        raise ValueError("the case-study synthesis handles exactly two modes")
    start = time.perf_counter()
    d = system.dimension
    da = d + 1
    g_bar = _surface_vector(system)
    w_star = system.modes[0].flow.equilibrium()
    j_c = _distance_form(w_star)
    basis = svec_basis(da)
    m_sym = len(basis)

    # --- decision-vector layout ---------------------------------------
    # [ svec(P0) | svec(P1) or q | U0 (3) | U1 (3) | W0 (3) | W1 (3)
    #   | m1 (da) m2 (da) (relaxed only) ]
    offsets = {"p0": 0}
    cursor = m_sym
    if encoding == "continuous":
        offsets["q"] = cursor
        cursor += da
    else:
        offsets["p1"] = cursor
        cursor += m_sym
    for name in ("u0", "u1", "w0", "w1"):
        offsets[name] = cursor
        cursor += 3
    if encoding == "relaxed":
        offsets["m1"] = cursor
        cursor += da
        offsets["m2"] = cursor
        cursor += da
    dim = cursor

    def zero_coeffs() -> list[np.ndarray]:
        return [np.zeros((da, da)) for _ in range(dim)]

    def p_coefficients(mode: int, sign: float = 1.0) -> list[np.ndarray]:
        """Coefficient matrices of ``sign * P_mode`` in the decision vars."""
        coeffs = zero_coeffs()
        for k, e in enumerate(basis):
            coeffs[offsets["p0"] + k] += sign * e
        if mode == 1:
            if encoding == "continuous":
                for k in range(da):
                    sym = np.zeros((da, da))
                    sym[:, k] += g_bar
                    sym[k, :] += g_bar
                    coeffs[offsets["q"] + k] += sign * sym
            else:
                coeffs = zero_coeffs()
                for k, e in enumerate(basis):
                    coeffs[offsets["p1"] + k] += sign * e
        return coeffs

    def add_s_procedure(coeffs: list[np.ndarray], slot: str, mode: int) -> None:
        """Subtract ``E_i^T U E_i`` with ``E_i = [s*g_bar; e_last]``."""
        sign = 1.0 if mode == 0 else -1.0
        g = sign * g_bar
        e_last = np.zeros(da)
        e_last[-1] = 1.0
        rows = [g, e_last]
        # U = [[u0, u1], [u1, u2]] with entrywise-nonnegative entries.
        pairs = [(0, 0, 0), (1, 0, 1), (2, 1, 1)]
        for var, r1, r2 in pairs:
            term = np.outer(rows[r1], rows[r2])
            term = 0.5 * (term + term.T) * (2.0 if r1 != r2 else 1.0)
            coeffs[offsets[slot] + var] -= term

    blocks: list[LmiBlock] = []
    # (1) positivity on each region: P_i - E^T U_i E - eps*J_c >= 0.
    for mode in (0, 1):
        coeffs = p_coefficients(mode)
        add_s_procedure(coeffs, f"u{mode}", mode)
        blocks.append(
            LmiBlock(-epsilon * j_c, coeffs, margin=-tolerance, name=f"pos{mode}")
        )
    # (2) decrease along each mode's flow on its region.
    for mode in (0, 1):
        a_bar = _augmented_flow(system, mode)
        coeffs = p_coefficients(mode)
        coeffs = [-(a_bar.T @ c + c @ a_bar) for c in coeffs]
        add_s_procedure(coeffs, f"w{mode}", mode)
        blocks.append(
            LmiBlock(-epsilon * j_c, coeffs, margin=-tolerance, name=f"dec{mode}")
        )
    # (3) relaxed encoding: non-increase across the surface (Finsler).
    if encoding == "relaxed":
        for target, source, slot in ((1, 0, "m1"), (0, 1, "m2")):
            coeffs = [
                c_s - c_t
                for c_t, c_s in zip(
                    p_coefficients(target), p_coefficients(source)
                )
            ]
            for k in range(da):
                sym = np.zeros((da, da))
                sym[:, k] += g_bar
                sym[k, :] += g_bar
                coeffs[offsets[slot] + k] += sym
            blocks.append(
                LmiBlock(
                    np.zeros((da, da)), coeffs, margin=-tolerance, name=f"jump{slot}"
                )
            )
    # (4) multiplier nonnegativity (1x1 blocks).
    for slot in ("u0", "u1", "w0", "w1"):
        for k in range(3):
            coeffs_1 = [np.zeros((1, 1)) for _ in range(dim)]
            coeffs_1[offsets[slot] + k][0, 0] = 1.0
            blocks.append(
                LmiBlock(np.zeros((1, 1)), coeffs_1, name=f"{slot}[{k}]>=0")
            )
    # (5) boundedness: P <= 100 I on each mode (keeps the search bounded).
    cap = 100.0 * np.eye(da)
    for mode in (0, 1):
        coeffs = p_coefficients(mode, sign=-1.0)
        blocks.append(LmiBlock(cap, coeffs, name=f"cap{mode}"))

    # Like the paper's numerical solvers, keep the best iterate as a
    # *candidate* even when the LMI system is claimed empty.
    result = solve_lmi_hybrid(
        CompiledLmiSystem(blocks, dim), initial_radius, max_iterations
    )
    x = result.x

    def unpack(mode: int) -> np.ndarray:
        p = sum(
            x[offsets["p0"] + k] * e for k, e in enumerate(basis)
        )
        if mode == 1:
            if encoding == "continuous":
                q = x[offsets["q"] : offsets["q"] + da]
                p = p + np.outer(g_bar, q) + np.outer(q, g_bar)
            else:
                p = sum(
                    x[offsets["p1"] + k] * e for k, e in enumerate(basis)
                )
        return 0.5 * (p + p.T)

    elapsed = time.perf_counter() - start
    return PiecewiseCandidate(
        p=[unpack(0), unpack(1)],
        encoding=encoding,
        feasible=result.feasible,
        iterations=result.iterations,
        worst_violation=result.worst_violation,
        synthesis_time=elapsed,
        info={
            "dimension": dim,
            "epsilon": epsilon,
            "proved_infeasible": result.proved_infeasible,
            "polish_iterations": result.polish_iterations,
        },
    )
