"""Log-barrier level-shift solver for general block LMIs.

A second engine for the feasibility systems of
:mod:`repro.sdp.generic` (piecewise S-procedure, CEGIS certificates). It
maximizes the joint margin ``t`` in

    F_j(x) - t I ⪰ 0  for every block j,      |x_i| <= R,

by *level-shift ascent*: for the current shift ``t`` (strictly below
the incumbent margin, so the shifted blocks are strictly feasible),
Newton-center

    phi_t(x) = - sum_j logdet(F_j(x) - t I) - sum_i log(R^2 - x_i^2),

then pull ``t`` up toward the achieved margin and re-center. Each
centering is a proper, smooth convex problem (the box keeps it
bounded), ``t`` is monotone nondecreasing, and the iteration converges
linearly to the maximal margin within the box.

The Newton assembly runs on the precompiled tensors of
:class:`repro.sdp.generic.CompiledLmiSystem`: per block group, the
gradient is one trace einsum and the Hessian one congruence einsum over
the stacked ``(B, d, n, n)`` coefficient tensor, replacing the former
per-coefficient Python loops. ``initial=`` warm-starts the centering
from an external iterate.

Roles of the two generic engines (they solve the same systems), and the
one pipeline that combines them, :func:`solve_lmi_hybrid`:

* :func:`repro.sdp.generic.solve_lmi_ellipsoid` — the *burn-in*. Its
  deep-cut collapse claims emptiness within the search ball; the claim
  is computed in floats, so it is numerical evidence, not an exact
  proof;
* ``solve_lmi_barrier`` — the *polish*: it maximizes the joint margin
  from the burn-in's best iterate. A negative final margin is evidence
  of infeasibility, never a claim.

Both Section VI-B.2 loops solve their LMI systems through
:func:`solve_lmi_hybrid`: :func:`repro.lyapunov.synthesize_piecewise`
and :func:`repro.lyapunov.cegis_piecewise`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generic import CompiledLmiSystem, solve_lmi_ellipsoid

__all__ = [
    "BarrierResult",
    "solve_lmi_barrier",
    "HybridResult",
    "solve_lmi_hybrid",
]


@dataclass
class BarrierResult:
    """Outcome of the level-shift barrier run."""

    x: np.ndarray
    t_star: float  # best joint margin min_j (lambda_min(F_j) - margin_j)
    feasible: bool  # t_star > 0
    iterations: int


def _joint_margin(system: CompiledLmiSystem, x: np.ndarray) -> float:
    """``min_j (lambda_min(F_j(x)) - margin_j)`` via batched eigh."""
    worst = np.inf
    for group in system.groups:
        values = system._group_values(group, x, None)
        lambda_min, _ = system._group_min_eigen(group, values)
        worst = min(worst, float((lambda_min - group.margins).min()))
    return worst


def solve_lmi_barrier(
    system: CompiledLmiSystem,
    target_margin: float = 0.0,
    radius: float = 1e3,
    pull: float = 0.5,
    max_outer: int = 200,
    initial: np.ndarray | None = None,
) -> BarrierResult:
    """Maximize the joint LMI margin of ``system`` within ``|x_i| <= radius``.

    ``pull`` in (0, 1) sets how aggressively the shift chases the
    incumbent margin each round of at most 30 Newton steps; the loop
    stops at ``target_margin``, when a round raises the shift by less
    than 1e-9, or after ``max_outer`` rounds. ``initial`` warm-starts
    the centering from an external iterate (clipped into the box).
    """
    if not 0 < pull < 1:
        raise ValueError("pull must be in (0, 1)")
    dimension = system.dimension
    # Margins are folded at evaluation time: every shifted block is
    # G_j(x) = F_j(x) - (margin_j + t) I.

    def shifted_values(x_vec: np.ndarray, t_val: float) -> list[np.ndarray]:
        out = []
        for group in system.groups:
            values = system._group_values(group, x_vec, None)
            shift = group.margins + t_val
            out.append(values - shift[:, None, None] * group.eye)
        return out

    def centered_potential(x_vec: np.ndarray, t_val: float) -> float:
        total = 0.0
        for shifted in shifted_values(x_vec, t_val):
            signs, logdets = np.linalg.slogdet(shifted)
            if np.any(signs <= 0):
                return np.inf
            total -= float(logdets.sum())
        box = radius * radius - x_vec * x_vec
        if np.any(box <= 0):
            return np.inf
        return total - float(np.sum(np.log(box)))

    x = np.zeros(dimension)
    if initial is not None:
        x = np.asarray(initial, dtype=float).copy()
        if x.shape != (dimension,):
            raise ValueError(
                f"initial iterate has shape {x.shape}, expected ({dimension},)"
            )
        np.clip(x, -0.999 * radius, 0.999 * radius, out=x)
    margin = _joint_margin(system, x)
    t = margin - 1.0
    best_margin = margin
    best_x = x.copy()
    iterations = 0
    for _outer in range(max_outer):
        # --- Newton-center phi_t over x --------------------------------
        for _ in range(30):
            iterations += 1
            gradient = np.zeros(dimension)
            hessian = np.zeros((dimension, dimension))
            for group, shifted in zip(
                system.groups, shifted_values(x, t)
            ):
                g_inv = np.linalg.inv(shifted)
                # T[b, i] = G_b(x)^{-1} F_bi : the per-block transformed
                # coefficients, batched over the group.
                transformed = np.einsum(
                    "bac,bicm->biam", g_inv, group.tensor, optimize=True
                )
                gradient -= np.einsum("biaa->i", transformed)
                hessian += np.einsum(
                    "biam,bjma->ij", transformed, transformed, optimize=True
                )
            box = radius * radius - x * x
            gradient += 2.0 * x / box
            hessian += np.diag(2.0 / box + 4.0 * x * x / box**2)
            hessian = 0.5 * (hessian + hessian.T)
            try:
                step = np.linalg.solve(
                    hessian + 1e-13 * np.eye(dimension), -gradient
                )
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(hessian, -gradient, rcond=None)[0]
            if float(-(gradient @ step)) < 1e-10:
                break
            phi_now = centered_potential(x, t)
            alpha = 1.0
            accepted = False
            for _ in range(60):
                candidate = x + alpha * step
                if centered_potential(candidate, t) < phi_now - 1e-14:
                    x = candidate
                    accepted = True
                    break
                alpha *= 0.5
            if not accepted:
                break
        # --- pull the shift up toward the achieved margin ---------------
        margin = _joint_margin(system, x)
        if margin > best_margin:
            best_margin = margin
            best_x = x.copy()
        if best_margin > target_margin:
            break
        new_t = margin - (1.0 - pull) * (margin - t)
        if new_t - t < 1e-9:
            break
        t = new_t
    return BarrierResult(
        x=best_x,
        t_star=best_margin,
        feasible=best_margin > 0,
        iterations=iterations,
    )


@dataclass
class HybridResult:
    """Outcome of :func:`solve_lmi_hybrid`: the adopted iterate.

    ``worst_violation`` is ``max_j (margin_j - lambda_min(F_j(x)))`` at
    ``x``: the burn-in's, or the polish's when the polished iterate was
    adopted (``polished``). ``proved_infeasible`` is the ellipsoid's
    float emptiness claim, left standing after any cold re-solve; it is
    numerical evidence, not an exact proof. ``iterations`` counts the
    ellipsoid iterations of every burn-in, ``polish_iterations`` the
    barrier's Newton steps.
    """

    x: np.ndarray
    worst_violation: float
    feasible: bool
    proved_infeasible: bool
    iterations: int
    polish_iterations: int
    polished: bool


def solve_lmi_hybrid(
    compiled: CompiledLmiSystem,
    radius: float,
    max_iterations: int,
    target_margin: float = 0.0,
    center: np.ndarray | None = None,
) -> HybridResult:
    """Solve an LMI system by ellipsoid burn-in plus barrier polish.

    1. Burn in with the deep-cut ellipsoid (tensorized oracle, a full
       violation sweep every 16 iterations) from the ball of ``radius``
       around ``center`` (default the origin), for up to
       ``max_iterations`` iterations.
    2. If a warm start (``center`` given) claims the LMI is empty, solve
       again from the origin: the claim covers only the ball around the
       start.
    3. Unless emptiness is claimed, polish the burn-in's best iterate
       with the level-shift barrier (60 rounds, stopping at
       ``target_margin``) and adopt the polished iterate only if its
       joint margin is no worse.

    Both engines are called through this module's globals, so a tracer
    that rebinds them sees every call.
    """

    def burn_in(start: np.ndarray | None):
        return solve_lmi_ellipsoid(
            compiled.blocks,
            dimension=compiled.dimension,
            initial_radius=radius,
            max_iterations=max_iterations,
            sweep_every=16,
            compiled=compiled,
            initial_center=start,
        )

    result = burn_in(center)
    iterations = result.iterations
    if result.proved_infeasible and center is not None:
        result = burn_in(None)
        iterations += result.iterations
    x, worst, feasible = result.x, result.worst_violation, result.feasible
    polish_iterations = 0
    polished = False
    if not result.proved_infeasible:
        polish = solve_lmi_barrier(
            compiled,
            target_margin=target_margin,
            radius=radius,
            max_outer=60,
            initial=x,
        )
        polish_iterations = polish.iterations
        if -polish.t_star <= worst:
            x, worst = polish.x, -polish.t_star
            feasible = feasible or polish.feasible
            polished = True
    return HybridResult(
        x=x,
        worst_violation=worst,
        feasible=feasible,
        proved_infeasible=result.proved_infeasible,
        iterations=iterations,
        polish_iterations=polish_iterations,
        polished=polished,
    )
