"""Exact validation of piecewise-quadratic Lyapunov candidates.

Checks, with the mini-SMT layer, the three condition families a
piecewise-quadratic certificate for the switched system must satisfy
(paper Section VI-B.2):

1. *positivity*: ``V_i(w) > 0`` on region ``R_i`` away from the
   equilibrium;
2. *decrease*: ``dV_i/dt < 0`` along mode ``i``'s flow on ``R_i`` away
   from the equilibrium;
3. *surface non-increase*: ``V_j(w) <= V_i(w)`` on the switching
   surface for a switch from mode ``i`` to mode ``j``.

Each condition is refuted by searching for a counterexample with ICP
over a box around the operating envelope; a found witness is confirmed
with exact rational arithmetic. The paper reports that condition (3)
always failed on its candidates — the experiment harness reproduces
exactly that observation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ..exact import RationalMatrix
from ..lyapunov import PiecewiseCandidate
from ..smt import (
    Atom,
    Box,
    Const,
    IcpSolver,
    IcpStatus,
    Mul,
    Relation,
    Term,
    Var,
    affine_term,
    quadratic_form_term,
)
from ..systems import PwaSystem

__all__ = ["PiecewiseValidation", "validate_piecewise"]

#: Conditions (1) and (2) are checked outside this ball around the
#: mode-0 equilibrium, where ``V`` and ``dV/dt`` vanish.
_EXCLUSION_RADIUS = 1e-2


@dataclass
class PiecewiseValidation:
    """Verdicts per condition; ``valid`` follows the same tri-state logic
    as single-mode validation."""

    conditions: dict = field(default_factory=dict)  # name -> True/False/None
    witnesses: dict = field(default_factory=dict)  # name -> rational point
    time: float = 0.0
    sigfigs: int | None = 10

    @property
    def valid(self) -> bool | None:
        """Tri-state verdict over all checked conditions."""
        verdicts = self.conditions.values()
        if False in verdicts:
            return False
        if None in verdicts:
            return None
        return True

    @property
    def failed_conditions(self) -> list[str]:
        """Names of the refuted conditions."""
        return [name for name, ok in self.conditions.items() if ok is False]


def _augmented_exact(
    candidate: PiecewiseCandidate, mode: int, sigfigs: int | None
) -> RationalMatrix:
    exact = RationalMatrix.from_numpy(candidate.p[mode]).symmetrize()
    if sigfigs is not None:
        exact = exact.round_sigfigs(sigfigs).symmetrize()
    return exact

def _value_term(p_bar: RationalMatrix, variables: list[Var]) -> Term:
    """``V(w) = w^T P w + 2 p^T w + c`` from the augmented matrix."""
    d = len(variables)
    p_sub = p_bar.submatrix(range(d), range(d))
    linear = [2 * p_bar[i, d] for i in range(d)]
    constant = p_bar[d, d]
    return quadratic_form_term(p_sub, variables) + affine_term(
        linear, variables, constant
    )


def _lie_term(
    p_bar: RationalMatrix, a_bar: RationalMatrix, variables: list[Var]
) -> Term:
    lie = (a_bar.T @ p_bar + p_bar @ a_bar).symmetrize()
    return _value_term(lie, variables)


def _distance_sq_term(center: np.ndarray, variables: list[Var]) -> Term:
    parts = []
    for var, c in zip(variables, center):
        shifted = var - Const(Fraction(float(c)))
        parts.append(Mul((shifted, shifted)))
    return sum(parts[1:], parts[0])


def validate_piecewise(
    candidate: PiecewiseCandidate,
    system: PwaSystem,
    sigfigs: int | None = 10,
    box_radius: float | None = None,
    max_boxes: int = 6_000,
    delta: float = 1e-6,
    conditions_scope: str = "all",
) -> PiecewiseValidation:
    """Refute or (boundedly) verify every piecewise Lyapunov condition.

    ``conditions_scope="surface"`` restricts the check to the two
    switching-surface conditions — the decisive (and fast-to-refute)
    ones; ``"all"`` additionally probes region positivity and decrease.
    """
    start = time.perf_counter()
    d = system.dimension
    variables = [Var(f"w{i}") for i in range(d)]
    solver = IcpSolver(delta=delta, max_boxes=max_boxes)
    w_star = system.modes[0].flow.equilibrium()
    if box_radius is None:
        scale = max(float(np.abs(m.flow.equilibrium()).max()) for m in system.modes)
        box_radius = max(10.0, 2.0 * scale)
    box = Box.cube(
        [v.name for v in variables], -box_radius, box_radius
    )

    exact_p = [
        _augmented_exact(candidate, mode, sigfigs) for mode in (0, 1)
    ]
    a_bar_exact = []
    for mode in (0, 1):
        flow = system.modes[mode].flow
        top = RationalMatrix.from_numpy(flow.a).hstack(
            RationalMatrix.from_numpy(flow.b.reshape(-1, 1))
        )
        bottom = RationalMatrix.zeros(1, d + 1)
        a_bar_exact.append(top.vstack(bottom))

    away = Atom(
        Const(Fraction(_EXCLUSION_RADIUS**2))
        - _distance_sq_term(w_star, variables),
        Relation.LE,
    )

    conditions: dict[str, bool | None] = {}
    witnesses: dict[str, dict] = {}

    def refute(name: str, violation_atoms: list[Atom]) -> None:
        result = solver.check(violation_atoms, box)
        if result.status is IcpStatus.SAT:
            conditions[name] = False
            witnesses[name] = result.witness
        elif result.status is IcpStatus.UNSAT:
            conditions[name] = True
        else:
            conditions[name] = None

    for mode in (0, 1) if conditions_scope == "all" else ():
        region_atoms = system.modes[mode].region.to_atoms(variables)
        value = _value_term(exact_p[mode], variables)
        refute(
            f"positivity(mode{mode})",
            region_atoms + [away, Atom(value, Relation.LE)],
        )
        lie = _lie_term(exact_p[mode], a_bar_exact[mode], variables)
        refute(
            f"decrease(mode{mode})",
            region_atoms + [away, Atom(-lie, Relation.LE)],
        )

    # Surface non-increase, both switch directions. The surface equality
    # g.w + o = 0 is eliminated by substituting the pivot coordinate with
    # its affine expression in the others — ICP then faces a plain
    # quadratic-inequality query with easy exact witnesses.
    surface_halfspace = system.modes[0].region.halfspaces[0]
    g = list(surface_halfspace.normal)
    pivot = max(range(d), key=lambda i: abs(g[i]))
    others = [variables[i] for i in range(d) if i != pivot]
    pivot_expr = affine_term(
        [-g[i] / g[pivot] for i in range(d) if i != pivot],
        others,
        -surface_halfspace.offset / g[pivot],
    )
    on_surface_vars: list = list(variables)
    on_surface_vars[pivot] = pivot_expr
    surface_box = Box.cube(
        [v.name for v in others], -box_radius, box_radius
    )
    for source, target in ((0, 1), (1, 0)):
        diff = (
            _value_term(exact_p[target], on_surface_vars)
            - _value_term(exact_p[source], on_surface_vars)
        )
        name = f"surface-nonincrease({source}->{target})"
        result = solver.check([Atom(-diff, Relation.LT)], surface_box)
        if result.status is IcpStatus.SAT:
            conditions[name] = False
            witness = dict(result.witness)
            # Reconstruct the pivot coordinate of the surface witness.
            from ..smt import polynomial_of
            from ..smt.terms import poly_eval

            witness[variables[pivot].name] = poly_eval(
                polynomial_of(pivot_expr), witness
            )
            witnesses[name] = witness
        elif result.status is IcpStatus.UNSAT:
            conditions[name] = True
        else:
            conditions[name] = None

    return PiecewiseValidation(
        conditions=conditions,
        witnesses=witnesses,
        time=time.perf_counter() - start,
        sigfigs=sigfigs,
    )
