"""Metamorphic invariants: verdicts must survive exact reshapings.

Each transform here maps a system (or a witness) to an equivalent one
whose verdict is known to be identical, giving test oracles that need
no ground truth at all:

* **similarity** — ``A -> T A T^{-1}`` for unimodular integer ``T``
  preserves the spectrum exactly, so the Hurwitz verdict is invariant
  and a witness transforms along as ``P -> T^{-T} P T^{-1}``;
* **permutation** — the special case ``T = permutation matrix``
  (checked separately because it exercises different pivoting paths);
* **scaling** — positive definiteness is invariant under ``P -> c P``
  for any positive rational ``c`` (and stays refuted for ``-P``);
* **lmi-block-order** — the feasibility verdict of the generic LMI
  engines must not depend on the order blocks are listed in, nor on
  whether the tensorized batch oracle or the per-block differential
  oracle is used.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ..exact import inverse, is_hurwitz_matrix
from ..sdp import lyapunov_lmi_blocks, solve_lmi_ellipsoid, svec_dim
from ..validate.pipeline import lie_derivative_exact
from .generate import unimodular_matrix

__all__ = ["metamorphic_checks"]


def _rng(h) -> np.random.Generator:
    # Independent of the generator's own stream but just as deterministic.
    return np.random.default_rng(
        np.random.SeedSequence([101, h.system.n, h.system.seed])
    )


def _similarity(h, transform, tag: str) -> None:
    """Check verdict invariance under one exact similarity transform."""
    system = h.system
    t = transform
    t_inv = inverse(t)
    a_t = t @ system.a @ t_inv
    try:
        got = is_hurwitz_matrix(a_t, backend="auto")
    except Exception as exc:
        h.record.harness_errors.append(
            f"metamorphic-{tag}: {type(exc).__name__}: {exc}"
        )
        return
    h.expect(f"metamorphic-{tag}", "hurwitz", system.stable, got)
    if system.witness_p is None:
        return
    p_t = (t_inv.T @ system.witness_p @ t_inv).symmetrize()
    q_t = (t_inv.T @ system.witness_q @ t_inv).symmetrize()
    # Construction algebra must transform exactly: Lie(P', A') = -2 Q'.
    h.expect(
        f"metamorphic-{tag}", "lie-transform", True,
        lie_derivative_exact(p_t, a_t) == q_t.scale(-2),
    )
    validator = h.profile.validators[0]
    for label, matrix in (("P'", p_t), ("2Q'", q_t.scale(2))):
        h.expect(
            f"metamorphic-{tag}", f"{validator}:{label}", True,
            h._one(validator, matrix, None) is True,
        )


def _check_scaling(h) -> None:
    system = h.system
    if system.witness_p is None:
        return
    rng = _rng(h)
    c = Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 10)))
    for validator in h.profile.validators:
        base = h._one(validator, system.witness_p, None)
        scaled = h._one(validator, system.witness_p.scale(c), None)
        h.expect("metamorphic-scaling", f"{validator} x{c}", base, scaled)
        negated = h._one(validator, system.witness_p.scale(-c), None)
        h.expect("metamorphic-scaling", f"{validator} x-{c}", False, negated)


def _check_block_order(h) -> None:
    """LMI feasibility must survive block reordering and oracle choice."""
    system, profile = h.system, h.profile
    # Restricted to the comfortably-conditioned kinds: the ellipsoid
    # engine's verdict inside a finite iteration budget is only a
    # reliable constant for spectra far from the axis, and a flaky
    # reference would turn order-invariance into a coin flip.
    if (
        system.n > profile.lmi_block_max_n
        or system.kind not in ("stable", "unstable")
    ):
        return
    blocks = lyapunov_lmi_blocks(system.a_float)
    dimension = svec_dim(system.n)

    def feasible(block_list, batch: bool) -> bool | None:
        try:
            result = solve_lmi_ellipsoid(
                block_list, dimension,
                max_iterations=profile.lmi_block_iterations,
                batch_oracle=batch,
            )
        except Exception as exc:
            h.record.harness_errors.append(
                f"metamorphic-lmi-block-order: {type(exc).__name__}: {exc}"
            )
            return None
        return bool(result.feasible)

    reference = feasible(blocks, batch=True)
    if reference is None:
        return
    # A stable system's Lyapunov LMI is strictly feasible; within the
    # iteration budget the ellipsoid engine finds it for the small sizes
    # this check runs at, so the verdict itself is also pinned.
    h.expect(
        "metamorphic-lmi-block-order", "feasible==stable",
        system.stable, reference,
    )
    for tag, batch in (("reversed/batch", True), ("reversed/loop", False)):
        got = feasible(list(reversed(blocks)), batch=batch)
        if got is not None:
            h.expect("metamorphic-lmi-block-order", tag, reference, got)


def metamorphic_checks(h) -> None:
    """Run every metamorphic family against one harness state."""
    rng = _rng(h)
    n = h.system.n
    _similarity(h, unimodular_matrix(n, rng), "similarity")
    perm = [int(i) for i in rng.permutation(n)]
    _similarity(h, h.system.a.identity(n).permute(perm), "permutation")
    _check_scaling(h)
    _check_block_order(h)
