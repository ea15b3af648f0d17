"""The Lyapunov LMI problem family (paper Section III-E).

Three problems are synthesized from the same data:

* ``LMI``      (Eq. 9):  find ``P = P^T`` with ``P > 0`` and
  ``A^T P + P A < 0``;
* ``LMIalpha`` (Eq. 10): additionally ``A^T P + P A + alpha P < 0``,
  yielding an exponential-stability certificate with rate ``alpha``;
* ``LMIalpha+``: additionally ``P - nu I > 0``, pushing the solution's
  eigenvalues up (better conditioned candidates).

Strict inequalities are handled with explicit margins: the solvers look
for ``P ⪰ (nu + margin) I`` and ``A^T P + P A + alpha P ⪯ -margin I``,
which is how SDP solvers realize strict LMIs in practice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "LyapunovLmiProblem",
    "LmiInfeasibleError",
    "lyap_basis_tensor",
    "lyapunov_lmi_blocks",
    "candidate_screen_blocks",
    "screen_candidates",
]


def _lyap_basis_tensor_dense(a: np.ndarray, alpha: float) -> np.ndarray:
    """Dense einsum assembly of the ``L(E_k)`` stack.

    Retained as the differential oracle for the sparse assembly below
    (the agreement test contracts both against random ``A``); the
    production path no longer calls it.
    """
    from .svec import basis_tensor

    basis = basis_tensor(a.shape[0])  # (m, n, n)
    return (
        np.einsum("ab,kbm->kam", a.T, basis)
        + np.einsum("kab,bm->kam", basis, a)
        + alpha * basis
    )


@lru_cache(maxsize=32)
def _lyap_basis_tensor(a_bytes: bytes, n: int, alpha: float) -> np.ndarray:
    """Stacked ``L(E_k) = A^T E_k + E_k A + alpha E_k`` over the svec basis.

    The ``(m, n, n)`` result is the compiled-tensor form of the Lyapunov
    operator: the interior-point KKT assembly contracts against it with
    one batched matmul and one BLAS product instead of building
    ``n^2 x n^2`` Kronecker products.
    Memoized on ``(A, alpha)`` — bisections over ``alpha`` and
    revalidation sweeps hit the same key repeatedly.

    Assembly exploits the svec-basis sparsity: ``E_k`` has at most two
    nonzero entries, so ``A^T E_k + E_k A`` is nonzero only in the rows
    and columns they touch — each block is two (or four) row/column
    updates from rows of ``A``, Θ(m·n) total instead of the Θ(m·n²)
    dense einsum contraction. On the 21-state PWA blocks (m = 231) the
    231 mostly-empty ``L(E_k)`` slabs assemble an order of magnitude
    faster, which matters because every ``alpha`` probe of the
    piecewise bisection compiles a fresh tensor.
    """
    from .svec import svec_dim

    a = np.frombuffer(a_bytes, dtype=float).reshape(n, n)
    m = svec_dim(n)
    out = np.zeros((m, n, n))
    v = 1.0 / np.sqrt(2.0)
    k = 0
    for i in range(n):
        # Diagonal unit E_ii: (A^T E)[:, i] = A[i, :] and
        # (E A)[i, :] = A[i, :].
        block = out[k]
        block[:, i] += a[i, :]
        block[i, :] += a[i, :]
        block[i, i] += alpha
        k += 1
        for j in range(i + 1, n):
            # Off-diagonal unit (E_ij + E_ji)/sqrt(2): one column and
            # one row update per nonzero entry.
            block = out[k]
            block[:, j] += v * a[i, :]
            block[:, i] += v * a[j, :]
            block[i, :] += v * a[j, :]
            block[j, :] += v * a[i, :]
            block[i, j] += alpha * v
            block[j, i] += alpha * v
            k += 1
    out.setflags(write=False)
    return out


def lyap_basis_tensor(a: np.ndarray, alpha: float = 0.0) -> np.ndarray:
    """Public entry to the memoized ``L(E_k)`` tensor for ``(A, alpha)``."""
    a = np.ascontiguousarray(a, dtype=float)
    return _lyap_basis_tensor(a.tobytes(), a.shape[0], float(alpha))


class LmiInfeasibleError(RuntimeError):
    """Raised by a backend that could not find a strictly feasible point."""


@dataclass(frozen=True)
class LyapunovLmiProblem:
    """Data for ``P ⪰ nu_eff I``, ``A^T P + P A + alpha P ⪯ -margin I``.

    Parameters
    ----------
    a:
        The (Hurwitz) system matrix.
    alpha:
        Exponential decay-rate parameter (0 for the plain LMI).
    nu:
        Eigenvalue floor for ``P`` (``LMIalpha+``); ``None`` gives the
        plain floor at ``margin``.
    margin:
        Strictness margin for both inequalities.
    """

    a: np.ndarray
    alpha: float = 0.0
    nu: float | None = None
    margin: float = 1e-6
    radius: float = field(default=1e6)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("A must be square")
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if self.nu is not None and self.nu <= 0:
            raise ValueError("nu must be positive")
        if self.margin <= 0:
            raise ValueError("margin must be positive")
        object.__setattr__(self, "a", a)

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Dimension of ``A`` (and of ``P``)."""
        return self.a.shape[0]

    @property
    def nu_effective(self) -> float:
        """The actual eigenvalue floor used for ``P``."""
        return (self.nu if self.nu is not None else 0.0) + self.margin

    @property
    def shifted_a(self) -> np.ndarray:
        """``A + (alpha/2) I`` — the LMIalpha constraint equals the plain
        Lyapunov inequality for this shifted matrix."""
        return self.a + 0.5 * self.alpha * np.eye(self.n)

    # ------------------------------------------------------------------
    def lyap_operator(self, p: np.ndarray) -> np.ndarray:
        """``L(P) = A^T P + P A + alpha P``."""
        return self.a.T @ p + p @ self.a + self.alpha * p

    def lyap_basis_tensor(self) -> np.ndarray:
        """The stacked ``L(E_k)`` tensor for this problem's ``(A, alpha)``.

        Compiled once per ``(A, alpha)`` (module-level memoization) and
        additionally cached on the problem object, so repeated KKT
        assemblies skip even the cache lookup.
        """
        cached = self.__dict__.get("_lyap_tensor")
        if cached is None:
            cached = lyap_basis_tensor(self.a, self.alpha)
            object.__setattr__(self, "_lyap_tensor", cached)
        return cached

    def constraint_margins(self, p: np.ndarray) -> tuple[float, float]:
        """``(floor_margin, decay_margin)`` — both must be >= 0 at a
        feasible point (computed against the strict margins)."""
        eig_p = np.linalg.eigvalsh(p)
        eig_l = np.linalg.eigvalsh(self.lyap_operator(p))
        return (
            float(eig_p.min() - self.nu_effective),
            float(-eig_l.max() - self.margin),
        )

    def is_strictly_feasible(self, p: np.ndarray, slack: float = 0.0) -> bool:
        """Both constraint margins nonnegative (up to ``slack``)."""
        floor_margin, decay_margin = self.constraint_margins(p)
        return floor_margin >= -slack and decay_margin >= -slack

    def residual(self, p: np.ndarray) -> float:
        """Worst constraint violation (0 when feasible)."""
        floor_margin, decay_margin = self.constraint_margins(p)
        return max(0.0, -floor_margin, -decay_margin)


def lyapunov_lmi_blocks(
    a: np.ndarray,
    alpha: float = 0.0,
    nu: float | None = None,
    margin: float = 1e-6,
) -> list:
    """The Lyapunov LMI family as explicit :class:`~repro.sdp.LmiBlock`\\ s.

    Expresses ``P ⪰ nu_eff I`` and ``-(A^T P + P A + alpha P) ⪰
    margin I`` over the svec coordinates of ``P``, the form the generic
    block-LMI engines (ellipsoid, barrier) consume. Used by the
    metamorphic fuzz layer to assert that feasibility verdicts are
    invariant under block reordering, and handy for composing the
    Lyapunov constraints into larger block systems.
    """
    from .generic import LmiBlock
    from .svec import basis_tensor

    problem = LyapunovLmiProblem(a=a, alpha=alpha, nu=nu, margin=margin)
    n = problem.n
    basis = basis_tensor(n)
    zero = np.zeros((n, n))
    floor = LmiBlock(
        f0=-(problem.nu_effective - problem.margin) * np.eye(n),
        coefficients=list(basis),
        margin=problem.margin,
        name="floor",
    )
    decay = LmiBlock(
        f0=zero,
        coefficients=[-l for l in problem.lyap_basis_tensor()],
        margin=problem.margin,
        name="decay",
    )
    return [floor, decay]


# ----------------------------------------------------------------------
# Batched candidate screening (the service layer's same-shape batching)
# ----------------------------------------------------------------------

def candidate_screen_blocks(problem: LyapunovLmiProblem, p: np.ndarray) -> list:
    """The fixed-candidate feasibility check of ``(problem, p)`` as blocks.

    With ``P`` fixed, the two Lyapunov constraints collapse to constant
    LMI blocks: ``P - nu_eff I ⪰ 0`` (at margin ``nu_effective``) and
    ``-(A^T P + P A + alpha P) ⪰ margin I``. Expressing them as
    :class:`~repro.sdp.LmiBlock`\\ s (decision dimension 1, zero
    coefficient) lets :class:`~repro.sdp.CompiledLmiSystem` stack many
    candidates' blocks by matrix size and resolve them in one batched
    eigh / Cholesky pass — NumPy's gufunc ``eigh`` applies LAPACK per
    stacked matrix, so the batched margins are bit-identical to
    screening each candidate alone through the same compiled path.
    """
    from .generic import LmiBlock

    p = np.asarray(p, dtype=float)
    n = problem.n
    if p.shape != (n, n):
        raise ValueError(f"candidate shape {p.shape} != ({n}, {n})")
    zero = np.zeros((n, n))
    floor = LmiBlock(
        f0=p, coefficients=[zero],
        margin=problem.nu_effective, name="floor",
    )
    decay = LmiBlock(
        f0=-problem.lyap_operator(p), coefficients=[zero],
        margin=problem.margin, name="decay",
    )
    return [floor, decay]


def screen_candidates(items) -> list[tuple[float, float]]:
    """Constraint margins for many ``(problem, p)`` pairs in one pass.

    Returns one ``(floor_margin, decay_margin)`` tuple per item —
    nonnegative means feasible, matching
    :meth:`LyapunovLmiProblem.constraint_margins` semantics (the
    eigenvalues here come from the compiled system's batched ``eigh``
    rather than ``eigvalsh``; both service paths — per-request and
    batched — route through this function, so their margins agree
    bit for bit).
    """
    from .generic import CompiledLmiSystem

    items = list(items)
    if not items:
        return []
    blocks = []
    for problem, p in items:
        blocks.extend(candidate_screen_blocks(problem, p))
    system = CompiledLmiSystem(blocks, dimension=1)
    violations = system.violations(np.zeros(1))
    return [
        (-float(violations[2 * i]), -float(violations[2 * i + 1]))
        for i in range(len(items))
    ]
