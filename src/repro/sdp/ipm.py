"""Analytic-center interior-point backend for the Lyapunov LMI family.

Finds the analytic center of the (bounded) feasible region

    nu_eff I  ⪯  P  ⪯  R I,      A^T P + P A + alpha P  ⪯  -margin I

by damped Newton minimization of the log-det barrier

    phi(P) = -logdet(P - nu_eff I) - logdet(R I - P)
             - logdet(-(A^T P + P A + alpha P) - margin I).

Gradients and Hessians are assembled over the orthonormal svec basis
with precompiled tensor contractions: the basis stack ``(m, n, n)`` of
:func:`repro.sdp.svec.basis_tensor` and the memoized ``L(E_k)`` stack of
:meth:`LyapunovLmiProblem.lyap_basis_tensor` turn every barrier-block
Hessian ``H[k,l] = tr(E_k X E_l X)`` into one batched matmul and one
``(m, n^2) x (n^2, m)`` BLAS product — no ``n^2 x n^2`` Kronecker
products are ever formed. Each iteration is then a dense ``m x m``
Newton solve with ``m = n(n+1)/2``. The analytic center sits
deep inside the feasible region, giving well-conditioned candidates —
this backend plays the CVXOPT role in the paper's tables.
"""

from __future__ import annotations

import numpy as np

from .problems import LmiInfeasibleError, LyapunovLmiProblem
from .shift import solve_shift
from .svec import basis_tensor, smat

__all__ = ["solve_ipm"]


def _chol_or_none(matrix: np.ndarray) -> np.ndarray | None:
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return None


def _barrier_terms(
    stack: np.ndarray, inverse: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient/Hessian of ``-logdet`` through a stacked coefficient basis.

    For a stack ``C`` of symmetric coefficient matrices and a symmetric
    ``X = block^{-1}``: returns ``g[k] = tr(C_k X)`` and
    ``H[k,l] = tr(C_k X C_l X)`` — the svec-basis contractions that
    replace ``basis @ kron(X, X) @ basis.T``. With ``T_k = C_k X``,
    ``H[k,l] = sum_ab T_k[a,b] T_l[b,a]`` is the inner product of row
    ``k`` of ``T`` flattened with row ``l`` of ``T^T`` flattened, so the
    whole Hessian is one GEMM. (The equivalent ``"kab,lba->kl"`` einsum
    does not reach BLAS; the tests keep it as the oracle.)
    """
    m = stack.shape[0]
    transformed = stack @ inverse  # (m, n, n): C_k X, batched matmul
    gradient = np.einsum("kaa->k", transformed)
    hessian = (
        transformed.reshape(m, -1)
        @ transformed.transpose(0, 2, 1).reshape(m, -1).T
    )
    return gradient, hessian


def solve_ipm(
    problem: LyapunovLmiProblem,
    tol: float = 1e-8,
    max_iterations: int = 60,
) -> tuple[np.ndarray, dict]:
    """Damped-Newton analytic centering; raises when no interior exists.

    ``info["stop"]`` says why the iteration ended: ``"converged"`` (the
    Newton decrement fell below ``tol``), ``"stalled"`` (the line
    search accepted no step, or the Newton direction was no descent
    direction, which reads as a zero decrement) or
    ``"max-iterations"``. A stalled or cut-off ``P`` is still strictly
    feasible, but it is not the analytic center.
    """
    n = problem.n
    # Phase I: a strictly feasible interior point from the direct solver.
    p0, _ = solve_shift(problem)
    radius = max(problem.radius, 10.0 * float(np.linalg.eigvalsh(p0).max()))

    eye_n = np.eye(n)
    basis = basis_tensor(n)  # (m, n, n) orthonormal basis stack
    lyap_stack = problem.lyap_basis_tensor()  # (m, n, n): L(E_k), cached

    def blocks(p: np.ndarray):
        """The three barrier blocks at ``p``."""
        t1 = p - problem.nu_effective * eye_n
        t2 = radius * eye_n - p
        s = -problem.lyap_operator(p) - problem.margin * eye_n
        return t1, t2, s

    p = p0
    iterations = 0
    decrement = np.inf
    stop = "max-iterations"
    for iterations in range(1, max_iterations + 1):
        t1, t2, s = blocks(p)
        g1, h1 = _barrier_terms(basis, np.linalg.inv(t1))
        g2, h2 = _barrier_terms(basis, np.linalg.inv(t2))
        g3, h3 = _barrier_terms(lyap_stack, np.linalg.inv(s))
        gradient = -g1 + g2 + g3
        hessian = h1 + h2 + h3
        hessian = 0.5 * (hessian + hessian.T)
        try:
            step = np.linalg.solve(hessian, -gradient)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hessian, -gradient, rcond=None)[0]
        curvature = -(gradient @ step)
        decrement = float(np.sqrt(max(0.0, curvature)))
        if decrement < tol:
            # A negative curvature also reads as a zero decrement, but
            # there the barrier Hessian is numerically indefinite and
            # the Newton direction is no descent direction.
            stop = "stalled" if curvature < 0 else "converged"
            break
        # Damped line search: stay strictly feasible, ensure descent.
        direction = smat(step, n)
        t = 1.0
        phi_now = _barrier(t1, t2, s)
        accepted = False
        for _ in range(60):
            candidate = p + t * direction
            c1, c2, c3 = blocks(candidate)
            if all(_chol_or_none(b) is not None for b in (c1, c2, c3)):
                if _barrier(c1, c2, c3) < phi_now - 1e-12 * t:
                    p = candidate
                    accepted = True
                    break
            t *= 0.5
        if not accepted:
            stop = "stalled"  # no further progress at float precision
            break
    p = 0.5 * (p + p.T)
    if not problem.is_strictly_feasible(p, slack=1e-12):
        raise LmiInfeasibleError("interior-point iteration left feasibility")
    info = {
        "backend": "ipm",
        "iterations": iterations,
        "newton_decrement": decrement,
        "stop": stop,
        "radius": radius,
    }
    return p, info


def _barrier(t1: np.ndarray, t2: np.ndarray, s: np.ndarray) -> float:
    total = 0.0
    for block in (t1, t2, s):
        sign, logdet = np.linalg.slogdet(block)
        if sign <= 0:
            return np.inf
        total -= logdet
    return total
