"""Exact definiteness certificates for symmetric rational matrices.

Three independent decision procedures are provided, mirroring the
validator families compared in the paper's Figure 3:

* :func:`sylvester_positive_definite` — Sylvester's criterion: positivity
  of every leading principal minor, with all minors produced by a
  *single* fraction-free Bareiss pass (the paper's fastest validator;
  historically this implementation recomputed each minor from scratch —
  Θ(n⁴) — and lost to the elimination checks below).
* :func:`gauss_positive_definite` — SymPy-style check: Gaussian
  elimination without row renormalization, then positivity of the
  diagonal pivots.
* :func:`ldl_positive_definite` — LDL^T pivots (an ablation variant).

Every check accepts ``backend="auto"|"fraction"|"int"|"modular"``
(:mod:`repro.exact.kernels`): the fast paths clear denominators once
and decide the verdict from *integer* signs directly — the denominator
scale is positive, so no rational is ever reconstructed on the verdict
path. ``"fraction"`` preserves the historical entry-by-entry oracle.
Verdicts are identical across backends; all functions require symmetric
input and raise otherwise.
"""

from __future__ import annotations

from fractions import Fraction

from . import kernels
from .factor import gauss_pivots, iter_leading_principal_minors, ldl
from .matrix import RationalMatrix

__all__ = [
    "sylvester_positive_definite",
    "gauss_positive_definite",
    "ldl_positive_definite",
    "definiteness_counterexample",
]


def _require_symmetric(matrix: RationalMatrix) -> None:
    if not matrix.is_symmetric():
        raise ValueError("definiteness checks require a symmetric matrix")


def _int_minor_stream(matrix: RationalMatrix, mode: str):
    """Integer leading-minor stream for a kernel-backed verdict."""
    rows, _den = kernels.normalized(matrix)
    if mode == "modular":
        return iter(kernels.modular_leading_principal_minors(rows))
    return kernels.iter_int_leading_principal_minors(rows)


def sylvester_positive_definite(
    matrix: RationalMatrix, backend: str = "auto"
) -> bool:
    """Sylvester's criterion with exact Bareiss minors.

    ``M ≻ 0`` iff all ``n`` leading principal minors are strictly
    positive ([Horn & Johnson, Thm. 7.2.5]). All minors come from one
    fraction-free elimination pass (Bareiss pivots *are* ratios of
    consecutive minors), streamed smallest first so an early
    negative/zero minor short-circuits the elimination itself. With an
    integer kernel the verdict is read off integer signs — the cleared
    denominator is positive, so no rational is reconstructed at all.
    """
    _require_symmetric(matrix)
    mode = kernels.resolve_backend(backend, matrix.rows, op="minors")
    if mode == "fraction":
        minors = iter_leading_principal_minors(matrix, backend="fraction")
    else:
        minors = _int_minor_stream(matrix, mode)
    for minor in minors:
        if minor <= 0:
            return False
    return True


def gauss_positive_definite(
    matrix: RationalMatrix, backend: str = "auto"
) -> bool:
    """SymPy-flavoured check: elimination pivots all strictly positive.

    For symmetric ``M``, elimination without row exchange either hits a
    zero pivot (then ``M`` is not definite) or produces pivots whose
    signs match the ``D`` of the LDL^T factorization. The kernel paths
    decide the same question from the integer minor stream (pivot ``k``
    is the ratio of consecutive minors, so "all pivots positive" and
    "all minors positive" are the same verdict, and a zero minor is
    exactly the zero-pivot bail-out).
    """
    _require_symmetric(matrix)
    mode = kernels.resolve_backend(backend, matrix.rows, op="minors")
    if mode == "fraction":
        pivots = gauss_pivots(matrix)
        if pivots is None:
            return False
        return all(p > 0 for p in pivots)
    for minor in _int_minor_stream(matrix, mode):
        if minor <= 0:
            return False
    return True


def ldl_positive_definite(
    matrix: RationalMatrix, backend: str = "auto"
) -> bool:
    """LDL^T-based check (ablation variant of the Gauss check).

    The kernel paths run the fraction-free LDL^T
    (:func:`repro.exact.kernels.int_ldlt`) and judge the integer pivot
    signs — rational reconstruction of ``L``/``D`` happens only when a
    caller asks for the factors, never for the verdict.
    """
    _require_symmetric(matrix)
    mode = kernels.resolve_backend(backend, matrix.rows, op="ldl")
    if mode != "fraction":
        rows, _den = kernels.normalized(matrix)
        data = kernels.int_ldlt(rows)
        if data is None:
            return False
        _columns, minors = data
        return all(m > 0 for m in minors)
    factorization = ldl(matrix, backend="fraction")
    if factorization is None:
        return False
    _lower, diag = factorization
    return all(d > 0 for d in diag)


def definiteness_counterexample(matrix: RationalMatrix) -> list[Fraction] | None:
    """A vector ``v`` with ``v^T M v <= 0`` when ``M`` is not PD, else ``None``.

    The witness is extracted from the failing stage of the LDL^T
    factorization; it turns every "invalid Lyapunov candidate" verdict
    into a concrete refutation the caller can evaluate.
    """
    _require_symmetric(matrix)
    n = matrix.rows
    a = [row[:] for row in matrix.tolist()]
    # Track the congruence transform: after k steps, current block equals
    # E_k ... E_1 M E_1^T ... E_k^T restricted to trailing coordinates.
    transform = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(n):
        pivot = a[k][k]
        if pivot <= 0:
            # v = e_k pulled back through the accumulated transform:
            # v^T M v equals the current pivot (or 0 when pivot == 0).
            v = transform[k][:]
            return v
        for i in range(k + 1, n):
            factor = a[i][k] / pivot
            if factor != 0:
                for j in range(n):
                    transform[i][j] -= factor * transform[k][j]
            for j in range(k, n):
                a[i][j] -= factor * a[k][j]
        for i in range(k + 1, n):  # restore symmetry of trailing block
            for j in range(k + 1, n):
                a[j][i] = a[i][j]
    return None
