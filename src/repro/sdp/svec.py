"""Symmetric vectorization utilities for the SDP solvers.

The interior-point backend works on the coordinate vector of a symmetric
matrix in an *orthonormal* basis of the symmetric matrices (so that
Frobenius inner products become dot products): diagonal units ``E_ii``
and scaled off-diagonal units ``(E_ij + E_ji)/sqrt(2)``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "svec_dim",
    "svec",
    "smat",
    "svec_basis",
    "basis_matrix",
    "basis_tensor",
]

_SQRT2 = np.sqrt(2.0)


def svec_dim(n: int) -> int:
    """Dimension of the space of symmetric ``n x n`` matrices."""
    return n * (n + 1) // 2


def svec(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal symmetric vectorization (upper triangle, row-major)."""
    n = matrix.shape[0]
    out = np.empty(svec_dim(n))
    k = 0
    for i in range(n):
        out[k] = matrix[i, i]
        k += 1
        for j in range(i + 1, n):
            out[k] = matrix[i, j] * _SQRT2
            k += 1
    return out


def smat(vector: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`svec`."""
    out = np.zeros((n, n))
    k = 0
    for i in range(n):
        out[i, i] = vector[k]
        k += 1
        for j in range(i + 1, n):
            value = vector[k] / _SQRT2
            out[i, j] = value
            out[j, i] = value
            k += 1
    return out


@lru_cache(maxsize=None)
def svec_basis(n: int) -> tuple[np.ndarray, ...]:
    """The orthonormal basis matrices ``E_k`` with ``svec(E_k) = e_k``.

    Memoized per ``n`` (solver loops rebuild it for every LMI solve);
    the returned arrays are marked read-only — callers that want to
    scale or edit one must copy it, which every current caller does.
    """
    basis = []
    for i in range(n):
        unit = np.zeros((n, n))
        unit[i, i] = 1.0
        basis.append(unit)
        for j in range(i + 1, n):
            unit = np.zeros((n, n))
            unit[i, j] = unit[j, i] = 1.0 / _SQRT2
            basis.append(unit)
    for unit in basis:
        unit.setflags(write=False)
    return tuple(basis)


@lru_cache(maxsize=None)
def basis_tensor(n: int) -> np.ndarray:
    """The basis of :func:`svec_basis` stacked as one ``(m, n, n)`` array.

    This is the shape the tensorized solvers contract against: a
    congruence ``tr(E_k X E_l X)`` Hessian becomes one batched matmul
    and one BLAS product over this tensor instead of ``m`` Python-level
    matrix products (or an ``n^2 x n^2`` Kronecker product). Memoized
    per ``n``, read-only.
    """
    out = np.stack(svec_basis(n))
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def basis_matrix(n: int) -> np.ndarray:
    """The ``svec_dim(n) x n^2`` matrix ``B`` with ``B @ vec(M) = svec(M)``.

    ``vec`` is column-stacking (Fortran order), matching ``np.kron``
    identities ``vec(A X B) = (B^T kron A) vec(X)``. Memoized per ``n``
    with a read-only result, like :func:`svec_basis`.
    """
    m = svec_dim(n)
    out = np.zeros((m, n * n))
    for k, basis in enumerate(svec_basis(n)):
        out[k] = basis.flatten(order="F")
    out.setflags(write=False)
    return out
