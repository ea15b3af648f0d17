"""Ablation: exact definiteness-check algorithms (DESIGN.md section 6).

Compares the three exact positive-definiteness procedures — Sylvester
minors via Bareiss, fraction-free Gauss pivots, and LDL^T pivots — on
Lyapunov matrices of growing size and coefficient complexity. The
library default (Sylvester for reporting, Gauss under the hood of the
fastest validators) rests on these numbers.
"""

from __future__ import annotations

import pytest

from repro.engine import case_by_name
from repro.exact import (
    clear_kernel_cache,
    gauss_positive_definite,
    ldl_positive_definite,
    sylvester_positive_definite,
)
from repro.lyapunov import synthesize

CHECKS = {
    "sylvester": sylvester_positive_definite,
    "gauss": gauss_positive_definite,
    "ldl": ldl_positive_definite,
}


@pytest.fixture(scope="module")
def exact_matrices():
    out = {}
    for case_name in ("size3", "size5", "size10"):
        a = case_by_name(case_name).mode_matrix(0)
        out[case_name] = synthesize("eq-num", a).exact_p(10)
    return out


@pytest.mark.parametrize("check_name", sorted(CHECKS))
@pytest.mark.parametrize("case_name", ["size3", "size5", "size10"])
def test_definiteness_check(benchmark, exact_matrices, check_name, case_name):
    matrix = exact_matrices[case_name]
    verdict = benchmark(CHECKS[check_name], matrix)
    assert verdict is True


@pytest.mark.parametrize("sigfigs", [4, 10, None])
def test_coefficient_complexity(benchmark, sigfigs):
    """Rounding precision controls rational-arithmetic cost: fewer
    significant figures means smaller denominators and faster checks;
    ``None`` (raw binary floats) is the worst case."""
    a = case_by_name("size10").mode_matrix(0)
    candidate = synthesize("eq-num", a)
    matrix = candidate.exact_p(sigfigs)
    verdict = benchmark(gauss_positive_definite, matrix)
    assert verdict in (True, False)


def test_shape_gauss_not_slower_than_sylvester(exact_matrices):
    """Sylvester now streams all leading minors from a single Bareiss
    pass (it used to recompute each from scratch — n determinants);
    the Gauss elimination check must stay in the same league. Both
    run on a cold kernel cache: the first call would otherwise cache
    the matrix's integer form for the second."""
    import time

    matrix = exact_matrices["size10"]
    clear_kernel_cache()
    start = time.perf_counter()
    gauss_positive_definite(matrix)
    gauss = time.perf_counter() - start
    clear_kernel_cache()
    start = time.perf_counter()
    sylvester_positive_definite(matrix)
    sylvester = time.perf_counter() - start
    assert gauss <= sylvester * 1.5
