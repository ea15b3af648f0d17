"""Micro-benchmark: exact kernel backends against the Fraction oracle.

Pins the tentpole perf claims of the kernel layer:

1. at n=10 the int-Bareiss and multimodular determinant paths are not
   slower than the Fraction oracle;
2. at n=18 (the paper's largest closed-loop dimension before the
   integer ladder tops out) both are at least 5x faster — measured
   headroom is ~2x beyond the pin (int ~9.6x, modular ~10x);
3. at n=21, ``lie_derivative_exact`` (one integer product on the
   normal form) is at least 5x faster than the entry-by-entry Fraction
   formula it replaced. ``REPRO_PERF_SOFT=1`` demotes a miss of that
   pin to a warning and fails only below 2.5x.

Matrices follow the shape the validation pipeline actually feeds the
kernels: a Lie derivative ``-(A^T P + P A)`` of a float-exact stable
``A`` (binary denominators ~2^52) against a 10-significant-figure
rounded PD candidate ``P`` — common denominators of ~144 bits and
Hadamard bounds of ~2700 bits at n=18.
"""

from __future__ import annotations

import os
import time
import warnings
from fractions import Fraction

import numpy as np

from repro.exact import (
    RationalMatrix,
    bareiss_determinant,
    leading_principal_minors,
)
from repro.validate.pipeline import lie_derivative_exact

SIZES = (3, 5, 10, 15, 18, 21)
BACKENDS = ("fraction", "int", "modular")

#: lie_derivative_exact speedup over the entry-by-entry formula at n=21.
LIE_PIN = 5.0
#: REPRO_PERF_SOFT floor: a >2x regression from the pin.
LIE_SOFT_FLOOR = 2.5


def lie_inputs(n, seed):
    """Float-exact stable ``A`` and a 10-sigfig PD ``P``."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    a -= (np.linalg.eigvals(a).real.max() + 0.5) * np.eye(n)
    a_exact = RationalMatrix.from_numpy(a)
    g = RationalMatrix(
        [[Fraction(f"{value:.10g}") for value in row]
         for row in rng.normal(size=(n, n)).tolist()]
    )
    p = (g @ g.T + RationalMatrix.identity(n).scale(n)).symmetrize()
    return p, a_exact


def lie_shaped(n, seed):
    """-(A^T P + P A) for float-exact stable A and 10-sigfig PD P."""
    p, a_exact = lie_inputs(n, seed)
    return (a_exact.T @ p + p @ a_exact).scale(-1).symmetrize()


def reference_lie(p, a):
    """``A^T P + P A``, symmetrized, one Fraction operation per step."""
    p_rows, a_rows = p.tolist(), a.tolist()
    a_cols = [list(col) for col in zip(*a_rows)]
    p_cols = [list(col) for col in zip(*p_rows)]
    n = len(p_rows)
    at_p = [[sum(x * y for x, y in zip(ac, pc)) for pc in p_cols]
            for ac in a_cols]
    p_a = [[sum(x * y for x, y in zip(pr, ac)) for ac in a_cols]
           for pr in p_rows]
    total = [[at_p[i][j] + p_a[i][j] for j in range(n)] for i in range(n)]
    half = Fraction(1, 2)
    return [[(total[i][j] + total[j][i]) * half for j in range(n)]
            for i in range(n)]


def _best_of(fn, reps=3):
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_kernel_backends_scaling():
    sizes = {}
    for n in SIZES:
        matrix = lie_shaped(n, seed=7)
        timings = {}
        oracle_det = bareiss_determinant(matrix, backend="fraction")
        oracle_minors = leading_principal_minors(matrix, backend="fraction")
        for backend in BACKENDS:
            # Warm-up pass: normalizes the matrix into the kernel cache,
            # generates CRT primes, and checks agreement with the oracle
            # so a fast-but-wrong backend can never win the timing.
            assert bareiss_determinant(matrix, backend=backend) == oracle_det
            assert (
                leading_principal_minors(matrix, backend=backend)
                == oracle_minors
            )
            timings[f"{backend}_det_s"] = _best_of(
                lambda b=backend: bareiss_determinant(matrix, backend=b)
            )
            timings[f"{backend}_minors_s"] = _best_of(
                lambda b=backend: leading_principal_minors(matrix, backend=b)
            )
        sizes[str(n)] = timings

    # Pin 1: crossover — the fast paths are already not-slower at n=10
    # (10% slack absorbs timer noise on a loaded CI box).
    at10 = sizes["10"]
    assert at10["int_det_s"] <= at10["fraction_det_s"] * 1.10
    assert at10["modular_det_s"] <= at10["fraction_det_s"] * 1.10

    # Pin 2: at n=18 both fast determinant paths clear 5x (measured
    # ~9.6x int / ~10x modular; 5x is the safety floor), and the int
    # minor stream clears 5x as well (measured ~9x).
    at18 = sizes["18"]
    assert at18["int_det_s"] * 5 <= at18["fraction_det_s"]
    assert at18["modular_det_s"] * 5 <= at18["fraction_det_s"]
    assert at18["int_minors_s"] * 5 <= at18["fraction_minors_s"]


def test_lie_derivative_speedup_pin():
    soft = bool(os.environ.get("REPRO_PERF_SOFT"))
    n = 21
    p, a_exact = lie_inputs(n, seed=7)
    # Agreement first, so a fast-but-wrong product can never win.
    assert lie_derivative_exact(p, a_exact).tolist() == reference_lie(
        p, a_exact
    )
    reference_s = _best_of(lambda: reference_lie(p, a_exact))
    normal_form_s = _best_of(lambda: lie_derivative_exact(p, a_exact), reps=7)
    speedup = reference_s / normal_form_s
    floor = LIE_SOFT_FLOOR if soft else LIE_PIN
    if soft and speedup < LIE_PIN:
        warnings.warn(
            f"lie_derivative_exact: {speedup:.1f}x below the {LIE_PIN:g}x "
            f"pin (soft mode, floor {LIE_SOFT_FLOOR:g}x)",
            stacklevel=1,
        )
    assert speedup >= floor, (
        f"lie_derivative_exact {normal_form_s * 1e3:.2f} ms is only "
        f"{speedup:.1f}x faster than the entry-by-entry reference "
        f"{reference_s * 1e3:.2f} ms (floor {floor:g}x)"
    )
