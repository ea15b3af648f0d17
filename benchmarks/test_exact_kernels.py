"""Micro-benchmark: exact kernel backends against the Fraction oracle.

Pins the tentpole perf claims of the kernel layer and records the
measured per-backend wall times into the ``kernels`` section of
``BENCH_experiments.json`` (schema ``repro-bench/2``):

1. at n=10 the int-Bareiss and multimodular determinant paths are not
   slower than the Fraction oracle;
2. at n=18 (the paper's largest closed-loop dimension before the
   integer ladder tops out) both are at least 5x faster — measured
   headroom is ~2x beyond the pin (int ~9.6x, modular ~10x).

Matrices follow the shape the validation pipeline actually feeds the
kernels: a Lie derivative ``-(A^T P + P A)`` of a float-exact stable
``A`` (binary denominators ~2^52) against a 10-significant-figure
rounded PD candidate ``P`` — common denominators of ~144 bits and
Hadamard bounds of ~2700 bits at n=18.
"""

from __future__ import annotations

import json
import pathlib
import time
from fractions import Fraction

import numpy as np

from repro.exact import (
    RationalMatrix,
    bareiss_determinant,
    kernel_cache_info,
    leading_principal_minors,
)
from repro.runner import write_kernels_bench

BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_experiments.json"
)
SIZES = (3, 5, 10, 15, 18, 21)
BACKENDS = ("fraction", "int", "modular")


def lie_shaped(n, seed):
    """-(A^T P + P A) for float-exact stable A and 10-sigfig PD P."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    a -= (np.linalg.eigvals(a).real.max() + 0.5) * np.eye(n)
    a_exact = RationalMatrix.from_numpy(a)
    g = RationalMatrix(
        [[Fraction(f"{value:.10g}") for value in row]
         for row in rng.normal(size=(n, n)).tolist()]
    )
    p = (g @ g.T + RationalMatrix.identity(n).scale(n)).symmetrize()
    return (a_exact.T @ p + p @ a_exact).scale(-1).symmetrize()


def _best_of(fn, reps=3):
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_kernel_backends_scaling_writes_bench():
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

    data = write_kernels_bench(
        BENCH_PATH, {"sizes": sizes, "cache": kernel_cache_info()}
    )
    assert data["schema"] == "repro-bench/2"
    on_disk = json.loads(BENCH_PATH.read_text())
    assert set(on_disk["kernels"]["sizes"]) == {str(n) for n in SIZES}
    assert "experiments" in on_disk
