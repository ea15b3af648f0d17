"""Unit and differential tests for the exact kernel layer.

The kernels (``repro.exact.kernels``) are the fast path under every
exact verdict; these tests pin their contracts — normalization, the
integer Bareiss/LDL^T streams, the multimodular CRT machinery with its
Hadamard-bound certification and unlucky-prime adjudication — and prove
on the real benchmark ladder that every backend decides exactly what
the historical Fraction oracle decides.
"""

from fractions import Fraction

import pytest

from repro.engine import benchmark_suite
from repro.exact import (
    RationalMatrix,
    bareiss_determinant,
    charpoly,
    clear_denominators,
    clear_kernel_cache,
    gauss_positive_definite,
    hadamard_bound,
    inverse,
    is_hurwitz_matrix,
    kernel_cache_info,
    ldl,
    ldl_positive_definite,
    leading_principal_minors,
    resolve_backend,
    solve,
    sylvester_positive_definite,
)
from repro.exact import kernels
from repro.lyapunov import synthesize
from repro.validate import run_validator
from repro.validate.pipeline import lie_derivative_exact

BACKENDS = ("auto", "fraction", "int", "modular")


def frac_matrix(entries):
    return RationalMatrix(
        [[Fraction(x) for x in row] for row in entries]
    )


class TestNormalization:
    def test_clear_denominators_exact(self):
        m = RationalMatrix(
            [[Fraction(1, 2), Fraction(-2, 3)], [Fraction(5), Fraction(7, 6)]]
        )
        rows, den = clear_denominators(m)
        assert den == 6
        assert rows == [[3, -4], [30, 7]]
        for i in range(2):
            for j in range(2):
                assert Fraction(rows[i][j], den) == m[i, j]

    def test_integer_matrix_has_unit_denominator(self):
        rows, den = clear_denominators(frac_matrix([[2, -3], [0, 9]]))
        assert den == 1
        assert rows == [[2, -3], [0, 9]]

    def test_normalized_is_cached(self):
        clear_kernel_cache()
        m = RationalMatrix([[Fraction(1, 3), 0], [0, Fraction(1, 5)]])
        first = kernels.normalized(m)
        second = kernels.normalized(m)
        assert first is second
        info = kernel_cache_info()
        assert info["misses"] == 1 and info["hits"] == 1
        clear_kernel_cache()
        assert kernel_cache_info() == {
            "hits": 0, "misses": 0, "evictions": 0, "size": 0,
        }

    def test_cache_evicts_least_recent(self):
        clear_kernel_cache()
        for value in range(kernels._CACHE_MAX + 1):
            kernels.normalized(RationalMatrix([[Fraction(value, 7)]]))
        info = kernel_cache_info()
        assert info["evictions"] == 1
        assert info["size"] == kernels._CACHE_MAX


class TestDispatch:
    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError):
            resolve_backend("sympy")

    def test_gmpy2_resolution_tracks_availability(self):
        # There is no gmpy2 backend: whether or not the gmpy2 module is
        # installed, the name is unknown for every op — it never degrades
        # silently to "int".
        assert "gmpy2" not in kernels.KERNEL_BACKENDS
        assert "gmpy2" not in kernels.KERNEL_FALLBACKS
        for op in ("det", "minors", "solve", "ldl", "charpoly"):
            with pytest.raises(KeyError):
                resolve_backend("gmpy2", 21, op=op)

    def test_explicit_backends_pass_through(self):
        for backend in ("fraction", "int", "modular"):
            assert resolve_backend(backend, 50, op="det") == backend

    def test_auto_routes_large_dets_to_modular(self):
        assert resolve_backend("auto", kernels.MODULAR_MIN_N) == "modular"
        assert resolve_backend("auto", kernels.MODULAR_MIN_N - 1) == "int"

    def test_auto_routes_streams_to_int(self):
        assert resolve_backend("auto", 50, op="minors") == "int"

    def test_fallback_chain_reaches_fraction(self):
        assert kernels.fallback_backend("modular") == "int"
        assert kernels.fallback_backend("int") == "fraction"
        assert kernels.fallback_backend("fraction") is None


class TestIntegerKernels:
    def test_bareiss_determinant_known(self):
        rows = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
        assert kernels.int_bareiss_determinant(rows) == 18

    def test_bareiss_determinant_row_swap_sign(self):
        rows = [[0, 1], [1, 0]]
        assert kernels.int_bareiss_determinant(rows) == -1

    def test_minor_stream_zero_pivot_falls_back(self):
        assert list(
            kernels.iter_int_leading_principal_minors([[0, 1], [1, 0]])
        ) == [0, -1]

    def test_solve_singular_raises(self):
        with pytest.raises(ValueError):
            kernels.int_solve_columns([[1, 2], [2, 4]], [[1], [1]])

    def test_ldlt_zero_pivot_returns_none(self):
        assert kernels.int_ldlt([[0, 1], [1, 0]]) is None

    def test_charpoly_companion(self):
        # companion of s^2 - 5s + 6: charpoly coefficients [1, -5, 6]
        assert kernels.int_charpoly([[0, -6], [1, 5]]) == [1, -5, 6]


class TestPrimality:
    def test_known_primes(self):
        for p in (2, 3, 31, (1 << 31) - 1, (1 << 61) - 1, (1 << 255) - 19):
            assert kernels._is_prime(p), p

    def test_known_composites_and_pseudoprimes(self):
        # 2047, 3215031751 are strong pseudoprimes to the first bases
        for n in (0, 1, 2047, 3215031751, (1 << 32) - 1, (1 << 256) - 1):
            assert not kernels._is_prime(n), n

    def test_kernel_primes_are_256_bit_and_distinct(self):
        primes = kernels.kernel_primes(5)
        assert len(set(primes)) == 5
        assert all(p.bit_length() == 256 for p in primes)
        assert primes == sorted(primes, reverse=True)

    def test_batch_primes_fit_vectorized_arithmetic(self):
        primes = kernels._batch_primes(5)
        assert primes[0] == (1 << 31) - 1  # the Mersenne prime itself
        assert all(p * p < (1 << 62) for p in primes)


class TestModularKernels:
    def test_hadamard_bounds_determinant(self):
        rows = [[3, -4], [5, 12]]
        assert abs(kernels.int_bareiss_determinant(rows)) <= hadamard_bound(
            rows
        )

    def test_hadamard_zero_row(self):
        assert hadamard_bound([[0, 0], [1, 2]]) == 0

    def test_determinant_matches_bareiss(self):
        rows = [[7, -3, 2], [4, 11, -5], [-6, 1, 9]]
        assert kernels.modular_determinant(
            rows
        ) == kernels.int_bareiss_determinant(rows)

    def test_determinant_singular(self):
        assert kernels.modular_determinant([[1, 2], [2, 4]]) == 0

    def test_minors_with_genuine_zero_minor(self):
        small = [101, 103, 107, 109, 113]
        assert kernels.modular_leading_principal_minors(
            [[0, 1], [1, 0]], primes=small
        ) == [0, -1]
        assert kernels.modular_leading_principal_minors(
            [[1, 2], [2, 4]], primes=small
        ) == [1, 0]

    def test_unlucky_prime_is_replaced(self):
        # leading minor 101 vanishes mod the first injected prime; the
        # adjudication must discard that prime, not emit a zero minor.
        rows = [[101, 1], [1, 2]]
        assert kernels.modular_leading_principal_minors(
            rows, primes=[101, 103, 107, 109]
        ) == [101, 201]
        assert kernels.modular_determinant(
            rows, primes=[67, 3, 5, 7, 11, 13]
        ) == 201

    def test_not_enough_primes_raises(self):
        with pytest.raises(ValueError):
            kernels.modular_determinant([[10**6, 1], [1, 10**6]], primes=[101])
        with pytest.raises(ValueError):
            kernels.modular_leading_principal_minors(
                [[10**6, 1], [1, 10**6]], primes=[101]
            )

    def test_batched_path_matches_scalar(self):
        # n >= _BATCH_MIN_N triggers the vectorized batch; forcing the
        # scalar pass via `primes=` must give identical results.
        n = kernels._BATCH_MIN_N + 2
        rows = [
            [((i * 31 + j * 17) % 23) - 11 + (n * 29 if i == j else 0)
             for j in range(n)]
            for i in range(n)
        ]
        scalar_primes = kernels.kernel_primes(8)
        assert kernels.modular_determinant(rows) == (
            kernels.modular_determinant(rows, primes=scalar_primes)
        )
        assert kernels.modular_leading_principal_minors(rows) == (
            kernels.modular_leading_principal_minors(
                rows, primes=scalar_primes
            )
        )


class TestBackendAgreement:
    """Small-matrix differential checks across every public wrapper."""

    CASES = [
        frac_matrix([[2, 1], [1, 3]]),
        frac_matrix([[0, 1], [1, 0]]),
        frac_matrix([[1, 2], [2, 4]]),
        RationalMatrix(
            [[Fraction(5, 3), Fraction(-1, 7)], [Fraction(-1, 7), Fraction(9, 2)]]
        ),
        frac_matrix([[-3, 1, 0], [1, -4, 2], [0, 2, -5]]),
    ]

    def test_determinant_and_minors(self):
        for m in self.CASES:
            want_det = bareiss_determinant(m, backend="fraction")
            want_minors = leading_principal_minors(m, backend="fraction")
            for backend in BACKENDS:
                assert bareiss_determinant(m, backend=backend) == want_det
                assert (
                    leading_principal_minors(m, backend=backend)
                    == want_minors
                )

    def test_solve_inverse(self):
        m = self.CASES[0]
        rhs = frac_matrix([[1, 0], [3, -2]])
        for backend in BACKENDS:
            assert (
                solve(m, rhs, backend=backend).tolist()
                == solve(m, rhs, backend="fraction").tolist()
            )
            assert (
                inverse(m, backend=backend).tolist()
                == inverse(m, backend="fraction").tolist()
            )

    def test_definiteness_and_ldl(self):
        for m in self.CASES:
            if not m.is_symmetric():
                continue
            expected = [
                sylvester_positive_definite(m, backend="fraction"),
                gauss_positive_definite(m, backend="fraction"),
                ldl_positive_definite(m, backend="fraction"),
            ]
            for backend in BACKENDS:
                got = [
                    sylvester_positive_definite(m, backend=backend),
                    gauss_positive_definite(m, backend=backend),
                    ldl_positive_definite(m, backend=backend),
                ]
                assert got == expected, backend
            oracle = ldl(m, backend="fraction")
            fast = ldl(m, backend="int")
            if oracle is None:
                assert fast is None
            else:
                assert oracle[0].tolist() == fast[0].tolist()
                assert oracle[1] == fast[1]

    def test_charpoly_and_hurwitz(self):
        for m in self.CASES:
            want = charpoly(m, backend="fraction")
            want_hurwitz = is_hurwitz_matrix(m, backend="fraction")
            for backend in BACKENDS:
                assert charpoly(m, backend=backend) == want
                assert is_hurwitz_matrix(m, backend=backend) == want_hurwitz

    def test_validator_backend_option(self):
        m = self.CASES[0]
        auto = run_validator("sylvester", m)
        pinned = run_validator("sylvester", m, backend="int")
        assert auto.valid is pinned.valid is True
        assert auto.extra.get("backend") is None
        assert pinned.extra["backend"] == "int"


class TestBenchmarkLadderAgreement:
    """Kernel verdicts must equal the Fraction oracle on every benchmark
    case — candidates P and their Lie derivatives at closed-loop
    dimensions 6, 8, 13, 18 and 21 (the acceptance differential)."""

    @pytest.mark.parametrize(
        "case", benchmark_suite(), ids=lambda c: c.name
    )
    def test_all_backends_agree(self, case):
        a = case.mode_matrix(0)
        candidate = synthesize("eq-num", a)
        p_exact = candidate.exact_p(10)
        a_exact = RationalMatrix.from_numpy(a)
        lie = lie_derivative_exact(p_exact, a_exact).scale(-1)
        for matrix in (p_exact, lie):
            want_verdict = sylvester_positive_definite(
                matrix, backend="fraction"
            )
            want_minors = leading_principal_minors(matrix, backend="fraction")
            for backend in ("auto", "int", "modular"):
                assert (
                    sylvester_positive_definite(matrix, backend=backend)
                    is want_verdict
                )
                assert (
                    leading_principal_minors(matrix, backend=backend)
                    == want_minors
                )
