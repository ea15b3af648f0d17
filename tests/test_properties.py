"""Cross-cutting property-based tests (library-wide invariants).

These run hypothesis over the seams *between* subsystems — scaling laws,
dualities, and conservation properties that any refactoring must
preserve."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exact import (
    RationalMatrix,
    bareiss_determinant,
    leading_principal_minors,
    sylvester_positive_definite,
)
from repro.lyapunov import synthesize
from repro.robust import synthesize_robust_level
from repro.smt import LinearConstraint, Relation
from repro.smt.linear import check_farkas_certificate
from repro.systems import AffineSystem, HalfSpace
from repro.validate import validate_candidate


def random_stable(n, seed, margin=0.5):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    return a - (np.linalg.eigvals(a).real.max() + margin) * np.eye(n)


class TestSynthesisValidationClosure:
    """Every method's output on every (small random) stable system must
    pass exact validation — the library's central contract."""

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 5))
    def test_all_methods_validate(self, seed, n):
        a = random_stable(n, seed)
        for method in ("eq-num", "modal", "lmi", "lmi-alpha"):
            candidate = synthesize(method, a, backend="shift")
            report = validate_candidate(candidate, a)
            assert report.valid is True, (method, seed, n)


class TestRobustLevelScaling:
    """Scaling the Lyapunov matrix scales the level linearly: the robust
    region W = {V <= k} is invariant under V -> cV, k -> ck."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 9))
    def test_k_scales_with_p(self, c):
        flow = AffineSystem([[-1.0, 4.0], [0.0, -1.0]], [0.0, 0.0])
        halfspace = HalfSpace((1, 0), 1)
        p = RationalMatrix([[2, 1], [1, 3]])
        base = synthesize_robust_level(flow, halfspace, p)
        scaled = synthesize_robust_level(flow, halfspace, p.scale(c))
        assert scaled.k == base.k * c
        assert scaled.minimizer == base.minimizer


class TestKernelOracleAgreement:
    """The int/modular exact kernels are only ever allowed to be faster,
    never different: determinants, leading-minor streams and Sylvester
    verdicts must agree bit-for-bit with the Fraction oracle on every
    matrix shape the pipeline produces — including singular, zero-pivot,
    negative-definite and huge-denominator (10-sigfig-rounded) cases."""

    KINDS = (
        "generic",
        "singular",
        "zero_pivot",
        "negative_definite",
        "huge_denominator",
    )

    @staticmethod
    def _matrix(kind, n, seed):
        rng = np.random.default_rng(seed)

        def frac():
            return Fraction(
                int(rng.integers(-99, 100)), int(rng.integers(1, 60))
            )

        if kind == "huge_denominator":
            # 10-significant-figure decimal roundings of floats — the
            # denominator profile of ``exact_p(10)`` candidates.
            return RationalMatrix(
                [[Fraction(f"{value:.10g}") for value in row]
                 for row in rng.normal(size=(n, n)).tolist()]
            )
        if kind == "negative_definite":
            g = RationalMatrix([[frac() for _ in range(n)] for _ in range(n)])
            return (
                (g @ g.T + RationalMatrix.identity(n).scale(n))
                .scale(-1)
                .symmetrize()
            )
        rows = [[frac() for _ in range(n)] for _ in range(n)]
        if kind == "singular":
            rows[n - 1] = [x * 2 for x in rows[0]]
        elif kind == "zero_pivot":
            rows[0][0] = Fraction(0)
        return RationalMatrix(rows)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.sampled_from(KINDS),
        st.integers(2, 7),
    )
    def test_kernels_match_fraction_oracle(self, seed, kind, n):
        m = self._matrix(kind, n, seed)
        det = bareiss_determinant(m, backend="fraction")
        minors = leading_principal_minors(m, backend="fraction")
        for backend in ("int", "modular", "auto"):
            assert bareiss_determinant(m, backend=backend) == det, (
                kind, backend,
            )
            assert leading_principal_minors(m, backend=backend) == minors, (
                kind, backend,
            )
        if m.is_symmetric():
            verdict = sylvester_positive_definite(m, backend="fraction")
            for backend in ("int", "modular", "auto"):
                assert (
                    sylvester_positive_definite(m, backend=backend)
                    is verdict
                ), (kind, backend)


class TestTensorizedOracleAgreement:
    """The compiled (tensorized, batched) LMI separation oracle is only
    ever allowed to be faster than the per-block differential oracle,
    never different: violations, deep-cut gradients and the argmax
    choice must agree to 1e-12 on random block systems mixing sizes
    (including the scalar fast path) and margins."""

    @staticmethod
    def _system(seed, dimension):
        from repro.sdp import LmiBlock

        rng = np.random.default_rng(seed)
        blocks = []
        n_blocks = int(rng.integers(2, 6))
        for _ in range(n_blocks):
            size = int(rng.integers(1, 5))
            f0 = rng.normal(size=(size, size))
            coefficients = [
                rng.normal(size=(size, size)) for _ in range(dimension)
            ]
            blocks.append(
                LmiBlock(
                    (f0 + f0.T) / 2,
                    [(c + c.T) / 2 for c in coefficients],
                    margin=float(rng.uniform(0, 0.5)),
                )
            )
        return blocks

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 5))
    def test_compiled_matches_per_block(self, seed, dimension):
        from repro.sdp import CompiledLmiSystem

        blocks = self._system(seed, dimension)
        system = CompiledLmiSystem(blocks, dimension)
        rng = np.random.default_rng(seed + 1)
        for _ in range(3):
            point = rng.normal(size=dimension) * rng.choice([0.1, 1.0, 10.0])
            violations = system.violations(point)
            per_block = np.array(
                [block.violation(point)[0] for block in blocks]
            )
            assert np.allclose(violations, per_block, atol=1e-12), seed
            worst, vector, index, oracle_violations = system.oracle(point)
            assert index == int(np.argmax(per_block)), seed
            assert abs(worst - per_block.max()) < 1e-12, seed
            # Reported (non-screened) violations agree where resolved.
            resolved = np.isfinite(oracle_violations)
            assert np.allclose(
                oracle_violations[resolved], per_block[resolved], atol=1e-12
            ), seed
            # Deep-cut gradient: g_i = -v^T F_ji v for the worst block.
            expected = np.array(
                [-vector @ c @ vector
                 for c in blocks[index].coefficients]
            )
            assert np.allclose(
                system.gradient(index, vector), expected, atol=1e-12
            ), seed

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4))
    def test_solver_trajectories_track(self, seed, dimension):
        """Both oracles drive the ellipsoid method along the same early
        trajectory.  (Only a prefix is compared: tensordot and per-block
        accumulation round differently at ~1e-16, which the cut dynamics
        amplify over many iterations.)"""
        from repro.sdp import solve_lmi_ellipsoid

        blocks = self._system(seed, dimension)
        on = solve_lmi_ellipsoid(
            blocks, dimension=dimension, max_iterations=60,
            record_history=True,
        )
        off = solve_lmi_ellipsoid(
            blocks, dimension=dimension, max_iterations=60,
            record_history=True, batch_oracle=False,
        )
        prefix = min(len(on.history), len(off.history), 20)
        assert prefix >= 1, seed
        assert np.allclose(
            on.history[:prefix], off.history[:prefix],
            rtol=1e-6, atol=1e-9,
        ), seed


@st.composite
def farkas_systems(draw):
    """A constraint system over 2-3 variables with a known certificate.

    Random rows get random multipliers (at least 0 on inequalities,
    free on equalities); one closing inequality cancels their
    combination and leaves a positive constant, or 0 when it is strict.
    Returns ``(constraints, certificate, closing_index)``.
    """
    names = ["x", "y", "z"][: draw(st.integers(2, 3))]
    small = st.integers(-4, 4)
    constraints, certificate = [], {}
    for index in range(draw(st.integers(1, 5))):
        relation = draw(
            st.sampled_from([Relation.LE, Relation.LT, Relation.EQ])
        )
        constraints.append(LinearConstraint(
            tuple((name, Fraction(draw(small))) for name in names),
            Fraction(draw(small)), relation,
        ))
        low = None if relation is Relation.EQ else 0
        certificate[index] = draw(st.fractions(
            min_value=low, max_value=4, max_denominator=6,
        ))
    combined = {name: Fraction(0) for name in names}
    constant = Fraction(0)
    for index, multiplier in certificate.items():
        for name, coeff in constraints[index].coeffs:
            combined[name] += multiplier * coeff
        constant += multiplier * constraints[index].constant
    target = Fraction(draw(st.integers(0, 5)))
    strict = target == 0 or draw(st.booleans())
    constraints.append(LinearConstraint(
        tuple((name, -combined[name]) for name in names),
        target - constant, Relation.LT if strict else Relation.LE,
    ))
    certificate[len(constraints) - 1] = Fraction(1)
    return constraints, certificate, len(constraints) - 1


class TestFarkasChecker:
    """The checker accepts every certificate built to cancel, and
    rejects it once an inequality multiplier turns negative or the
    closing row is dropped."""

    @settings(max_examples=120, deadline=None)
    @given(farkas_systems(), st.data())
    def test_accepts_constructed_rejects_broken(self, system, data):
        constraints, certificate, closing = system
        assert check_farkas_certificate(constraints, certificate)

        positive = sorted(
            index for index, multiplier in certificate.items()
            if constraints[index].relation is not Relation.EQ
            and multiplier > 0
        )
        flip = data.draw(st.sampled_from(positive))
        negated = dict(certificate)
        negated[flip] = -negated[flip]
        assert not check_farkas_certificate(constraints, negated)

        if any(coeff != 0 for _, coeff in constraints[closing].coeffs):
            truncated = dict(certificate)
            del truncated[closing]
            assert not check_farkas_certificate(constraints, truncated)


class TestReductionMonotonicity:
    """Hankel values descend; the H-inf error bound shrinks with order."""

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 5_000))
    def test_bounds_monotone(self, seed):
        from repro.reduction import balance
        from repro.systems import StateSpace

        rng = np.random.default_rng(seed)
        n = 6
        a = random_stable(n, seed)
        plant = StateSpace(a, rng.normal(size=(n, 2)), rng.normal(size=(2, n)))
        realization = balance(plant)
        hankel = realization.hankel_values
        assert all(hankel[i] >= hankel[i + 1] - 1e-12 for i in range(n - 1))
        bounds = [realization.error_bound(k) for k in range(1, n + 1)]
        assert all(bounds[i] >= bounds[i + 1] - 1e-12 for i in range(n - 1))
        assert bounds[-1] == pytest.approx(0.0, abs=1e-9)


class TestExactRoundingMonotonicity:
    """Rounding a validated candidate at MORE significant figures can
    never turn a valid verdict invalid while fewer figures stay valid
    (margins only shrink as precision drops)."""

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 3_000))
    def test_validity_monotone_in_precision(self, seed):
        a = random_stable(4, seed, margin=1.0)
        candidate = synthesize("lmi-alpha", a, backend="shift")
        verdicts = {}
        for sigfigs in (3, 6, 12):
            verdicts[sigfigs] = validate_candidate(
                candidate, a, sigfigs=sigfigs
            ).valid
        if verdicts[3] is True:
            assert verdicts[6] is True
        if verdicts[6] is True:
            assert verdicts[12] is True
