"""The CEGIS soundness harness (regression pin + property suite).

Pins, in order of importance:

1. **The paper's negative result, at iteration 0.** At the nominal
   references the exact mode-1 equilibrium refutes every candidate's
   decrease block, so the loop ends ``infeasible`` in round 1 with zero
   cuts and no synthesis — Section VI-B.2's failure is not a rounding
   accident but genuine infeasibility. The witness is tied to the
   verifier's own ``N_dec``, it stays silent wherever a certificate
   exists, and a float emptiness claim never reads ``infeasible``.
   Likewise the paper's *rounding protocol* (independent per-mode
   snap) is pinned to fail its surface check and stall: no cut can
   repair broken continuity.
2. **The flip.** At attracting references the loop produces certificates
   that survive the exact S-procedure verification — and the property
   suite revalidates every accepted matrix independently (Sylvester on
   the Fraction kernel, ICP at tightened tolerance), checks the exact
   verdicts against ICP on every certificate the loop snaps, and hunts
   pointwise counterexamples that must not exist.
3. **Witness exactness.** Every witness the pointwise refuter emits
   violates the claimed Lyapunov condition when re-evaluated in exact
   rational arithmetic — checked twice, through the matrix path and
   through the scalar atom/polynomial path, which must agree exactly.
4. **Cut soundness.** Sampled cuts are implied constraints (Rayleigh
   sections): they can never exclude a point the parent matrix block
   admits. Deduplication by normalized fingerprint means the loop can
   never stall by re-adding the cut it already has.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.lyapunov.cegis as cegis_module
import repro.sdp.barrier as barrier_module
from repro.engine import attracting_reference, case_by_name, nominal_reference
from repro.exact import RationalMatrix, sylvester_positive_definite
from repro.lyapunov import (
    assemble_centered_lmi,
    bistability_witness,
    cegis_piecewise,
    definiteness_conditions,
    refute_certificate,
    seed_directions,
    snap_certificate,
    verify_certificate,
)
from repro.oracle import (
    CEGIS_KINDS,
    cegis_specs,
    check_cegis_scenario,
    generate_cegis_scenario,
)
from repro.sdp import CompiledLmiSystem, solve_lmi_ellipsoid
from repro.sdp.generic import LmiBlock, cut_fingerprint, sampled_cut
from repro.smt import (
    Atom,
    Relation,
    affine_term,
    atom_violation,
    check_positive_definite_icp,
    point_satisfies,
    quadratic_form_term,
    Var,
)


@pytest.fixture(scope="module")
def size3_attracting():
    case = case_by_name("size3")
    return case.switched_system(attracting_reference(case.plant))


@pytest.fixture(scope="module")
def validated_size3(size3_attracting):
    outcome = cegis_piecewise(size3_attracting, synthesis="full")
    assert outcome.status == "validated"
    return outcome


def _icp_verdict(matrix, delta, max_boxes):
    """ICP's verdict on ``matrix ≻ 0`` (``None`` when undecided).

    When the float Cholesky factor exists, the sphere check runs on the
    congruence ``T^T M T`` by its snapped inverse ``T``: any invertible
    rational ``T`` preserves definiteness, and the congruence makes the
    sphere check well conditioned (unconditioned, the size3 blocks
    exhaust 60k boxes per face undecided).
    """
    try:
        factor = np.linalg.cholesky(matrix.to_numpy())
    except np.linalg.LinAlgError:
        conditioned = matrix
    else:
        t = RationalMatrix.from_numpy(np.linalg.inv(factor).T).round_sigfigs(8)
        # T is triangular, so a nonzero diagonal makes it invertible.
        assert all(t[i, i] != 0 for i in range(t.rows))
        conditioned = (t.transpose() @ matrix @ t).symmetrize()
    return check_positive_definite_icp(
        conditioned, delta=delta, max_boxes=max_boxes
    ).verdict


def _system(name, regime):
    case = case_by_name(name)
    reference = (
        nominal_reference if regime == "nominal" else attracting_reference
    )
    return case.switched_system(reference(case.plant))


def _quadratic(matrix, vector):
    """Exact ``vᵀ M v``."""
    n = len(vector)
    return sum(
        vector[i] * matrix[i, j] * vector[j]
        for i in range(n)
        for j in range(n)
    )


def _assert_revalidates(lmi, certificate):
    """Every accepted matrix is positive definite again, through two
    paths that share no code with the integer-kernel acceptance."""
    for name, matrix in definiteness_conditions(lmi, certificate).items():
        assert sylvester_positive_definite(matrix, backend="fraction"), name
        assert _icp_verdict(matrix, delta=1e-9, max_boxes=60_000), name


# ----------------------------------------------------------------------
# 1. The pinned negative results (iteration 0)
# ----------------------------------------------------------------------
class TestPaperNegativeResult:
    def test_nominal_reference_proved_infeasible_with_zero_cuts(self):
        """Sec. VI-B.2 on the seed model: at the paper's references the
        loop's very first synthesis proves the LMI empty — no cut is
        ever generated, no certificate ever snapped."""
        case = case_by_name("size3")
        system = case.switched_system(nominal_reference(case.plant))
        outcome = cegis_piecewise(system, synthesis="full")
        assert outcome.status == "infeasible"
        assert len(outcome.rounds) == 1
        assert outcome.rounds[0].proved_infeasible
        assert outcome.rounds[0].proof == "equilibrium"
        assert outcome.cut_count == 0
        assert outcome.certificate is None

    def test_independent_rounding_protocol_fails_surface_and_stalls(
        self, size3_attracting
    ):
        """The paper's per-mode rounding breaks exact surface equality
        even where a certificate exists; since no sampled cut can repair
        a rounding defect, the loop must stall, not spin."""
        outcome = cegis_piecewise(
            size3_attracting, synthesis="full", snap="independent",
            max_rounds=3,
        )
        assert outcome.status == "stalled"
        assert outcome.rounds[-1].checks["surface"] is False
        defect = outcome.certificate.surface_defect()
        assert any(
            defect[i, j] != 0
            for i in range(defect.rows)
            for j in range(defect.cols)
        )


class TestBistabilityWitness:
    @pytest.mark.parametrize("name", ["size3", "size5", "size3i"])
    def test_nominal_witness_refutes_the_verifiers_dec1(self, name):
        """At the paper's references ``w̄_1ᵀ N_dec w̄_1 <= 0`` exactly,
        with ``N_dec`` from the verifier's own matrices, for
        certificates snapped from several decision vectors (the snap
        clamps the multipliers to >= 0)."""
        self._assert_refutes(assemble_centered_lmi(_system(name, "nominal")))

    @settings(max_examples=6)
    @given(st.integers(0, 10_000), st.integers(1, 3))
    def test_bistable_witness_refutes_the_verifiers_dec1(self, seed, n):
        scenario = generate_cegis_scenario("cegis-bistable", n, seed)
        self._assert_refutes(assemble_centered_lmi(scenario.system))

    @staticmethod
    def _assert_refutes(lmi):
        w1_bar = bistability_witness(lmi)
        assert w1_bar is not None and w1_bar[-1] == 1
        rng = np.random.default_rng(lmi.dim)
        for scale in (1e-3, 1.0, 1e3):
            x = scale * rng.normal(size=lmi.dim)
            x[lmi.off_u1:] = np.abs(x[lmi.off_u1:])
            certificate = snap_certificate(lmi, x)
            assert all(v >= 0 for v in certificate.w1)
            dec1 = definiteness_conditions(lmi, certificate)["dec1"]
            assert _quadratic(dec1, w1_bar) <= 0
            assert not verify_certificate(lmi, certificate).valid

    @pytest.mark.parametrize("name", ["size3", "size5", "size10"])
    def test_witness_silent_at_attracting_references(self, name):
        assert bistability_witness(
            assemble_centered_lmi(_system(name, "attracting"))
        ) is None

    @settings(max_examples=10)
    @given(st.integers(0, 10_000), st.integers(1, 3))
    def test_witness_silent_on_shared_scenarios(self, seed, n):
        scenario = generate_cegis_scenario("cegis-shared", n, seed)
        assert bistability_witness(
            assemble_centered_lmi(scenario.system)
        ) is None

    @pytest.mark.parametrize("synthesis", ["full", "sampled"])
    @pytest.mark.parametrize("name", ["size3", "size5"])
    def test_nominal_loop_never_runs_the_ellipsoid(self, name, synthesis):
        def refuse(*args, **kwargs):
            raise AssertionError("the witness must decide before synthesis")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(barrier_module, "solve_lmi_ellipsoid", refuse)
            outcome = cegis_piecewise(
                _system(name, "nominal"), synthesis=synthesis
            )
        assert outcome.status == "infeasible"
        assert len(outcome.rounds) == 1
        assert outcome.rounds[0].proved_infeasible
        assert outcome.rounds[0].new_cuts == []

    def test_float_emptiness_claim_is_inconclusive(self):
        """A ball too small to hold any certificate makes the ellipsoid
        claim emptiness; with no exact witness that is no verdict."""
        scenario = generate_cegis_scenario("cegis-shared", 2, 5)
        outcome = cegis_piecewise(
            scenario.system, synthesis="sampled", initial_radius=1e-3
        )
        assert outcome.status == "inconclusive"
        assert not any(r.proved_infeasible for r in outcome.rounds)

    def test_warm_start_emptiness_claim_is_resolved_cold(self):
        """Round 2 of this scenario claims emptiness around round 1's
        iterate; the same round is solved again from the origin, and
        the loop goes on to validate."""
        scenario = generate_cegis_scenario("cegis-shared", 3, 15)
        calls = []
        solve = barrier_module.solve_lmi_ellipsoid

        def recording(*args, **kwargs):
            result = solve(*args, **kwargs)
            calls.append(
                (kwargs["initial_center"] is None, result.proved_infeasible)
            )
            return result

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(barrier_module, "solve_lmi_ellipsoid", recording)
            outcome = cegis_piecewise(scenario.system, synthesis="sampled")
        assert outcome.status == "validated"
        claim = calls.index((False, True))
        assert calls[claim + 1] == (True, False)
        assert len(calls) == len(outcome.rounds) + 1


# ----------------------------------------------------------------------
# 2. The flip: validated certificates, independently revalidated
# ----------------------------------------------------------------------
class TestValidatedCertificates:
    def test_attracting_full_validates_round_one(self, validated_size3):
        assert validated_size3.rounds[-1].checks == {
            "surface": True, "multipliers": True,
            "pos0": True, "dec0": True, "pos1": True, "dec1": True,
        }

    def test_accepted_certificate_revalidates_at_tight_tolerance(
        self, size3_attracting, validated_size3
    ):
        """Independent re-verification: fresh assembly, then each of the
        four accepted matrices through Fraction-kernel Sylvester and
        through ICP at delta=1e-9 with 60k boxes."""
        lmi = assemble_centered_lmi(size3_attracting)
        conditions = definiteness_conditions(lmi, validated_size3.certificate)
        assert list(conditions) == ["pos0", "dec0", "pos1", "dec1"]
        _assert_revalidates(lmi, validated_size3.certificate)

    def test_pd_condition_below_old_float_screen_is_accepted(
        self, size3_attracting, validated_size3
    ):
        """A positive definite ``S_0`` whose smallest eigenvalue (1e-12)
        sits below the 1e-9 float screen that used to refute it is
        accepted; its negative twin is refuted along that eigenvector."""
        lmi = assemble_centered_lmi(size3_attracting)
        d = lmi.d

        def pos0_check(last):
            rows = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
            rows[-1][-1] = last
            certificate = dataclasses.replace(
                validated_size3.certificate, s0=RationalMatrix(rows)
            )
            checks = verify_certificate(lmi, certificate).checks
            return next(c for c in checks if c.name == "pos0")

        accepted = pos0_check(Fraction(1, 10**12))
        assert accepted.verdict is True and accepted.direction is None
        refuted = pos0_check(Fraction(-1, 10**12))
        assert refuted.verdict is False
        np.testing.assert_allclose(np.abs(refuted.direction), np.eye(d)[-1])

    def test_no_pointwise_counterexample_exists(
        self, size3_attracting, validated_size3
    ):
        """The pointwise ICP refuter (the paper's validation style) must
        come up empty against an accepted certificate."""
        witnesses = refute_certificate(
            validated_size3.certificate, size3_attracting,
            max_boxes=8_000,
        )
        assert witnesses == []

    @settings(max_examples=6)
    @given(st.integers(0, 10_000), st.integers(1, 3))
    # A warm-started round of each of these claimed emptiness, which the
    # loop used to report as ``infeasible``.
    @example(121, 2)
    @example(257, 2)
    @example(409, 2)
    @example(15, 3)
    @example(359, 3)
    @example(773, 3)
    @example(837, 3)
    def test_shared_scenarios_validate_and_revalidate(self, seed, n):
        """Ground-truth shared-witness scenarios: the sampled loop must
        validate, and every accepted matrix must survive independent
        revalidation."""
        scenario = generate_cegis_scenario("cegis-shared", n, seed)
        lmi = assemble_centered_lmi(scenario.system)
        outcome = cegis_piecewise(
            scenario.system, synthesis="sampled", lmi=lmi
        )
        assert outcome.status == "validated", (seed, n)
        _assert_revalidates(lmi, outcome.certificate)

    @settings(max_examples=6)
    @given(st.integers(0, 10_000), st.integers(1, 3))
    def test_exact_verdicts_agree_with_icp_on_every_snap(self, seed, n):
        """Every certificate the sampled loop snaps, accepted or not:
        the loop's exact verdict on each definiteness condition equals
        ICP's wherever ICP decides."""
        scenario = generate_cegis_scenario("cegis-shared", n, seed)
        lmi = assemble_centered_lmi(scenario.system)
        verified = []
        verify = cegis_module.verify_certificate

        def recording(lmi, certificate):
            verification = verify(lmi, certificate)
            verified.append((certificate, verification.verdict_map()))
            return verification

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cegis_module, "verify_certificate", recording)
            cegis_piecewise(scenario.system, synthesis="sampled", lmi=lmi)
        for certificate, verdicts in verified:
            conditions = definiteness_conditions(lmi, certificate)
            for name, matrix in conditions.items():
                icp = _icp_verdict(matrix, delta=1e-9, max_boxes=4_000)
                if icp is not None:
                    assert verdicts[name] is icp, (seed, n, name)

    @settings(max_examples=4)
    @given(st.integers(0, 10_000), st.integers(1, 3))
    def test_bistable_scenarios_proved_infeasible(self, seed, n):
        scenario = generate_cegis_scenario("cegis-bistable", n, seed)
        outcome = cegis_piecewise(scenario.system, synthesis="full")
        assert outcome.status == "infeasible", (seed, n)
        assert outcome.rounds[0].proof == "equilibrium"
        assert outcome.certificate is None


# ----------------------------------------------------------------------
# 3. Witness exactness (matrix path vs scalar atom path)
# ----------------------------------------------------------------------
def _corrupt(certificate, shift: int):
    """Shift ``P̄_1`` down by ``shift * max(diag) * I``.

    Scaling by the certificate's own diagonal guarantees pointwise
    violations regardless of how large the synthesizer made ``S_0``:
    with ``shift >= 2`` the corrupted ``V_1`` is negative at the origin
    (which lies in region 1, since the guard puts ``w[0] <= 1`` there).
    """
    p1 = certificate.p1_bar
    da = p1.rows
    top = max(p1[i, i] for i in range(da))
    assert top > 0
    return dataclasses.replace(
        certificate,
        p1_bar=(
            p1 - RationalMatrix.identity(da).scale(shift * top)
        ).symmetrize(),
    )


class TestWitnessExactness:
    @settings(max_examples=6)
    @given(st.integers(0, 10_000), st.integers(1, 3), st.integers(2, 50))
    def test_refuter_witnesses_violate_exactly(self, seed, n, shift):
        """Every witness point from a refutation must (a) lie in the
        queried region exactly and (b) violate the Lyapunov condition
        in exact rational arithmetic — via the certificate's matrix
        evaluation AND via the scalar polynomial-atom oracle, which
        must agree to the last bit."""
        scenario = generate_cegis_scenario("cegis-shared", n, seed)
        outcome = cegis_piecewise(scenario.system, synthesis="full")
        assert outcome.status == "validated"
        bad = _corrupt(outcome.certificate, shift)
        witnesses = refute_certificate(
            bad, scenario.system, max_boxes=8_000
        )
        assert any(w.condition == "pos1" for w in witnesses)
        variables = [Var(f"w{i}") for i in range(n)]
        for witness in witnesses:
            point = [witness.point[f"w{i}"] for i in range(n)]
            if witness.status == "sat":
                # An exact SAT witness satisfies every query atom,
                # including region membership — checked here in exact
                # rational arithmetic, no float in the chain.
                assert scenario.system.modes[1].region.contains(point)
                assert witness.violation >= 0
            if witness.condition != "pos1":
                continue
            # Differential: rebuild V_1 as a scalar polynomial atom and
            # evaluate through the SMT-term path.
            p1 = bad.p1_bar
            term = quadratic_form_term(
                p1.submatrix(range(n), range(n)), variables
            ) + affine_term(
                [2 * p1[i, n] for i in range(n)], variables, p1[n, n]
            )
            atom = Atom(term, Relation.LE)  # "V1 <= 0": the refutation
            assert witness.violation == -atom_violation(atom, witness.point)
            if witness.status == "sat":
                assert point_satisfies(atom, witness.point)

    def test_refuter_finds_decrease_violations(self):
        """Negating the Lie derivative's sign via a corrupted flow-free
        shortcut: a certificate whose ``P̄_1`` is flipped violates the
        decrease condition too."""
        scenario = generate_cegis_scenario("cegis-shared", 2, 5)
        outcome = cegis_piecewise(scenario.system, synthesis="full")
        flipped = dataclasses.replace(
            outcome.certificate,
            p1_bar=outcome.certificate.p1_bar.scale(Fraction(-1)),
        )
        witnesses = refute_certificate(flipped, scenario.system)
        assert {w.condition for w in witnesses} >= {"dec1"}


# ----------------------------------------------------------------------
# 4. Cut soundness + dedup
# ----------------------------------------------------------------------
class TestCuts:
    @settings(max_examples=20)
    @given(st.integers(0, 10_000))
    def test_sampled_cut_is_implied_by_parent(self, seed):
        """Rayleigh: a unit direction's 1x1 section of a satisfied
        matrix block is satisfied with at least the same margin."""
        rng = np.random.default_rng(seed)
        n, m = 4, 6
        f0 = rng.normal(size=(n, n))
        coefficients = [rng.normal(size=(n, n)) for _ in range(m)]
        block = LmiBlock(
            f0 + f0.T,
            [c + c.T for c in coefficients],
            margin=0.1,
        )
        x = rng.normal(size=m)
        cut = sampled_cut(block, rng.normal(size=n))
        assert cut.violation(x)[0] <= block.violation(x)[0] + 1e-9

    def test_fingerprint_canonicalizes_sign_and_scale(self):
        v = np.array([0.3, -1.2, 0.5])
        base = cut_fingerprint("pos1", v)
        assert cut_fingerprint("pos1", -v) == base
        assert cut_fingerprint("pos1", 7.5 * v) == base
        assert cut_fingerprint("pos1", v + 1e-9) == base
        assert cut_fingerprint("dec1", v) != base
        assert cut_fingerprint("pos1", np.array([0.3, 1.2, 0.5])) != base

    def test_loop_never_records_duplicate_cuts(self):
        """The stall guard: across a whole sampled campaign every
        accumulated cut has a distinct fingerprint, and the loop ends
        by validating — not by stalling on a repeated refutation."""
        scenario = generate_cegis_scenario("cegis-shared", 2, 9)
        outcome = cegis_piecewise(scenario.system, synthesis="sampled")
        assert outcome.status == "validated"
        # Fingerprints are recorded per round; flatten and check there
        # are no repeats (the seen-set contract).
        recorded = [
            fp for r in outcome.rounds for fp in r.new_cuts
        ]
        assert len(recorded) == len(set(recorded))

    def test_reinjecting_seed_directions_adds_nothing(self):
        """Feeding the loop's own seed directions back through the
        fingerprint gate must produce zero new cuts — the loop cannot
        stall by re-adding what it already sampled."""
        scenario = generate_cegis_scenario("cegis-shared", 3, 11)
        lmi = assemble_centered_lmi(scenario.system)
        seen = set()
        first_round = 0
        for direction in seed_directions(lmi):
            for block in (lmi.pos1, lmi.dec1):
                fingerprint = cut_fingerprint(block.name, direction)
                if fingerprint not in seen:
                    seen.add(fingerprint)
                    first_round += 1
        assert first_round == len(seen) > 0
        # Replay the exact same directions (and perturbed/rescaled
        # copies): the gate admits nothing.
        second_round = 0
        for direction in seed_directions(lmi):
            for scale in (1.0, -3.0):
                for block in (lmi.pos1, lmi.dec1):
                    fingerprint = cut_fingerprint(
                        block.name, scale * np.asarray(direction, float)
                    )
                    if fingerprint not in seen:
                        seen.add(fingerprint)
                        second_round += 1
        assert second_round == 0


# ----------------------------------------------------------------------
# 5. The compiled-system cut API
# ----------------------------------------------------------------------
class TestWithCuts:
    @settings(max_examples=10)
    @given(st.integers(0, 10_000))
    def test_with_cuts_matches_fresh_compile(self, seed):
        scenario = generate_cegis_scenario("cegis-shared", 2, seed)
        lmi = assemble_centered_lmi(scenario.system)
        blocks = lmi.blocks("full")
        rng = np.random.default_rng(seed)
        cuts = [
            sampled_cut(lmi.pos1, rng.normal(size=lmi.da)),
            sampled_cut(lmi.dec1, rng.normal(size=lmi.da)),
        ]
        incremental = CompiledLmiSystem(blocks, lmi.dim).with_cuts(cuts)
        fresh = CompiledLmiSystem(blocks + cuts, lmi.dim)
        x = rng.normal(size=lmi.dim)
        np.testing.assert_allclose(
            incremental.violations(x), fresh.violations(x),
            rtol=0, atol=1e-12,
        )

    def test_initial_center_is_honoured(self):
        scenario = generate_cegis_scenario("cegis-shared", 2, 3)
        lmi = assemble_centered_lmi(scenario.system)
        compiled = CompiledLmiSystem(lmi.blocks("full"), lmi.dim)
        center = np.full(lmi.dim, 5.0)
        result = solve_lmi_ellipsoid(
            compiled.blocks, dimension=lmi.dim, initial_radius=200.0,
            max_iterations=20_000,
            compiled=compiled, initial_center=center,
        )
        assert result.feasible
        with pytest.raises(ValueError):
            solve_lmi_ellipsoid(
                compiled.blocks, dimension=lmi.dim,
                compiled=compiled,
                initial_center=np.zeros(lmi.dim + 1),
            )


# ----------------------------------------------------------------------
# 6. Provenance determinism + fuzz-family plumbing
# ----------------------------------------------------------------------
class TestProvenanceAndFamily:
    def test_digest_is_deterministic_and_time_free(self):
        scenario = generate_cegis_scenario("cegis-shared", 2, 21)
        first = cegis_piecewise(scenario.system, synthesis="sampled")
        second = cegis_piecewise(scenario.system, synthesis="sampled")
        assert first.digest() == second.digest()
        provenance = first.provenance()
        flat = repr(provenance)
        assert "time" not in flat and "violation" not in flat

    def test_snap_structured_surface_defect_is_exactly_zero(self):
        scenario = generate_cegis_scenario("cegis-shared", 3, 2)
        lmi = assemble_centered_lmi(scenario.system)
        result = solve_lmi_ellipsoid(
            lmi.blocks("full"), dimension=lmi.dim, initial_radius=200.0,
            max_iterations=20_000,
            compiled=CompiledLmiSystem(lmi.blocks("full"), lmi.dim),
        )
        certificate = snap_certificate(lmi, result.x)
        defect = certificate.surface_defect()
        assert all(
            defect[i, j] == 0
            for i in range(defect.rows)
            for j in range(defect.cols)
        )

    def test_cegis_specs_are_deterministic(self):
        assert cegis_specs(6, 0) == cegis_specs(6, 0)
        kinds = [s["kind"] for s in cegis_specs(4, 0)]
        assert set(kinds) == set(CEGIS_KINDS)

    def test_family_checker_passes_on_fresh_specs(self):
        for spec in cegis_specs(2, 123):
            record = check_cegis_scenario(**spec)
            assert not record.failed, (spec, record.disagreements,
                                       record.harness_errors)
