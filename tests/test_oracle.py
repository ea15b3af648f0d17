"""The ground-truth oracle: generator, differential harness, shrinking,
artifacts, and the planted-bug self-test."""

import json

import pytest

from repro.exact import is_hurwitz_matrix
from repro.oracle import (
    KINDS,
    FuzzRecord,
    QUICK_PROFILE,
    check_system,
    generate_system,
    replay_spec,
    shrink_failure,
    system_specs,
    write_failure,
)
from repro.runner.journal import decode_value, encode_value
from repro.validate import VALIDATORS, run_validator, temporary_validator
from repro.validate.pipeline import lie_derivative_exact


# ----------------------------------------------------------------------
# Generator ground truth
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2, 4])
def test_constructed_verdict_matches_exact_routh(kind, n):
    system = generate_system(kind, n, seed=11)
    assert is_hurwitz_matrix(system.a, backend="fraction") == system.stable


@pytest.mark.parametrize("kind", ["stable", "stable-illcond"])
def test_witness_algebra_is_exact(kind):
    system = generate_system(kind, 4, seed=3)
    lie = lie_derivative_exact(system.witness_p, system.a)
    assert lie == system.witness_q.scale(-2)
    assert run_validator("sylvester", system.witness_p).valid is True
    assert run_validator("sylvester", system.witness_q.scale(2)).valid is True


def test_generation_is_deterministic_in_spec():
    one = generate_system("stable", 3, seed=99)
    two = generate_system("stable", 3, seed=99)
    other = generate_system("stable", 3, seed=100)
    assert one.a == two.a
    assert one.witness_p == two.witness_p
    assert one.a != other.a


def test_system_specs_plan_is_deterministic_and_covers_kinds():
    plan = system_specs(24, seed=5, sizes=(1, 2, 3))
    again = system_specs(24, seed=5, sizes=(1, 2, 3))
    assert plan == again
    assert {spec["kind"] for spec in plan} == set(KINDS)
    # marginal/jordan need n >= 2 for their 2x2 structure draws
    for spec in plan:
        if spec["kind"] in ("marginal", "jordan"):
            assert spec["n"] >= 2


def test_unknown_kind_and_bad_dimension_raise():
    with pytest.raises(KeyError):
        generate_system("nope", 3, 0)
    with pytest.raises(ValueError):
        generate_system("stable", 0, 0)


# ----------------------------------------------------------------------
# Differential harness
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
def test_check_system_is_clean_on_healthy_code(kind):
    record = check_system(generate_system(kind, 3, seed=7))
    assert not record.failed, (record.disagreements, record.harness_errors)
    assert record.checks > 0


def test_record_survives_journal_encoding():
    record = check_system(generate_system("stable", 2, seed=1))
    clone = decode_value(json.loads(json.dumps(encode_value(record))))
    assert isinstance(clone, FuzzRecord)
    assert clone == record


# ----------------------------------------------------------------------
# Planted bug: detection + shrinking (the acceptance self-test)
# ----------------------------------------------------------------------

def _sign_flipped_sylvester():
    genuine = VALIDATORS["sylvester"]

    def sabotaged(matrix, **options):
        verdict, _witness, extra = genuine(matrix, **options)
        return (not verdict), None, extra

    return temporary_validator("sylvester", sabotaged)


def test_planted_sign_flip_is_caught_and_shrunk_to_minimal():
    with _sign_flipped_sylvester():
        record = check_system(generate_system("stable", 5, seed=13))
        assert record.failed
        assert any(
            d["check"] == "witness" and d["combo"].startswith("sylvester")
            for d in record.disagreements
        )
        result = shrink_failure(record)
    assert result.reduced
    assert result.minimal == {"kind": "stable", "n": 1, "seed": 13}
    assert result.record.failed
    # Outside the planted context the same spec is clean again.
    assert not replay_spec(result.minimal).failed


def test_temporary_validator_restores_registry():
    genuine = VALIDATORS["sylvester"]
    with temporary_validator("sylvester", lambda m, **o: (True, None, {})):
        assert VALIDATORS["sylvester"] is not genuine
    assert VALIDATORS["sylvester"] is genuine
    with temporary_validator("scratch", lambda m, **o: (True, None, {})):
        assert "scratch" in VALIDATORS
    assert "scratch" not in VALIDATORS


# ----------------------------------------------------------------------
# Artifacts
# ----------------------------------------------------------------------

def test_failure_artifacts_roundtrip(tmp_path):
    import numpy as np

    with _sign_flipped_sylvester():
        record = check_system(generate_system("stable", 2, seed=21))
        assert record.failed
    npz_path = write_failure(
        tmp_path, record, minimal={"kind": "stable", "n": 1, "seed": 21}
    )
    assert npz_path.exists()
    lines = (tmp_path / "failures.jsonl").read_text().splitlines()
    entries = [json.loads(line) for line in lines]
    assert len(entries) == 1
    entry = entries[0]
    assert entry["spec"] == {"kind": "stable", "n": 2, "seed": 21}
    assert entry["minimal"]["n"] == 1
    assert entry["disagreements"]
    # The .npz is self-contained: the dumped A matches regeneration.
    dumped = np.load(npz_path)
    system = generate_system("stable", 2, seed=21)
    assert np.array_equal(dumped["a"], system.a_float)
    assert bool(dumped["stable"]) is True
    assert np.array_equal(dumped["witness_p"], system.witness_p.to_numpy())
    # Replay from the JSONL spec alone (healthy code -> clean now).
    assert not replay_spec(entry["spec"], QUICK_PROFILE).failed
