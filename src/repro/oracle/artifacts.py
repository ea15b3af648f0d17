"""Replayable failure artifacts for fuzz campaigns.

Every confirmed failure is persisted twice:

* one line in ``failures.jsonl`` — the spec ``(kind, n, seed)`` plus
  the shrunken spec and the disagreement payload, enough to replay the
  case with :func:`replay_spec` (regeneration is exact, so the spec
  *is* the test case);
* one ``.npz`` per case — the float system matrix and witness pair for
  inspection in a plain numpy session, no repro imports needed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .cegis import CEGIS_KINDS, check_cegis_scenario, generate_cegis_scenario
from .differential import FuzzProfile, check_system
from .generate import generate_system
from .records import FuzzRecord

__all__ = [
    "write_failure",
    "replay_spec",
]


def _case_name(spec: dict) -> str:
    return f"{spec['kind']}-n{spec['n']}-s{spec['seed']}"


def write_failure(
    directory: str | Path,
    record: FuzzRecord,
    minimal: dict | None = None,
) -> Path:
    """Persist one failure; returns the ``.npz`` path.

    Appends the JSONL line first (the replayable part), then writes the
    matrix dump — a crash between the two still leaves a usable case.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    spec = record.spec()
    entry = {
        "spec": spec,
        "minimal": minimal or spec,
        "stable": record.stable,
        "provenance": record.provenance,
        "disagreements": record.disagreements,
        "harness_errors": record.harness_errors,
    }
    with (directory / "failures.jsonl").open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")

    if record.kind in CEGIS_KINDS:
        scenario = generate_cegis_scenario(record.kind, record.n, record.seed)
        arrays = {"expected": np.array(scenario.expected)}
        for index, mode in enumerate(scenario.system.modes):
            arrays[f"a{index}"] = mode.flow.a
            arrays[f"b{index}"] = mode.flow.b
        if scenario.witness_p is not None:
            arrays["witness_p"] = scenario.witness_p.to_numpy()
    else:
        system = generate_system(record.kind, record.n, record.seed)
        arrays = {"a": system.a_float, "stable": np.array(system.stable)}
        if system.witness_p is not None:
            arrays["witness_p"] = system.witness_p.to_numpy()
            arrays["witness_q"] = system.witness_q.to_numpy()
    path = directory / f"{_case_name(spec)}.npz"
    np.savez(path, **arrays)
    return path


def replay_spec(
    spec: dict, profile: FuzzProfile | None = None
) -> FuzzRecord:
    """Regenerate a spec'd system and re-run the full battery on it."""
    if spec["kind"] in CEGIS_KINDS:
        return check_cegis_scenario(
            spec["kind"], spec["n"], spec["seed"], profile
        )
    system = generate_system(spec["kind"], spec["n"], spec["seed"])
    return check_system(system, profile)
