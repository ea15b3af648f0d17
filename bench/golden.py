"""Golden verdicts: what every workload must answer, whatever its seed.

Each workload's seed only reorders its fixed work (and, for
certify-stream, the request stream over a fixed population), so one
golden file per workload holds for every seed. A workload round reports
its verdicts as a flat ``{key: value}`` map; ``wrong_verdicts`` counts
the keys where that map and the golden file differ, a missing key on
either side included.
"""

from __future__ import annotations

import json
import pathlib

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

_MISSING = object()


def path(workload: str) -> pathlib.Path:
    return GOLDEN_DIR / f"{workload}.json"


def load(workload: str) -> dict:
    with open(path(workload), encoding="utf-8") as handle:
        return json.load(handle)["verdicts"]


def save(workload: str, verdicts: dict) -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    payload = {"workload": workload, "verdicts": dict(sorted(verdicts.items()))}
    path(workload).write_text(json.dumps(payload, indent=1) + "\n")


def mismatches(golden: dict, observed: dict) -> list[str]:
    """Keys whose observed verdict differs from the golden one."""
    return [
        key for key in sorted(golden.keys() | observed.keys())
        if golden.get(key, _MISSING) != observed.get(key, _MISSING)
    ]
