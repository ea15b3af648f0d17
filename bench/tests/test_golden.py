"""Golden files reject tampered verdicts; BENCHMARK.json matches the code."""

import json
import pathlib

import pytest

from bench import golden
from bench.run import WORKLOAD_NAMES
from bench.metrics import END_TO_END, PER_LAYER

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _tamper(value):
    if isinstance(value, bool) or value is None:
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "-tampered"
    if isinstance(value, list):
        return [_tamper(value[0])] + value[1:]
    raise TypeError(type(value))


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_golden_check_rejects_a_tampered_verdict(workload):
    expected = golden.load(workload)
    assert expected
    assert golden.mismatches(expected, dict(expected)) == []
    for key in list(expected)[:: max(1, len(expected) // 5)]:
        observed = dict(expected)
        observed[key] = _tamper(observed[key])
        assert golden.mismatches(expected, observed) == [key]
    missing = dict(expected)
    key = next(iter(missing))
    del missing[key]
    assert golden.mismatches(expected, missing) == [key]


def test_cegis_golden_agrees_with_checked_in_digests():
    expected = golden.load("cegis-loop")
    digests = json.loads((ROOT / "results" / "cegis_digests.json").read_text())
    shared = expected.keys() & digests.keys()
    assert shared
    for key in shared:
        assert expected[key] == [digests[key]["status"], digests[key]["digest"]]


def test_fuzz_golden_expects_a_clean_campaign():
    expected = golden.load("fuzz-small")
    assert expected["disagreements"] == 0
    assert expected["harness_errors"] == 0


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    for listed, table in ((spec["end_to_end"], END_TO_END),
                          (spec["per_layer"], PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in listed] == [
            (m.name, m.unit, m.better) for m in table
        ]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_every_workload_is_named():
    from bench.workloads import WORKLOADS

    assert tuple(WORKLOADS) == WORKLOAD_NAMES
