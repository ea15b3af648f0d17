"""Benchmarks for the extension subsystems (beyond the paper's tables).

Times the certification-campaign building blocks — certificates and
fault margins — so regressions in the extended pipeline are visible next
to the paper-reproduction numbers.
"""

from __future__ import annotations

import pytest

from repro.engine import case_by_name, fault_margin
from repro.lyapunov import synthesize
from repro.robust import StabilityCertificate, certify_mode


@pytest.fixture(scope="module")
def size5_mode0():
    case = case_by_name("size5")
    system = case.switched_system(case.reference())
    candidate = synthesize("lmi", case.mode_matrix(0), backend="ipm")
    return case, system.modes[0].flow, system.modes[0].region.halfspaces[0], candidate


def test_certificate_build_and_verify(benchmark, size5_mode0):
    _case, flow, halfspace, candidate = size5_mode0

    def build():
        certificate = certify_mode(flow, halfspace, candidate.exact_p(10))
        return StabilityCertificate.from_json(certificate.to_json()).verify()

    assert benchmark(build) is True


def test_fault_margin_bisection(benchmark):
    plant = case_by_name("size18").plant

    margin = benchmark.pedantic(
        fault_margin,
        args=(plant, "actuator-effectiveness", 0),
        rounds=1,
        iterations=1,
    )
    assert 0 < margin <= 1.0
