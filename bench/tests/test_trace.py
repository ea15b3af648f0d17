"""The outside-in tracer: self-time arithmetic, clean install/uninstall,
spans from pooled workers, and a traced CEGIS round."""

import importlib

import pytest

from bench.trace import (
    TARGETS,
    Span,
    Tracer,
    _bindings,
    aggregate,
    covered,
    layer_metrics,
)


def _span(name, span_id, parent, start, end, pid=1, call=1, counts=None):
    return Span(name, pid, span_id, parent, start, end, None, call, counts)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("outer", 1, None, 0.0, 10.0),
        _span("child", 2, 1, 1.0, 3.0),
        _span("child", 3, 1, 2.0, 5.0),  # overlaps its sibling
        _span("leaf", 4, 3, 2.5, 4.0),
        _span("child", 5, 1, 6.0, 7.0),
        _span("other", 6, None, 0.0, 1.0, pid=2),  # another process
    ]
    assert covered(spans[0], spans[1:3] + spans[4:5]) == pytest.approx(5.0)
    agg = aggregate(spans)
    assert agg["outer"].self_s == pytest.approx(5.0)
    # children: 2.0 + (3.0 - 1.5 covered by leaf) + 1.0
    assert agg["child"].self_s == pytest.approx(4.5)
    assert agg["leaf"].self_s == pytest.approx(1.5)
    assert agg["other"].self_s == pytest.approx(1.0)
    assert agg["child"].calls == 3


def test_children_are_clipped_to_their_parent():
    parent = _span("p", 1, None, 1.0, 2.0)
    child = _span("c", 2, 1, 0.5, 1.5)
    assert covered(parent, [child]) == pytest.approx(0.5)


def test_counts_and_generator_resumes_aggregate():
    spans = [
        _span("exact.minors", 1, None, 0.0, 1.0, call=1, counts={"int": 1}),
        _span("exact.minors", 2, None, 2.0, 3.0, call=0),
        _span("exact.minors", 3, None, 4.0, 5.0, call=1, counts={"int": 1}),
    ]
    agg = aggregate(spans)["exact.minors"]
    assert agg.calls == 2
    assert agg.counts == {"int": 2}
    assert agg.self_s == pytest.approx(3.0)


def _snapshot():
    """Every binding the tracer will touch, with its current value."""
    seen = {}
    for target in TARGETS:
        module = importlib.import_module(target.module)
        owner_name, _, attr = target.qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            seen[(id(owner), attr)] = (owner.__dict__, attr, owner.__dict__[attr])
        else:
            original = getattr(module, attr)
            for namespace, key in _bindings(original):
                seen[(id(namespace), key)] = (namespace, key, original)
    return seen


def test_install_then_uninstall_restores_every_binding(tmp_path):
    import repro.sdp.solve

    before = _snapshot()
    # Registry dicts and re-exports are patched too, not only definitions.
    assert any(ns is repro.sdp.solve.BACKENDS for ns, _, _ in before.values())
    assert len(before) > len(TARGETS)
    tracer = Tracer(tmp_path)
    with tracer:
        for namespace, key, original in before.values():
            assert namespace[key] is not original, key
    for namespace, key, original in before.values():
        assert namespace[key] is original, key
    # A second install/uninstall cycle behaves the same.
    with Tracer(tmp_path):
        pass
    for namespace, key, original in before.values():
        assert namespace[key] is original, key


def test_pooled_workers_report_their_spans(tmp_path):
    import repro.runner

    tasks = [
        repro.runner.FuzzTask(kind="zero", n=1, seed=seed) for seed in (1, 2, 3)
    ]
    with Tracer(tmp_path / "trace") as tracer:
        # Looked up after install, like every caller inside the program.
        records = repro.runner.run_tasks(tasks, jobs=2)
    assert len(records) == 3
    spans = tracer.collect()
    task_spans = [s for s in spans if s.name == "runner.task"]
    assert sorted(s.idx for s in task_spans) == ["0:0", "0:1", "0:2"]
    assert {s.pid for s in task_spans} != {tracer.main_pid}
    # Spans inside a task carry the task's submission index.
    by_pid_id = {(s.pid, s.id): s for s in spans}
    for span in spans:
        if span.name == "oracle.check_system":
            assert by_pid_id[(span.pid, span.parent)].idx == span.idx
    campaign = [s for s in spans if s.name == "runner.run_tasks"]
    assert [s.counts["jobs"] for s in campaign] == [2]


def test_traced_cegis_round_reports_oracle_and_sphere_time(tmp_path):
    from bench.workloads import CegisLoop

    workload = CegisLoop(0, tmp_path, cases=("size3",))
    with Tracer(tmp_path / "trace") as tracer:
        result = workload.run_round(tracer)
    assert result.failed == 0
    layers = layer_metrics(tracer.collect(), result.program, result.wall_s,
                           workload.jobs)
    assert layers["sdp.ellipsoid_s"] > 0
    assert layers["smt.sphere_check_s"] > 0
    assert layers["lyapunov.cegis_rounds"] >= 3
    assert layers["bench.layer_coverage"] > 0.9
