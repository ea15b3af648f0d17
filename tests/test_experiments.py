"""Tests for the experiment drivers (repro.experiments)."""

import json

import pytest

from repro.experiments import (
    MethodKey,
    dump_records,
    method_rows,
    render_figure3,
    render_grid,
    render_piecewise,
    render_sweep,
    render_table1,
    render_table2,
    rounding_sweep,
    run_figure3,
    run_piecewise,
    run_table1,
    run_table2,
)

QUICK_METHODS = [MethodKey("eq-num"), MethodKey("lmi", "shift")]


@pytest.fixture(scope="module")
def table1_quick():
    return run_table1(
        sizes=(3,), integer_sizes=(3,), methods=QUICK_METHODS,
        keep_candidates=True,
    )


class TestRecordsHelpers:
    def test_method_rows_paper_order(self):
        rows = method_rows()
        assert str(rows[0]) == "eq-smt"
        assert str(rows[1]) == "eq-num"
        assert str(rows[3]) == "lmi[ipm]"
        assert len(rows) == 12  # 3 scalar methods + 3 LMI x 3 backends

    def test_method_rows_without_eq_smt(self):
        assert len(method_rows(include_eq_smt=False)) == 11

    def test_render_grid_alignment(self):
        text = render_grid(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("a")
        assert len(lines) == 5

    def test_dump_records(self, tmp_path, table1_quick):
        records, _ = table1_quick
        path = tmp_path / "out.json"
        dump_records(records, str(path))
        loaded = json.loads(path.read_text())
        assert len(loaded) == len(records)
        assert loaded[0]["case"].startswith("size3")


class TestTable1:
    def test_grid_completeness(self, table1_quick):
        records, candidates = table1_quick
        # 2 cases (size3i, size3) x 2 modes x 2 methods.
        assert len(records) == 8
        assert all(r.valid is True for r in records)
        assert len(candidates) == 8

    def test_render(self, table1_quick):
        records, _ = table1_quick
        text = render_table1(records)
        assert "Table I" in text
        assert "4/4" in text  # 2 cases x 2 modes per size-3 bucket

    def test_rounding_sweep_and_render(self, table1_quick):
        _, candidates = table1_quick
        sweep = rounding_sweep(candidates, sigfig_levels=(10, 4))
        assert len(sweep) == 2 * len(candidates)
        text = render_sweep(sweep)
        assert "invalid@10sf" in text
        assert "TOTAL" in text

    def test_eq_smt_timeout_recorded(self):
        records, _ = run_table1(
            sizes=(5,), integer_sizes=(),
            methods=[MethodKey("eq-smt")], eq_smt_deadline=1e-3,
        )
        assert all(r.synth_status == "timeout" for r in records)
        text = render_table1(records)
        assert "TO" in text


class TestFigure3:
    def test_run_with_shared_candidates(self, table1_quick):
        _, candidates = table1_quick
        records = run_figure3(
            candidates=candidates,
            validators=("sylvester", "gauss"),
        )
        # every candidate validated by both validators
        assert len(records) == 2 * len(candidates)
        assert all(r.valid is True for r in records)
        text = render_figure3(records)
        assert "vs sylvester" in text

    def test_size_caps_respected(self, table1_quick):
        _, candidates = table1_quick
        records = run_figure3(
            candidates=candidates,
            validators=("icp",),
            size_caps={"icp": 0},  # cap below every case size
        )
        assert records == []


class TestTable2:
    def test_run_and_render(self):
        records = run_table2(
            case_names=("size3",), methods=[MethodKey("eq-num")]
        )
        assert len(records) == 2  # two modes
        assert all(r.k and r.k > 0 for r in records)
        assert all(r.epsilon and r.epsilon > 0 for r in records)
        text = render_table2(records)
        assert "Table II" in text
        assert "kkt-corner" in text or "surface-min" in text or "whole-region" in text


class TestPiecewiseDriver:
    def test_run_and_render(self):
        records = run_piecewise(
            case_names=("size3",),
            encodings=("continuous",),
            max_iterations=2_000,
            max_boxes=2_000,
        )
        assert len(records) == 1
        record = records[0]
        assert record.encoding == "continuous"
        assert record.validation_valid is not True
        text = render_piecewise(records)
        assert "Sec. VI-B.2" in text


class TestCli:
    def test_main_piecewise_quick(self, capsys, monkeypatch, tmp_path):
        from repro.experiments.__main__ import main

        # Nothing asked for a file, so the working directory stays empty.
        monkeypatch.chdir(tmp_path)
        code = main(["piecewise", "--quick"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Piecewise" in out
        assert list(tmp_path.iterdir()) == []

    def test_main_rejects_unknown(self):
        from repro.experiments.__main__ import main

        for argv in (
            ["table9"],
            # The piecewise pipeline is no longer selectable.
            ["piecewise", "--quick", "--solver", "hybrid"],
            ["piecewise", "--quick", "--oracle-batch", "on"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2, argv


class TestRenderEdgeCases:
    def test_figure3_render_without_sylvester(self):
        from repro.experiments import Figure3Record, render_figure3

        records = [
            Figure3Record(
                case="size3", size=3, mode=0, method="eq-num", backend=None,
                validator="gauss", valid=True, time=0.5,
            )
        ]
        text = render_figure3(records)
        assert "gauss" in text  # no division-by-zero on missing sylvester

    def test_table2_render_skipped_row(self):
        from repro.experiments import Table2Record, render_table2

        record = Table2Record(
            case="size15", size=15, mode=0, method="lmi", backend="proj",
            time=None, volume=None, log10_volume=None, epsilon=None,
            k=None, region_case=None, skipped_reason="candidate not validated",
        )
        text = render_table2([record])
        assert "candidate not validated" in text

    def test_table1_render_infeasible_bucket(self):
        from repro.experiments import Table1Record, render_table1

        records = [
            Table1Record(
                case="size3", size=3, mode=0, method="lmi-alpha",
                backend="shift", synth_time=None, synth_status="infeasible",
                valid=None, validation_time=None,
            )
        ]
        text = render_table1(records)
        assert "TO" in text and "0/1" in text
