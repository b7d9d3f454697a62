"""Tests for report formatting, the CLI, and the scalability helper."""

import pytest

from repro.experiments import cli, parallel
from repro.experiments.figures import figure11
from repro.experiments.report import format_table, mbps
from repro.experiments.runner import Discipline
from repro.experiments.scalability import (ScalabilityPoint,
                                           format_points, run_point)
from repro.heavyhitter.evaluation import DetectionResult
from repro.experiments.report import figure13_report


class TestFormatTable:
    def test_alignment(self):
        table = format_table(["a", "long_header"],
                             [["xx", 1], ["y", 22222]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        # All rows padded to consistent columns.
        assert lines[2].index("1") == lines[0].index("long_header")

    def test_empty_rows(self):
        table = format_table(["h"], [])
        assert "h" in table

    def test_mbps_formatting(self):
        assert mbps(25_000_000) == "25.00"


class TestFigure13Report:
    def test_renders_rates(self):
        result = DetectionResult(stages=2, slots_per_stage=2048,
                                 round_interval_ms=100.0,
                                 true_positives=90,
                                 false_positives=1,
                                 false_negatives=10,
                                 intervals=10, candidate_flows=5000)
        text = figure13_report([result])
        assert "2048" in text
        assert "100" in text


class TestScalabilityHelper:
    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ValueError):
            run_point("magic", 2, 20.0, duration_s=0.5)

    def test_format_points(self):
        points = [ScalabilityPoint(mechanism="afq", num_flows=4,
                                   rtt_ms=20.0, jfi=0.9,
                                   goodput_bps=1e7, horizon_drops=3)]
        text = format_points(points)
        assert "afq" in text and "0.900" in text


class TestFigure11:
    def test_two_disciplines_through_the_cache(self, tmp_path,
                                               monkeypatch):
        results = figure11(duration_s=2.0, cache_dir=tmp_path)
        assert [r.discipline for r in results] == \
            [Discipline.FIFO, Discipline.CEBINAE]
        for result in results:
            assert len(result.flow_labels) == 22
            assert len(result.goodputs_bps) == 22
            assert 0.0 < result.normalized_jfi <= 1.0
            # Long flows are bottlenecked at the middle, most contended
            # segment, where they share with the Vegas group.
            ideal = dict(zip(result.flow_labels, result.ideal_bps))
            assert ideal["long0"] == ideal["vegas0"] < ideal["bic0"]

        def simulated(**kwargs):
            raise AssertionError("a warm cache must not simulate")

        monkeypatch.setattr(parallel, "run_scenario", simulated)
        assert figure11(duration_s=2.0, cache_dir=tmp_path) == results


class TestCli:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["nonsense"])

    def test_table3_runs_instantly(self, capsys):
        assert cli.main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "PHV=937b" in out
        assert "PHV=1042b" in out

    def test_run_experiment_rejects_unknown(self):
        with pytest.raises(ValueError):
            cli.run_experiment("not_a_thing")

    def test_quick_figure13(self, capsys):
        # The fastest simulation-backed experiment; exercises the full
        # CLI path.
        text = cli.run_experiment("figure13", quick=True)
        assert "FPR" in text and "FNR" in text

    def test_table2_row_selection(self, capsys):
        from repro.experiments.cli import EXPERIMENTS
        assert "table2" in EXPERIMENTS
        # Row selection resolves 1-based indexes; rows outside the
        # table raise instead of wrapping around (0 is not row 25).
        for rows in ([99], [0]):
            with pytest.raises(ValueError, match=r"1\.\.25"):
                cli.run_experiment("table2", quick=True, rows=rows)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["table2", "--rows", "26"])
        assert excinfo.value.code == 2
        assert "1..25" in capsys.readouterr().err
