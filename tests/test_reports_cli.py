"""Tests for report formatting, the CLI, and the scalability report."""

import pytest

from repro.experiments import cli, parallel
from repro.experiments.figures import parking_lot_ideal
from repro.experiments.parallel import Comparison, run_grid
from repro.experiments.report import (format_table, mbps,
                                      parking_lot_jfi,
                                      scalability_report)
from repro.experiments.runner import Discipline, ScenarioResult
from repro.heavyhitter.evaluation import DetectionResult
from repro.experiments.report import figure13_report
from repro.suite.registry import paper_spec


def figure11_points(duration_s):
    runs = paper_spec("figure11").with_duration_cap(duration_s).compile()
    return [run.runspec for run in runs]


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
    def test_scalability_report_row(self):
        scaled = paper_spec("scalability").base_point(20.0)
        run = ScenarioResult(
            name=scaled.spec.name, discipline=Discipline.AFQ,
            duration_s=20.0, sim_rate_bps=20e6, rate_scale=1.0,
            flow_scale=1.0, cca_names=["newreno"] * 4,
            goodputs_bps=[2e6, 2e6, 2e6, 4e6], throughput_bps=1.1e7,
            events=1, horizon_drops=3)
        text = scalability_report(
            [Comparison(scaled, {Discipline.AFQ: run})])
        assert text.splitlines()[-1] == (
            "     afq     4   20ms  0.893   10.00 M             3")


class TestFigure11:
    def test_two_disciplines_through_the_cache(self, tmp_path,
                                               monkeypatch):
        comparison, = run_grid(figure11_points(2.0), workers=1,
                               cache_dir=tmp_path)
        assert list(comparison.results) == \
            [Discipline.FIFO, Discipline.CEBINAE]
        # Long flows are bottlenecked at the middle, most contended
        # segment, where they share with the Vegas group.
        ideal = parking_lot_ideal(comparison.scaled.spec)
        assert len(ideal) == 22
        assert ideal["long0"] == ideal["vegas0"] < ideal["bic0"]
        for discipline, result in comparison.results.items():
            assert len(result.goodputs_bps) == 22
            assert 0.0 < parking_lot_jfi(comparison, discipline) <= 1.0

        def simulated(**kwargs):
            raise AssertionError("a warm cache must not simulate")

        monkeypatch.setattr(parallel, "run_scenario", simulated)
        assert run_grid(figure11_points(2.0), workers=1,
                        cache_dir=tmp_path) == [comparison]


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

    @pytest.mark.parametrize("argv, names", [
        (["table3", "--faults", "loss_rate=0.1"], "--faults"),
        (["faults", "--quick", "--faults", "bogus_key=1"], "bogus_key"),
        (["faults", "--faults", "/nonexistent.json"],
         "/nonexistent.json"),
        (["figure1", "--rows", "3"], "--rows"),
        (["figure1", "--wall-limit", "5"], "--wall-limit"),
        (["bench", "report", "x.json"], "bench"),
    ])
    def test_usage_errors_exit_2_in_one_line(self, argv, names,
                                             monkeypatch, capsys):
        def ran(*args, **kwargs):
            raise AssertionError("a usage error must run nothing")

        monkeypatch.setattr(cli, "run_experiment", ran)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        error_line = captured.err.strip().splitlines()[-1]
        assert error_line.startswith("cebinae-repro: error:")
        assert names in error_line
