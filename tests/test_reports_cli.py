"""Tests for report formatting, the CLI, and the scalability and
fault-recovery reports."""

import math
import re
import statistics

import pytest

from repro.experiments import cli, fidelity, parallel
from repro.experiments.figures import parking_lot_ideal
from repro.experiments.parallel import THREE_WAY, Comparison, run_grid
from repro.experiments.report import (T_95, faults_report,
                                      figure9_report, format_table,
                                      jfi_recovery_time_s, mbps,
                                      mean_half_width, parking_lot_jfi,
                                      scalability_report, table2_report)
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
        scaled = paper_spec("scalability").base_point(
            20.0, Discipline.AFQ).scaled
        run = ScenarioResult(
            name=scaled.spec.name, discipline=Discipline.AFQ,
            duration_s=20.0, sim_rate_bps=20e6, rate_scale=1.0,
            flow_scale=1.0, cca_names=["newreno"] * 4,
            goodputs_bps=[2e6, 2e6, 2e6, 4e6], throughput_bps=1.1e7,
            events=1, horizon_drops=3)
        text = scalability_report(
            [Comparison(scaled, {Discipline.AFQ: [run]})])
        assert text.splitlines()[-1] == (
            "     afq     4   20ms  0.893   10.00 M             3")


class TestMeanHalfWidth:
    def test_mean_and_sample_std(self):
        mean, half_width = mean_half_width([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        # Sample (n - 1) standard deviation 1, two degrees of freedom.
        assert half_width == pytest.approx(4.303 * 1.0 / math.sqrt(3))

    def test_one_sample_has_zero_half_width(self):
        assert mean_half_width([0.9]) == (0.9, 0.0)

    def test_spread_samples_give_an_interval_around_the_mean(self):
        samples = [0.8, 0.9, 0.85, 0.95]
        mean, half_width = mean_half_width(samples)
        assert mean == pytest.approx(0.875)
        assert half_width > 0
        assert mean - half_width < min(samples)
        assert max(samples) < mean + half_width

    def test_three_samples_use_students_t_not_the_normal(self):
        # Two degrees of freedom: 4.303, not 1.96.  Needs no scipy.
        mean, half_width = mean_half_width([0.8, 0.9, 1.0])
        assert mean == pytest.approx(0.9)
        assert half_width == pytest.approx(4.303 * 0.1 / math.sqrt(3))

    def test_t_table_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        assert len(T_95) == 30
        for dof, value in enumerate(T_95, start=1):
            assert value == pytest.approx(stats.t.ppf(0.975, dof),
                                          abs=5e-4)
        wide = [float(i % 7) for i in range(40)]
        assert mean_half_width(wide)[1] == pytest.approx(
            1.960 * statistics.stdev(wide) / math.sqrt(40))


def three_way(document, repeats):
    """A hand-built comparison of ``document``'s base point: repeat
    ``i`` of the ``k``-th discipline gives its two flows 4 and
    ``4 + 2k + 3i`` Mbps, so every repeat's JFI differs."""
    scaled = paper_spec(document).base_point(10.0, Discipline.FIFO).scaled
    runs = {discipline: [ScenarioResult(
        name=scaled.spec.name, discipline=discipline, duration_s=10.0,
        sim_rate_bps=25e6, rate_scale=4.0, flow_scale=1.0,
        cca_names=["newreno"] * 2,
        goodputs_bps=[4e6, (4 + 2 * k + 3 * repeat) * 1e6],
        throughput_bps=2e7, events=1) for repeat in range(repeats)]
        for k, discipline in enumerate(THREE_WAY)}
    return Comparison(scaled, runs)


class TestRepeatedReports:
    """Table 2 and Figure 9 quote a JFI interval over repeats."""

    def test_one_repeat_prints_one_jfi_per_cell(self):
        table2 = table2_report([three_way("table2_row01", 1)])
        assert table2.splitlines() == [
            "table2_row01    fifo: JFI 1.000 (paper 0.740)  goodput 8.0 "
            "Mbps of 25 (paper 95 of 100)",
            "table2_row01      fq: JFI 0.962 (paper 0.982)  goodput 10.0 "
            "Mbps of 25 (paper 92 of 100)",
            "table2_row01 cebinae: JFI 0.900 (paper 0.999)  goodput 12.0 "
            "Mbps of 25 (paper 92 of 100)",
            "row    config                    scale  JFI fifo (paper)  "
            "JFI fq (paper)  JFI ceb (paper)  goodput ceb/fifo",
            "-----  ------------------------  -----  ----------------  "
            "--------------  ---------------  ----------------",
            "row01  100M newreno:2,newreno:8  4x/1x  1.000 (0.740)     "
            "0.962 (0.982)   0.900 (0.999)    1.500"]
        figure9 = figure9_report([three_way("figure9", 1)])
        assert figure9.splitlines()[-1].split() == [
            "64", "1.000", "0.962", "0.900", "8.00", "10.00", "12.00"]

    def test_three_repeats_print_mean_and_students_t_half_width(self):
        comparison = three_way("table2_row01", 3)
        cells = []
        for discipline in THREE_WAY:
            jfis = [run.jfi for run in comparison.runs[discipline]]
            half_width = 4.303 * statistics.stdev(jfis) / math.sqrt(3)
            cells.append(f"{statistics.fmean(jfis):.3f} ± "
                         f"{half_width:.3f}")
        assert cells == ["0.925 ± 0.193", "0.878 ± 0.201",
                         "0.828 ± 0.169"]
        lines = table2_report([comparison]).splitlines()
        for line, discipline, cell in zip(lines, THREE_WAY, cells):
            assert f"{discipline.value}: JFI {cell} (paper" in line
        assert re.split(r"\s{2,}", lines[-1])[3:6] == [
            f"{cell} ({paper})"
            for cell, paper in zip(cells, ("0.740", "0.982", "0.999"))]
        row = figure9_report([three_way("figure9", 3)]).splitlines()[-1]
        assert re.split(r"\s{2,}", row)[1:4] == cells


class TestJfiRecoveryTime:
    """Recovery after faults clear at 24 s from a 0.9 pre-fault JFI."""

    def recovery(self, after_24_s, sustain_s=3):
        series = [0.9] * 12 + [0.5] * 12 + after_24_s
        return jfi_recovery_time_s(series, 24.0, 0.9, sustain_s=sustain_s)

    def test_never_left_the_band(self):
        series = [0.9] * 40
        assert jfi_recovery_time_s(series, 24.0, 0.9) == 0.0

    def test_sustained_return_k_seconds_after(self):
        assert self.recovery([0.5] * 4 + [0.9] * 12) == 4.0

    def test_one_in_band_second_inside_a_dip_does_not_count(self):
        assert self.recovery([0.5, 0.9, 0.5, 0.5] + [0.9] * 12) == 4.0

    def test_run_ends_before_a_sustained_return(self):
        assert self.recovery([0.5, 0.9, 0.9]) is None


class TestFaultsReport:
    def test_every_row_is_measured_against_the_sweep_schedule(self):
        # Two flows, fair (JFI 1) until 12 s, one starved (JFI 0.5)
        # through 27 s, fair again from 28 s: recovery 4 s after the
        # schedule clears at 24 s.  The fault-free control reads the
        # same, because the window is the sweep's, not its own (it has
        # none).
        fair, starved = [1e6, 1e6], [1e6, 0.0]
        seconds = [fair] * 12 + [starved] * 16 + [fair] * 12
        goodput_series = [list(flow) for flow in zip(*seconds)]
        summary = {"control_plane": {"deadline_misses": 300,
                                     "failopen_rounds": 300},
                   "links": {"L->R": {"lost_packets": 29}}}
        comparisons = []
        for name, fault_summary in (("faults_i0", None),
                                    ("faults_i1", summary)):
            scaled = paper_spec(name).base_point(
                40.0, Discipline.CEBINAE).scaled
            run = ScenarioResult(
                name=name, discipline=Discipline.CEBINAE, duration_s=40.0,
                sim_rate_bps=5e6, rate_scale=20.0, flow_scale=1.0,
                cca_names=["newreno"] * 2, goodputs_bps=[1e6, 1e6],
                throughput_bps=2e6, events=1,
                goodput_series_bps=goodput_series,
                fault_summary=fault_summary)
            comparisons.append(
                Comparison(scaled, {Discipline.CEBINAE: [run]}))
        rows = faults_report(comparisons).splitlines()[-2:]
        assert [row.split() for row in rows] == [
            ["0", "1.000", "4", "0", "0", "0", "ok"],
            ["1", "1.000", "4", "300", "300", "29", "ok"]]


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

    def test_quick_figure13(self, capsys, tmp_path):
        """The quick grid has the paper's shape: every Figure 13
        fidelity target (negligible FPR; FNR positive at the smallest
        cache, never higher with more slots or stages) holds.  The
        cache, as in a CLI run, replays 13b's 512-slot cells from 13a."""
        results = cli.figure13_results(quick=True, cache_dir=str(tmp_path))
        assert capsys.readouterr().err.count("[parallel] cached") == 3
        assert len({(r.stages, r.slots_per_stage, r.round_interval_ms)
                    for r in results}) == 15
        for target in fidelity.TARGETS:
            if not target.points:
                assert fidelity.judge(target, {}, results)["verdict"] \
                    == "hit", target.name

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
        (["figure13", "--wall-limit", "5"], "--wall-limit"),
        (["faults", "--rows", "3"], "--rows"),
        (["all", "--rows", "26"], "1..25"),
        (["figure1", "--rows", "3"], "--rows"),
        (["table3", "--wall-limit", "5"], "--wall-limit"),
        (["bench", "report", "x.json"], "bench"),
        (["figure1", "--quick", "--wall-limit", "-1"], "--wall-limit"),
        (["figure1", "--quick", "--wall-limit", "0"], "--wall-limit"),
        (["figure1", "--quick", "--wall-limit", "nan"], "--wall-limit"),
        (["figure1", "--quick", "--wall-limit", "inf"], "--wall-limit"),
        (["table2", "--rows", "2", "2", "--no-cache"], "selected once"),
        (["figure9", "--workers", "-3"], "--workers"),
        (["table2", "--workers", "0"], "--workers"),
        (["fidelity", "--workers", "0"], "--workers"),
        (["fidelity", "--quick"], "--quick"),
        (["fidelity", "--rows", "2"], "--rows"),
        (["figure1", "--out", "x.json"], "--out"),
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

    def test_a_failed_point_ends_the_run_in_one_line(self, tmp_path,
                                                      capsys):
        argv = ["figure1", "--quick", "--no-cache", "--wall-limit", "1e-9",
                "--cache-dir", str(tmp_path)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines()
                  if line.startswith("cebinae-repro: error:")]
        assert len(errors) == 1
        assert "figure1/fifo" in errors[0]
        assert "watchdog" in errors[0]
