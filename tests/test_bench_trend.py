"""Benchmark trend folding and the shared normalised-ratio gate."""

import json

import pytest

from repro.experiments.bench_trend import (
    BASELINE_SCHEMA_VERSION, build_trend, format_trend,
    load_bench_document, load_medians, main, normalised, report_main,
    write_baseline)


def write_pytest_bench(path, entries):
    path.write_text(json.dumps({"benchmarks": [
        {"name": name, **body} for name, body in entries.items()]}))
    return str(path)


class TestLoaders:
    def test_pytest_benchmark_shape(self, tmp_path):
        path = write_pytest_bench(tmp_path / "bench.json", {
            "engine_run": {"stats": {"median": 0.5},
                           "extra_info": {"events_per_s": 1e6,
                                          "tag": "hot",
                                          "flag": True}},
        })
        document = load_bench_document(path)
        assert document["medians"] == {"engine_run": 0.5}
        # Numeric non-bool extra_info only.
        assert document["metrics"] == {"engine_run.events_per_s": 1e6}

    def test_stats_less_benchmark_contributes_metrics_only(
            self, tmp_path):
        path = write_pytest_bench(tmp_path / "obs.json", {
            "obs_smoke": {"extra_info": {"records": 1200.0}},
        })
        document = load_bench_document(path)
        assert document["medians"] == {}
        assert document["metrics"] == {"obs_smoke.records": 1200.0}
        with pytest.raises(ValueError, match="no benchmarks"):
            load_medians(path)

    def test_baseline_round_trip(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        write_baseline(path, {"b": 2.0, "a": 1.0})
        assert load_medians(path) == {"a": 1.0, "b": 2.0}
        data = json.loads(open(path).read())
        assert data["schema_version"] == BASELINE_SCHEMA_VERSION

    def test_baseline_bad_version_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"schema_version": 99,
                                    "medians": {"a": 1.0}}))
        with pytest.raises(ValueError, match="schema_version"):
            load_medians(str(path))


def trend_of(tmp_path, current, baseline):
    """``build_trend`` over in-memory medians, at the +10% threshold."""
    hot = write_pytest_bench(tmp_path / "hot.json", {
        name: {"stats": {"median": median}}
        for name, median in current.items()})
    path = str(tmp_path / "baseline.json")
    write_baseline(path, baseline)
    return build_trend([hot], baseline_path=path, threshold=0.10)


class TestCompare:
    def test_relative_regression_flagged(self, tmp_path):
        document = trend_of(tmp_path, {"a": 1.0, "b": 2.0},
                            {"a": 1.0, "b": 1.0})  # b moved against a
        assert document["regressions"] == ["b"]
        flags = {row["name"]: row["flag"] for row in document["rows"]}
        assert flags == {"a": "ok", "b": "REGRESSION"}

    def test_uniform_slowdown_cancels(self, tmp_path):
        document = trend_of(tmp_path, {"a": 3.0, "b": 6.0},
                            {"a": 1.0, "b": 2.0})  # slower machine
        assert document["regressions"] == []
        assert [row["normalised_ratio"]
                for row in document["rows"]] == [1.0, 1.0]

    def test_no_common_benchmarks(self, tmp_path):
        document = trend_of(tmp_path, {"a": 1.0}, {"b": 1.0})
        (row,) = document["rows"]
        assert row["flag"] == "unbaselined"
        assert document["regressions"] == []

    def test_normalised_needs_positive_median(self):
        with pytest.raises(ValueError, match="positive"):
            normalised({"a": 0.0}, ["a"])


class TestBuildTrend:
    def test_folds_artifacts_and_flags(self, tmp_path, capsys):
        hot = write_pytest_bench(tmp_path / "hot.json", {
            "a": {"stats": {"median": 1.0}},
            "b": {"stats": {"median": 2.0}},
        })
        obs = write_pytest_bench(tmp_path / "obs.json", {
            "obs_smoke": {"extra_info": {"records": 10.0}},
        })
        baseline = str(tmp_path / "baseline.json")
        write_baseline(baseline, {"a": 1.0, "b": 1.0})
        document = build_trend(
            [hot, obs, str(tmp_path / "gone.json")],
            baseline_path=baseline)
        capsys.readouterr()
        assert document["sources"] == ["hot.json", "obs.json"]
        assert document["missing"] == ["gone.json"]
        rows = {row["name"]: row for row in document["rows"]}
        assert rows["a"]["flag"] == "ok"
        assert rows["b"]["flag"] == "REGRESSION"
        assert rows["b"]["source"] == "hot.json"
        assert document["regressions"] == ["b"]
        assert document["metrics"] == [{"name": "obs_smoke.records",
                                        "value": 10.0,
                                        "source": "obs.json"}]

    def test_without_baseline_everything_unbaselined(self, tmp_path):
        hot = write_pytest_bench(tmp_path / "hot.json", {
            "a": {"stats": {"median": 1.0}},
        })
        document = build_trend([hot])
        (row,) = document["rows"]
        assert row["flag"] == "unbaselined"
        assert row["normalised_ratio"] is None
        assert document["regressions"] == []

    def test_markdown_rendering(self, tmp_path, capsys):
        hot = write_pytest_bench(tmp_path / "hot.json", {
            "a": {"stats": {"median": 1.0}},
            "b": {"stats": {"median": 2.0}},
        })
        baseline = str(tmp_path / "baseline.json")
        write_baseline(baseline, {"a": 1.0, "b": 1.0})
        text = format_trend(build_trend([hot],
                                        baseline_path=baseline))
        capsys.readouterr()
        assert "| benchmark | median (s) |" in text
        assert "1 regression(s): b" in text


class TestReportMain:
    def artifacts(self, tmp_path):
        hot = write_pytest_bench(tmp_path / "hot.json", {
            "a": {"stats": {"median": 1.0}},
            "b": {"stats": {"median": 2.0}},
        })
        baseline = str(tmp_path / "baseline.json")
        write_baseline(baseline, {"a": 1.0, "b": 1.0})
        return hot, baseline

    def test_writes_artifacts_and_reports(self, tmp_path, capsys):
        hot, baseline = self.artifacts(tmp_path)
        out = tmp_path / "trend.json"
        markdown = tmp_path / "trend.md"
        assert report_main([hot, "--baseline", baseline,
                            "--out", str(out),
                            "--markdown", str(markdown)]) == 0
        assert "1 regression(s)" in capsys.readouterr().out
        document = json.loads(out.read_text())
        assert document["regressions"] == ["b"]
        assert "REGRESSION" in markdown.read_text()

    def test_gate_fails_on_regression(self, tmp_path, capsys):
        hot, baseline = self.artifacts(tmp_path)
        assert report_main([hot, "--baseline", baseline,
                            "--gate"]) == 1
        capsys.readouterr()
        # A generous threshold swallows the movement.
        assert report_main([hot, "--baseline", baseline,
                            "--threshold", "2.0", "--gate"]) == 0
        capsys.readouterr()

    def test_write_baseline_makes_the_gate_pass_again(self, tmp_path,
                                                      capsys):
        hot, baseline = self.artifacts(tmp_path)
        fresh = str(tmp_path / "fresh.json")
        assert report_main([hot, "--baseline", baseline, "--gate",
                            "--write-baseline", fresh]) == 1
        assert load_medians(fresh) == {"a": 1.0, "b": 2.0}
        assert report_main([hot, "--baseline", fresh, "--gate"]) == 0
        capsys.readouterr()

    def test_bench_dispatcher(self, tmp_path, capsys):
        hot, _ = self.artifacts(tmp_path)
        assert main([]) == 2
        assert main(["nonsense"]) == 2
        assert main(["report", hot]) == 0
        capsys.readouterr()

    def test_cli_entry_point(self, tmp_path, capsys):
        from repro.experiments.cli import main as repro_main
        hot, _ = self.artifacts(tmp_path)
        assert repro_main(["bench", "report", hot]) == 0
        assert "| benchmark |" in capsys.readouterr().out
