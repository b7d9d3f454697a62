"""The hot-path profiling layer: counters, reports, CLI wiring."""

import json

import pytest

from repro.experiments import cli
from repro.netsim import profiling
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.node import Host
from repro.netsim.packet import FlowId, Packet
from repro.netsim.queues import DropTailQueue


def drive_small_network(packets=5):
    sim = Simulator()
    src, dst = Host(sim, 0, "src"), Host(sim, 1, "dst")
    link = Link(sim, src, dst, rate_bps=1e9, delay_ns=1000,
                queue=DropTailQueue(limit_packets=64))
    flow = FlowId(0, 1, 1, 80)
    for i in range(packets):
        link.send(Packet(flow=flow, size_bytes=1500, seq=i))
    sim.run()
    return sim


class TestProfilerLifecycle:
    def test_off_by_default(self):
        assert profiling.current() is None
        sim = drive_small_network()
        assert sim.processed_events > 0  # Runs fine unobserved.

    def test_profiled_scope_installs_and_removes(self):
        with profiling.profiled() as profiler:
            assert profiling.current() is profiler
            drive_small_network()
        assert profiling.current() is None
        assert profiler.events > 0

    def test_counts_every_engine_event(self):
        with profiling.profiled() as profiler:
            sim = drive_small_network()
        assert profiler.events == sim.processed_events

    def test_component_breakdown_names_classes(self):
        with profiling.profiled() as profiler:
            drive_small_network()
        report = profiler.report()
        # Transmission completions are Link-bound; deliveries Host-bound.
        assert report.component_events.get("Link", 0) > 0
        assert report.component_events.get("Host", 0) > 0
        assert sum(report.component_events.values()) == report.events

    def test_aggregates_across_simulators(self):
        with profiling.profiled() as profiler:
            first = drive_small_network()
            second = drive_small_network()
        report = profiler.report()
        assert report.runs == 2
        assert report.events == (first.processed_events
                                 + second.processed_events)
        assert report.sim_s > 0
        assert report.wall_s > 0


class TestComponentOf:
    def test_bound_method_uses_owner_class(self):
        sim = Simulator()
        assert profiling.component_of(sim.run) == "Simulator"

    def test_plain_function_uses_qualname_root(self):
        def helper():
            pass
        assert profiling.component_of(helper).startswith(
            "TestComponentOf")

    def test_lambda_and_builtin_do_not_crash(self):
        assert profiling.component_of(lambda: None)
        assert profiling.component_of(print)


class TestReportFormats:
    def _report(self):
        with profiling.profiled() as profiler:
            drive_small_network()
        return profiler.report()

    def test_text_report_mentions_throughput(self):
        text = self._report().format_text()
        assert "events/sec" in text
        assert "sim/wall ratio" in text
        assert "Link" in text

    def test_bench_json_shape(self, tmp_path):
        report = self._report()
        path = tmp_path / "BENCH_profile.json"
        profiling.write_bench_json(str(path), "unit-test", report)
        payload = json.loads(path.read_text())
        (entry,) = payload["benchmarks"]
        assert entry["name"] == "unit-test"
        assert entry["group"] == "profile"
        assert entry["extra_info"]["events"] == report.events
        assert "component_events" in entry["extra_info"]

    def test_empty_report_is_safe(self):
        report = profiling.HotPathProfiler().report()
        assert report.events_per_sec == 0.0
        assert report.sim_wall_ratio == 0.0
        assert "hot-path profile" in report.format_text()


class TestCliProfileFlag:
    def test_profile_flag_prints_report(self, capsys, tmp_path):
        json_path = tmp_path / "BENCH_profile.json"
        assert cli.main(["table3", "--profile",
                         "--profile-json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "hot-path profile" in out
        payload = json.loads(json_path.read_text())
        assert payload["benchmarks"][0]["name"] == "cebinae-repro table3"

    def test_profiler_uninstalled_after_cli(self):
        cli.main(["table3", "--profile"])
        assert profiling.current() is None

    def test_profiler_uninstalled_when_an_experiment_raises(
            self, monkeypatch):
        def boom(name, **kwargs):
            assert profiling.current() is not None
            raise RuntimeError("experiment failed")

        monkeypatch.setattr(cli, "run_experiment", boom)
        with pytest.raises(RuntimeError, match="experiment failed"):
            cli.main(["table3", "--profile"])
        assert profiling.current() is None

    def test_note_names_what_a_profile_cannot_see(self, capsys):
        note = "in-process simulations only"
        cli.main(["table3", "--profile"])        # Cache reads are on.
        assert note in capsys.readouterr().out
        cli.main(["table3", "--profile", "--workers", "1",
                  "--no-cache"])
        assert note not in capsys.readouterr().out
