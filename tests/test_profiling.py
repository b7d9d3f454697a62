"""The hot-path profile: engine counters in the metrics registry."""

import pytest

from repro.experiments import cli
from repro.experiments.report import profile_report
from repro.netsim import profiling
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.node import Host
from repro.netsim.packet import FlowId, Packet
from repro.netsim.queues import DropTailQueue
from repro.obs import metrics as obs_metrics
from repro.obs.aggregate import merge_snapshots


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
        assert obs_metrics.current() is None
        sim = drive_small_network()
        assert sim.processed_events > 0  # Runs fine unobserved.

    def test_profiled_scope_installs_and_removes(self):
        with profiling.profiled() as registry:
            assert obs_metrics.current() is registry
            drive_small_network()
        assert obs_metrics.current() is None
        assert registry.counter("sim_events_total").value > 0

    def test_counts_every_engine_event(self):
        with profiling.profiled() as registry:
            sim = drive_small_network()
        assert registry.counter("sim_events_total").value == \
            sim.processed_events

    def test_component_breakdown_names_classes(self):
        with profiling.profiled() as registry:
            sim = drive_small_network()
        components = registry.component_events
        # Transmission completions are Link-bound; deliveries Host-bound.
        assert components.get("Link", 0) > 0
        assert components.get("Host", 0) > 0
        assert sum(components.values()) == sim.processed_events

    def test_aggregates_across_simulators(self):
        with profiling.profiled() as registry:
            first = drive_small_network()
            second = drive_small_network()
        assert registry.counter("sim_runs_total").value == 2
        assert registry.counter("sim_events_total").value == (
            first.processed_events + second.processed_events)
        assert registry.counter("sim_time_seconds_total").value > 0
        assert registry.wall_s > 0

    def test_wall_time_stays_out_of_the_snapshot(self):
        with profiling.profiled() as registry:
            drive_small_network()
        with profiling.profiled() as again:
            drive_small_network()
        assert registry.snapshot() == again.snapshot()
        assert obs_metrics.load_snapshot(registry.snapshot()).wall_s == 0

    def test_components_survive_snapshot_and_merge(self):
        with profiling.profiled() as registry:
            drive_small_network()
        snapshot = registry.snapshot()
        components = registry.component_events
        assert obs_metrics.load_snapshot(snapshot).component_events == \
            components
        merged = merge_snapshots([snapshot, snapshot])
        assert merged.component_events == {
            name: 2 * count for name, count in components.items()}


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
    def test_text_report_mentions_throughput(self):
        with profiling.profiled() as registry:
            sim = drive_small_network()
        text = profile_report(registry)
        assert f"events          {sim.processed_events}\n" in text
        assert "simulator runs  1\n" in text
        assert "events/sec" in text
        assert "sim/wall ratio" in text
        assert "Link" in text

    def test_empty_report_is_safe(self):
        text = profile_report(obs_metrics.MetricsRegistry())
        assert "hot-path profile" in text
        assert "events/sec      0\n" in text
        assert "sim/wall ratio  0.00x" in text
        assert "by component" not in text


class TestCliProfileFlag:
    def test_profile_flag_prints_report(self, capsys):
        assert cli.main(["table3", "--profile"]) == 0
        assert "hot-path profile" in capsys.readouterr().out

    def test_profile_json_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["table3", "--profile-json", "x"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_profiler_uninstalled_after_cli(self):
        cli.main(["table3", "--profile"])
        assert obs_metrics.current() is None

    def test_profiler_uninstalled_when_an_experiment_raises(
            self, monkeypatch):
        def boom(name, **kwargs):
            assert obs_metrics.current() is not None
            raise RuntimeError("experiment failed")

        monkeypatch.setattr(cli, "run_experiment", boom)
        with pytest.raises(RuntimeError, match="experiment failed"):
            cli.main(["table3", "--profile"])
        assert obs_metrics.current() is None

    def test_note_names_what_a_profile_cannot_see(self, capsys):
        note = "in-process simulations only"
        cli.main(["table3", "--profile"])        # Cache reads are on.
        assert note in capsys.readouterr().out
        cli.main(["table3", "--profile", "--workers", "1",
                  "--no-cache"])
        assert note not in capsys.readouterr().out
