"""The repro.obs contract: tracing observes, never perturbs.

Covers the trace bus lifecycle, record schema validation, the metrics
registry round-trip, sink output, the off-path byte-identity guarantee
for ``ScenarioResult`` JSON, trace determinism across runs, the
control-plane timeline's every-round coverage, and the PR 5 satellite
fixes (TimeSeries edge bins, HashPipe trace hooks).
"""

import json

import pytest

from repro.core.control_plane import CebinaeParams
from repro.experiments import cli
from repro.experiments.report import control_timeline_report
from repro.experiments.runner import Discipline, run_scenario
from repro.experiments.scenarios import ScalePolicy, ScenarioSpec
from repro.heavyhitter.hashpipe import CebinaeFlowCache, ExactFlowCache
from repro.netsim.engine import SECOND, Simulator
from repro.netsim.tracing import FlowMonitor, TimeSeries
from repro.netsim.packet import FlowId
from repro.obs import bus as obs_bus
from repro.obs import cli as obs_cli
from repro.obs import metrics as obs_metrics
from repro.obs.events import (TOPICS, ControlRound, PacketTx, QueueDrop,
                              SchemaError, TcpStateEvent, canonical_dict,
                              sorted_flow_strings, validate_record)
from repro.obs.sinks import JsonlTraceSink, MemorySink, encode_record
from repro.suite.registry import paper_spec

TINY_POLICY = ScalePolicy(target_rate_bps=5e6, max_rate_bps=5e6)


def tiny_scaled(name="obs", duration_s=1.5):
    spec = ScenarioSpec(name=name, rate_bps=100e6, rtts_ms=(20, 30),
                        buffer_mtus=60,
                        cca_mix=(("newreno", 1), ("newreno", 1)),
                        duration_s=duration_s)
    return TINY_POLICY.apply(spec)


def result_json(result):
    return json.dumps(result.to_dict(), sort_keys=True,
                      separators=(",", ":"))


@pytest.fixture(autouse=True)
def _no_leaked_instrumentation():
    """Every test starts and ends with tracing and metrics off."""
    obs_bus.uninstall()
    obs_metrics.disable()
    yield
    obs_bus.uninstall()
    obs_metrics.disable()


class TestBusLifecycle:
    def test_no_bus_means_no_emitter(self):
        assert obs_bus.current() is None
        assert obs_bus.emitter_for("packet") is None

    def test_unsubscribed_topic_has_no_emitter(self):
        bus = obs_bus.TraceBus()
        bus.subscribe("packet", MemorySink())
        with obs_bus.tracing(bus):
            assert obs_bus.emitter_for("packet") is not None
            assert obs_bus.emitter_for("tcp") is None
        assert obs_bus.current() is None

    def test_emitter_counts_and_fans_out(self):
        bus = obs_bus.TraceBus()
        first, second = MemorySink(), MemorySink()
        bus.subscribe("queue", first)
        bus.subscribe(("queue", "lbf"), second)
        emit = bus.emitter("queue")
        record = QueueDrop(time_ns=5, port="p0", reason="tail",
                           flow="f", size_bytes=1500)
        emit(record)
        assert first.records == [record]
        assert second.records == [record]
        assert bus.counts == {"queue": 1}

    def test_unknown_topic_rejected(self):
        bus = obs_bus.TraceBus()
        with pytest.raises(ValueError, match="unknown trace topic"):
            bus.subscribe("packets", MemorySink())
        with pytest.raises(ValueError, match="unknown trace topic"):
            bus.emitter("nope")

    def test_clock_binding(self):
        bus = obs_bus.TraceBus()
        assert bus.now_ns() == 0
        sim = Simulator()
        sim.schedule(7, lambda: None)
        sim.run()
        bus.set_clock(sim)
        assert bus.now_ns() == sim.now_ns

    def test_close_closes_each_sink_once(self):
        bus = obs_bus.TraceBus()
        sink = MemorySink()
        bus.subscribe(("packet", "queue"), sink)
        bus.close()
        assert sink.closed


class TestRecords:
    def test_records_are_frozen(self):
        record = PacketTx(time_ns=1, port="p", flow="f")
        with pytest.raises(Exception):
            record.time_ns = 2

    def test_to_dict_tags_and_lists(self):
        record = ControlRound(time_ns=3, port="p", round_index=1,
                              top_flows=("a", "b"))
        data = record.to_dict()
        assert data["topic"] == "control"
        assert data["type"] == "ControlRound"
        assert data["top_flows"] == ["a", "b"]

    def test_sorted_flow_strings(self):
        flows = [FlowId(src=2, dst=1, src_port=9, dst_port=80,
                        protocol="tcp"),
                 FlowId(src=1, dst=2, src_port=8, dst_port=80,
                        protocol="tcp")]
        rendered = sorted_flow_strings(flows)
        assert rendered == tuple(sorted(str(f) for f in flows))

    def test_validate_record_round_trip(self):
        for record in (PacketTx(time_ns=0, port="p", flow="f"),
                       QueueDrop(time_ns=1, port="p", flow="f"),
                       ControlRound(time_ns=2, port="p"),
                       TcpStateEvent(time_ns=3, flow="f")):
            data = json.loads(encode_record(record))
            assert validate_record(data) is type(record)

    def test_validate_record_errors(self):
        good = json.loads(encode_record(PacketTx(time_ns=0, port="p")))
        with pytest.raises(SchemaError, match="unknown record type"):
            validate_record({**good, "type": "Bogus"})
        with pytest.raises(SchemaError, match="topic"):
            validate_record({**good, "topic": "queue"})
        missing = dict(good)
        del missing["seq"]
        with pytest.raises(SchemaError, match="missing field"):
            validate_record(missing)
        with pytest.raises(SchemaError, match="is not"):
            validate_record({**good, "size_bytes": "big"})
        with pytest.raises(SchemaError, match="bool is not int"):
            validate_record({**good, "seq": True})
        with pytest.raises(SchemaError, match="unexpected fields"):
            validate_record({**good, "extra": 1})


class TestMetricsRegistry:
    def test_counter_and_gauge(self):
        registry = obs_metrics.MetricsRegistry()
        registry.counter("drops", port="p0").inc(3)
        registry.counter("drops", port="p0").inc()
        registry.gauge("util").set(0.5)
        registry.gauge("util").set(0.25)
        assert registry.counter("drops", port="p0").value == 4
        assert registry.counter("drops", port="p1").value == 0
        assert registry.gauge("util").value == 0.25
        assert set(registry.snapshot()) == {"schema_version",
                                            "counters", "gauges"}

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            obs_metrics.Counter().inc(-1)

    def test_snapshot_round_trip(self, tmp_path):
        registry = obs_metrics.MetricsRegistry()
        registry.counter("runs").inc(2)
        registry.gauge("jfi", scenario="s").set(0.9)
        snapshot = registry.snapshot()
        assert snapshot["schema_version"] == \
            obs_metrics.METRICS_SCHEMA_VERSION
        assert obs_metrics.load_snapshot(snapshot).snapshot() == snapshot
        path = tmp_path / "metrics.json"
        registry.write_json(str(path))
        assert json.loads(path.read_text()) == snapshot

    def test_load_snapshot_rejects_bad_version(self):
        with pytest.raises(ValueError, match="schema_version"):
            obs_metrics.load_snapshot({"schema_version": 99})

    def test_engine_records_run(self):
        registry = obs_metrics.enable()
        try:
            sim = Simulator()
            sim.schedule(10, lambda: None)
            sim.run()
        finally:
            obs_metrics.disable()
        assert registry.counter("sim_runs_total").value == 1
        assert registry.counter("sim_events_total").value >= 1


class TestScenarioByteIdentity:
    def test_tracing_off_vs_on_result_identical(self):
        scaled = tiny_scaled()
        plain = result_json(run_scenario(scaled, Discipline.CEBINAE,
                                         collect_series=True))
        bus = obs_bus.TraceBus()
        sink = MemorySink()
        bus.subscribe(TOPICS, sink)
        with obs_bus.tracing(bus):
            traced = result_json(run_scenario(scaled, Discipline.CEBINAE,
                                              collect_series=True))
        assert traced == plain
        assert sink.records, "tracing on but nothing emitted"

    def test_trace_stream_deterministic(self):
        scaled = tiny_scaled()
        streams = []
        for _ in range(2):
            bus = obs_bus.TraceBus()
            sink = MemorySink()
            bus.subscribe(TOPICS, sink)
            with obs_bus.tracing(bus):
                run_scenario(scaled, Discipline.CEBINAE)
            streams.append([encode_record(r) for r in sink.records])
        # Spans carry the schema's one sanctioned wall-clock field
        # (wall_s); canonical_dict strips it for byte comparison.
        def canon(lines):
            return [json.dumps(canonical_dict(json.loads(line)),
                               sort_keys=True, separators=(",", ":"))
                    for line in lines]
        assert canon(streams[0]) == canon(streams[1])
        for line in streams[0]:
            validate_record(json.loads(line))

    def test_metrics_do_not_perturb_result(self):
        scaled = tiny_scaled()
        plain = result_json(run_scenario(scaled, Discipline.CEBINAE))
        with obs_metrics.collected() as registry:
            result = run_scenario(scaled, Discipline.CEBINAE)
        assert result_json(result) == plain
        assert registry.counter("sim_events_total").value == \
            result.events
        assert sum(registry.component_events.values()) == result.events
        # The run's results stay in its ScenarioResult: the registry
        # holds only the engine's counters.
        snapshot = registry.snapshot()
        assert snapshot["gauges"] == []
        assert {row["name"] for row in snapshot["counters"]} == {
            "sim_runs_total", "sim_events_total",
            "sim_time_seconds_total", "sim_component_events_total"}


class TestTraceCli:
    """``cebinae-repro trace``: deterministic artifacts, metrics on request."""

    def trace(self, out, *extra):
        assert cli.main(["trace", "figure1", "--duration", "1",
                         "--out", str(out), *extra]) == 0
        return out

    def test_artifacts_byte_identical_across_reruns(self, tmp_path):
        first = self.trace(tmp_path / "a", "--metrics-json")
        second = self.trace(tmp_path / "b", "--metrics-json")
        # Each record is written once: no second rendering of the
        # packet or control lines beside trace.jsonl.
        assert sorted(path.name for path in first.iterdir()) == [
            "metrics.json", "result.json", "spans.jsonl", "trace.jsonl"]
        for name in ("metrics.json", "result.json", "trace.jsonl"):
            assert (first / name).read_bytes() == \
                (second / name).read_bytes(), name
        assert "histograms" not in json.loads(
            (first / "metrics.json").read_text())

        def spans(directory):
            lines = (directory / "spans.jsonl").read_text().splitlines()
            return [canonical_dict(json.loads(line)) for line in lines]
        assert spans(first) == spans(second) != []
        counters = json.loads(
            (first / "metrics.json").read_text())["counters"]
        per_component = [row["value"] for row in counters if
                         row["name"] == "sim_component_events_total"]
        events = json.loads((first / "result.json").read_text())["events"]
        assert per_component and sum(per_component) == events

    @pytest.mark.parametrize("duration", ["0", "-1", "nan", "inf"])
    def test_bad_duration_is_a_usage_error(self, tmp_path, capsys,
                                           duration):
        out = tmp_path / "t"
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["trace", "figure1", "--duration", duration,
                      "--out", str(out)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --duration" in err
        assert "Traceback" not in err and not out.exists()

    def test_the_document_faults_and_seed_reach_the_run(self, tmp_path,
                                                         monkeypatch):
        seen = []
        run = obs_cli.run_scenario

        def spy(*args, **kwargs):
            seen.append(kwargs)
            return run(*args, **kwargs)
        monkeypatch.setattr(obs_cli, "run_scenario", spy)
        for extra in ([], ["--seed", "5"]):
            assert cli.main(["trace", "faults_i1", "--duration", "0.5",
                             "--events", "fault", "--out",
                             str(tmp_path / "t"), *extra]) == 0
        faults = paper_spec("faults_i1").faults
        assert faults.enabled
        assert [(kwargs["faults"], kwargs["seed"]) for kwargs in seen] \
            == [(faults, 0), (faults, 5)]

    def test_no_registry_unless_metrics_json(self, tmp_path,
                                             monkeypatch):
        installed = []
        run = obs_cli.run_scenario

        def spy(*args, **kwargs):
            installed.append(obs_metrics.current())
            return run(*args, **kwargs)
        monkeypatch.setattr(obs_cli, "run_scenario", spy)
        out = self.trace(tmp_path / "plain")
        assert installed == [None]
        assert not (out / "metrics.json").exists()
        assert (out / "trace.jsonl").exists()
        self.trace(tmp_path / "metered", "--metrics-json")
        assert installed[1] is not None
        assert obs_metrics.current() is None


class TestControlTimeline:
    def run_traced(self, duration_s=1.5):
        scaled = tiny_scaled(duration_s=duration_s)
        bus = obs_bus.TraceBus()
        timeline = MemorySink()
        bus.subscribe("control", timeline)
        with obs_bus.tracing(bus):
            result = run_scenario(scaled, Discipline.CEBINAE,
                                  collect_series=True)
        return scaled, result, timeline.records

    def test_every_round_recorded(self):
        scaled, result, rounds = self.run_traced()
        assert rounds, "no control rounds traced"
        # One record per dT rotation, contiguously indexed from 1; the
        # final rotation may land exactly at the horizon, so allow the
        # count to be one short of duration/dT.
        expected = int(scaled.spec.duration_s * SECOND
                       / scaled.cebinae.dt_ns)
        assert len(rounds) in (expected - 1, expected)
        assert [r.round_index for r in rounds] == \
            list(range(1, len(rounds) + 1))
        assert all(isinstance(r, ControlRound) for r in rounds)
        assert all(r.kind in ("config", "fail_open", "missed")
                   for r in rounds)

    def test_report_renders_next_to_jfi(self):
        _, result, rounds = self.run_traced()
        text = control_timeline_report(rounds,
                                       jfi_series=result.jfi_series())
        assert "Control-plane timeline" in text
        assert "JFI" in text
        assert len(text.splitlines()) == len(rounds) + 3
        for record in rounds:
            assert validate_record(json.loads(
                encode_record(record))) is ControlRound


class TestSinks:
    def test_jsonl_sink_writes_and_refuses_after_close(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(str(path))
        sink.accept(PacketTx(time_ns=1, port="p", flow="f"))
        sink.close()
        sink.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            sink.accept(PacketTx(time_ns=2, port="p", flow="f"))
        [line] = path.read_text().splitlines()
        assert validate_record(json.loads(line)) is PacketTx


class TestHashPipeTraceHook:
    def test_cebinae_cache_reports_outcomes(self):
        cache = CebinaeFlowCache(stages=1, slots_per_stage=1)
        seen = []
        cache.trace = lambda *args: seen.append(args)
        cache.update("a", 100)
        cache.update("a", 50)
        cache.update("b", 10)  # collides or inserts; never silent
        kinds = [entry[0] for entry in seen]
        assert kinds[0] == "insert"
        assert kinds[1] == "hit"
        assert kinds[2] in ("insert", "hit", "uncounted")
        assert len(seen) == 3

    def test_exact_cache_reports_outcomes(self):
        cache = ExactFlowCache()
        seen = []
        cache.trace = lambda *args: seen.append(args)
        assert cache.update("a", 100)
        assert cache.update("a", 50)
        assert [entry[0] for entry in seen] == ["insert", "hit"]
        # And the traceless fast path still counts.
        plain = ExactFlowCache()
        assert plain.update("a", 1)


class TestTimeSeriesEdgeBins:
    def test_dense_zero_and_negative_until(self):
        series = TimeSeries(bin_width_ns=10)
        series.add(5, 1.0)
        assert series.dense(0) == []
        assert series.dense(-10) == []

    def test_bin_boundary_timestamps(self):
        series = TimeSeries(bin_width_ns=10)
        series.add(9, 1.0)   # last tick of bin 0
        series.add(10, 2.0)  # first tick of bin 1
        assert series.bin_value(0) == 1.0
        assert series.bin_value(1) == 2.0
        # until_ns on a boundary excludes the bin that starts there...
        assert series.dense(10) == [1.0]
        # ...and one tick past it includes it.
        assert series.dense(11) == [1.0, 2.0]

    def test_bin_value_of_empty_bin(self):
        series = TimeSeries(bin_width_ns=10)
        assert series.bin_value(3) == 0.0
        assert series.total == 0.0


class TestLbfSnapshot:
    def test_snapshot_is_json_ready_and_deterministic(self):
        from repro.core.lbf import FlowGroup, LeakyBucketFilter
        lbf = LeakyBucketFilter(CebinaeParams(), capacity_bps=8e6)
        lbf.bytes[FlowGroup.TOP] = 42.0
        state = lbf.snapshot()
        assert state["headq"] == 0
        assert state["rotations"] == 0
        assert state["bytes"] == {"top": 42.0, "bottom": 0.0}
        assert len(state["rates_bytes_per_sec"]) == 2
        assert state["rates_bytes_per_sec"][0]["top"] == 1e6
        # JSON-ready and byte-stable under canonical encoding.
        assert json.dumps(state, sort_keys=True) == \
            json.dumps(lbf.snapshot(), sort_keys=True)


class TestFlowMonitorUnregistered:
    def test_unregistered_flow_yields_empty_series(self):
        monitor = FlowMonitor(Simulator())
        ghost = FlowId(src=1, dst=2, src_port=1, dst_port=2,
                       protocol="tcp")
        assert monitor.goodput_series_bps(ghost, 5 * SECOND) == []
        assert monitor.goodputs_bps(SECOND) == {}

