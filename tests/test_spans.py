"""Lifecycle spans: deterministic ids, zero-cost-off, tree validity."""

import json

import pytest

from repro.experiments.runner import Discipline, run_scenario
from repro.experiments.scenarios import (DEFAULT_POLICY, ParkingLotSpec,
                                         ScalePolicy, ScenarioSpec)
from repro.netsim.engine import SECOND, Simulator
from repro.obs import bus as obs_bus
from repro.obs import spans
from repro.obs.events import canonical_dict, validate_record
from repro.obs.sinks import MemorySink, encode_record


@pytest.fixture(autouse=True)
def clean_stack():
    spans._STACK.clear()
    yield
    spans._STACK.clear()


def span_bus():
    bus = obs_bus.TraceBus()
    sink = MemorySink()
    bus.subscribe("span", sink)
    return bus, sink


def tiny_scaled(duration_s=2.0):
    spec = ScenarioSpec(name="spans", rate_bps=100e6, rtts_ms=(20, 30),
                        buffer_mtus=60,
                        cca_mix=(("newreno", 1), ("newreno", 1)),
                        duration_s=duration_s)
    return ScalePolicy(target_rate_bps=5e6, max_rate_bps=5e6).apply(spec)


class TestSpanIds:
    def test_derive_is_deterministic(self):
        one = spans.derive_span_id("", "run", "figure9", 0)
        two = spans.derive_span_id("", "run", "figure9", 0)
        assert one == two
        assert len(one) == spans.SPAN_ID_HEX

    def test_derive_depends_on_position(self):
        base = spans.derive_span_id("p", "phase", "warmup", 0)
        assert spans.derive_span_id("p", "phase", "warmup", 1) != base
        assert spans.derive_span_id("q", "phase", "warmup", 0) != base
        assert spans.derive_span_id("p", "task", "warmup", 0) != base
        assert spans.derive_span_id("p", "phase", "drain", 0) != base


class TestZeroCostOff:
    def test_open_span_returns_none_without_bus(self):
        assert spans.open_span("run", "x") is None

    def test_context_manager_yields_none_without_bus(self):
        with spans.span("run", "x") as handle:
            assert handle is None
        assert spans._STACK == []

    def test_bus_without_span_subscriber_stays_off(self):
        bus = obs_bus.TraceBus()
        bus.subscribe("control", MemorySink())
        with obs_bus.tracing(bus):
            assert spans.open_span("run", "x") is None


class TestOpenClose:
    def test_parent_child_linkage_and_tree(self):
        bus, sink = span_bus()
        with obs_bus.tracing(bus):
            outer = spans.open_span("sweep", "demo", sim_clock=False)
            inner = spans.open_span("task", "t0", sim_clock=False)
            inner.count = 1
            spans.close_span(inner)
            spans.close_span(outer)
        records = [json.loads(encode_record(r)) for r in sink.records]
        assert [r["kind"] for r in records] == ["task", "sweep"]
        for record in records:
            validate_record(record)
        tree = spans.span_tree(records)
        assert tree["roots"] == [outer.span_id]
        root = tree["nodes"][outer.span_id]
        assert root["children"] == [inner.span_id]
        assert tree["nodes"][inner.span_id]["count"] == 1

    def test_ids_stable_across_reruns(self):
        streams = []
        for _ in range(2):
            bus, sink = span_bus()
            with obs_bus.tracing(bus):
                with spans.span("run", "r", sim_clock=False):
                    with spans.span("phase", "warmup",
                                    sim_clock=False):
                        pass
                    with spans.span("phase", "drain", sim_clock=False):
                        pass
            streams.append([json.dumps(canonical_dict(
                json.loads(encode_record(r))), sort_keys=True)
                for r in sink.records])
        assert streams[0] == streams[1]

    def test_close_is_idempotent(self):
        bus, sink = span_bus()
        with obs_bus.tracing(bus):
            handle = spans.open_span("run", "r", sim_clock=False)
            spans.close_span(handle)
            spans.close_span(handle)
        assert len(sink.records) == 1

    def test_closing_parent_pops_abandoned_children(self):
        bus, sink = span_bus()
        with obs_bus.tracing(bus):
            outer = spans.open_span("sweep", "demo", sim_clock=False)
            spans.open_span("task", "orphan", sim_clock=False)
            spans.close_span(outer)
        assert spans._STACK == []
        assert [r.kind for r in sink.records] == ["sweep"]

    def test_context_manager_marks_errors(self):
        bus, sink = span_bus()
        with obs_bus.tracing(bus):
            with pytest.raises(RuntimeError):
                with spans.span("run", "boom", sim_clock=False):
                    raise RuntimeError("boom")
        assert sink.records[-1].status == "error"
        assert spans._STACK == []

    def test_emit_leaf_claims_child_index(self):
        bus, sink = span_bus()
        with obs_bus.tracing(bus):
            outer = spans.open_span("run", "r", sim_clock=False)
            emit = obs_bus.emitter_for("span")
            spans.emit_leaf(emit, "round", "control-round", 10, 0.5,
                            count=1)
            spans.emit_leaf(emit, "round", "control-round", 20, 0.5,
                            count=2)
            spans.close_span(outer)
        leaves = [r for r in sink.records if r.kind == "round"]
        assert len(leaves) == 2
        assert leaves[0].span_id != leaves[1].span_id
        assert all(leaf.parent_id == outer.span_id for leaf in leaves)


class TestSpanTree:
    def test_duplicate_id_rejected(self):
        record = {"type": "SpanEvent", "span_id": "a",
                  "parent_id": ""}
        with pytest.raises(ValueError, match="duplicate"):
            spans.span_tree([record, dict(record)])

    def test_unknown_parent_rejected(self):
        with pytest.raises(ValueError, match="unknown parent"):
            spans.span_tree([{"type": "SpanEvent", "span_id": "a",
                              "parent_id": "ghost"}])

    def test_non_span_records_ignored(self):
        tree = spans.span_tree([{"type": "PacketTx"}])
        assert tree == {"nodes": {}, "roots": []}


class TestProducers:
    def test_engine_emits_events_span(self):
        bus, sink = span_bus()
        with obs_bus.tracing(bus):
            sim = Simulator()
            sim.schedule(SECOND, lambda: None)
            sim.run()
        engine = [r for r in sink.records if r.kind == "engine"]
        assert len(engine) == 1
        assert engine[0].name == "events"
        assert engine[0].count >= 1
        assert engine[0].status == "ok"

    def test_scenario_emits_run_root_with_phases(self):
        bus, sink = span_bus()
        with obs_bus.tracing(bus):
            run_scenario(tiny_scaled(), Discipline.CEBINAE)
        records = [json.loads(encode_record(r)) for r in sink.records]
        tree = spans.span_tree(records)
        roots = [tree["nodes"][i] for i in tree["roots"]]
        runs = [n for n in roots if n["kind"] == "run"]
        assert len(runs) == 1
        phases = [tree["nodes"][c] for c in runs[0]["children"]
                  if tree["nodes"][c]["kind"] == "phase"]
        assert phases
        assert {n["name"] for n in phases} <= set(spans.RUN_PHASES)
        assert runs[0]["count"] > 0

    def test_parking_lot_run_nests_the_engine_under_run_and_drain(self):
        lot = ParkingLotSpec(
            name="lot", rate_bps=5e6, buffer_mtus=40, num_long=1,
            long_cca="newreno", cross_mix=(("vegas", 1), ("cubic", 1)),
            duration_s=1.0)
        bus, sink = span_bus()
        with obs_bus.tracing(bus):
            run_scenario(lot.scaled(DEFAULT_POLICY), Discipline.CEBINAE)
        tree = spans.span_tree(
            [json.loads(encode_record(r)) for r in sink.records])
        nodes = tree["nodes"]
        run, = [nodes[i] for i in tree["roots"]]
        assert (run["kind"], run["name"]) == ("run", "lot")
        drain, = [nodes[c] for c in run["children"]
                  if nodes[c]["kind"] == "phase"]
        assert drain["name"] == "drain"
        engine, = [nodes[c] for c in drain["children"]
                   if nodes[c]["kind"] == "engine"]
        assert engine["count"] == run["count"] > 0

    def test_scenario_span_stream_deterministic(self):
        streams = []
        for _ in range(2):
            bus, sink = span_bus()
            with obs_bus.tracing(bus):
                run_scenario(tiny_scaled(), Discipline.CEBINAE)
            streams.append([json.dumps(canonical_dict(
                json.loads(encode_record(r))), sort_keys=True)
                for r in sink.records])
        assert streams[0] == streams[1]
