"""The fault-injection subsystem: specs, schedules, and degradation.

Three layers under test:

* the spec format (validation, JSON round-trips);
* the netsim-level fault machinery (per-link stochastic impairments,
  link down windows, node freezes) and its determinism contract — the
  same seed produces byte-identical ``ScenarioResult`` JSON across
  runs and the ``REPRO_DEBUG`` gate, while a
  fault-free run stays byte-identical to one with no fault subsystem
  involved at all;
* the Cebinae graceful-degradation semantics: a reconfiguration
  missing deadline ``L`` fails the port open to pass-through FIFO,
  counters surface through ``ScenarioResult.fault_summary``, and the
  agent re-converges once the outage clears.
"""

import dataclasses
import json

import pytest

from repro.analysis import invariants
from repro.analysis.invariants import InvariantViolation
from repro.core.control_plane import ControlPlaneSample
from repro.experiments.parallel import RunSpec
from repro.experiments.runner import (Discipline, ScenarioResult,
                                      run_scenario)
from repro.experiments.scenarios import ScalePolicy, ScenarioSpec
from repro.faults.schedule import (ControlPlaneFaults, FaultSchedule,
                                   LinkFaultState, derive_seed)
from repro.faults.spec import FaultSpec, merge_windows
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.node import Host, Router
from repro.netsim.queues import DropTailQueue
from repro.obs import bus as obs_bus
from repro.obs.sinks import MemorySink
from repro.suite.registry import paper_spec

TINY_POLICY = ScalePolicy(target_rate_bps=5e6, max_rate_bps=5e6)


def tiny_scaled(name="faulty", duration_s=2.0):
    spec = ScenarioSpec(name=name, rate_bps=100e6, rtts_ms=(20, 30),
                        buffer_mtus=60,
                        cca_mix=(("newreno", 1), ("newreno", 1)),
                        duration_s=duration_s)
    return TINY_POLICY.apply(spec)


def result_json(result):
    return json.dumps(result.to_dict(), sort_keys=True)


# -- the spec format ---------------------------------------------------------

class TestFaultSpec:
    def test_defaults_inject_nothing(self):
        spec = FaultSpec()
        assert not spec.enabled
        assert not spec.link_faults_enabled
        assert not spec.control_plane_enabled

    @pytest.mark.parametrize("kwargs", [
        {"loss_rate": -0.1},
        {"loss_rate": 1.5},
        {"corrupt_rate": "0.1"},
        {"loss_rate": 0.6, "corrupt_rate": 0.6},
        {"cp_delay_prob": 0.5},                   # needs cp_delay_max_ns
        {"reorder_rate": 0.1, "reorder_delay_ns": 0},
        {"link_down_windows": ((5, 5),)},
        {"link_down_windows": ((-1, 5),)},
        {"node_freeze_windows": (("", 1, 2),)},
        {"flap_count": -1},
        {"start_ns": -1},
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises((InvariantViolation, ValueError)):
            FaultSpec(**kwargs)

    def test_active_window(self):
        spec = FaultSpec(start_ns=10, end_ns=20)
        assert not spec.active_at(9)
        assert spec.active_at(10)
        assert spec.active_at(19)
        assert not spec.active_at(20)
        open_ended = FaultSpec(start_ns=10)
        assert open_ended.active_at(10 ** 15)

    def test_round_trips_through_json(self):
        spec = FaultSpec(seed=9, loss_rate=0.01,
                         link_down_windows=((1, 5), (9, 12)),
                         node_freeze_windows=(("L", 3, 4),),
                         cp_outage_windows=((2, 6),),
                         cp_drop_prob=0.25)
        payload = json.loads(json.dumps(spec.to_dict()))
        assert FaultSpec.from_dict(payload) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown fault-spec"):
            FaultSpec.from_dict({"loss_rte": 0.1})

    def test_merge_windows(self):
        assert merge_windows([(5, 9), (1, 3), (2, 4), (9, 11)]) == \
            ((1, 4), (5, 11))
        assert merge_windows([]) == ()


# -- seeded streams ----------------------------------------------------------

class TestSeededStreams:
    def test_derive_seed_is_stable_across_processes(self):
        # Pinned value: SHA-256 is platform-independent, so a changed
        # constant here means the fault-replay contract broke.
        assert derive_seed(1, "link", "L->R") == \
            derive_seed(1, "link", "L->R")
        assert derive_seed(1, "link", "a") != derive_seed(1, "link", "b")
        assert derive_seed(1, "link", "a") != derive_seed(2, "link", "a")
        assert 0 <= derive_seed(0) < 2 ** 64

    def test_link_state_draw_counts_fates(self):
        spec = FaultSpec(loss_rate=0.3, corrupt_rate=0.3,
                         reorder_rate=0.3, reorder_delay_ns=1000)
        state = LinkFaultState(spec, seed=derive_seed(1, "t"))
        fates = [state.draw(0) for _ in range(500)]
        assert state.lost_packets == fates.count(-1) > 0
        assert state.corrupted_packets == fates.count(-2) > 0
        assert state.reordered_packets == \
            sum(1 for fate in fates if fate > 0) > 0
        assert all(fate <= 1000 for fate in fates)

    def test_link_state_traces_each_fate(self):
        spec = FaultSpec(loss_rate=0.3, corrupt_rate=0.3,
                         reorder_rate=0.3, reorder_delay_ns=1000)
        bus = obs_bus.TraceBus()
        sink = MemorySink()
        bus.subscribe("fault", sink)
        with obs_bus.tracing(bus):
            state = LinkFaultState(spec, seed=1, name="L->R")
            for time_ns in range(500):
                state.draw(time_ns)
        kinds = [record.kind for record in sink.records]
        assert kinds.count("loss") == state.lost_packets > 0
        assert kinds.count("corrupt") == state.corrupted_packets > 0
        assert kinds.count("reorder") == state.reordered_packets > 0
        assert {record.target for record in sink.records} == {"L->R"}

    def test_draws_outside_window_are_free(self):
        spec = FaultSpec(loss_rate=1.0, start_ns=100, end_ns=200)
        state = LinkFaultState(spec, seed=1)
        assert state.draw(50) == 0
        assert state.lost_packets == 0
        assert state.draw(150) == -1

    def test_control_plane_outage_beats_probability(self):
        spec = FaultSpec(cp_outage_windows=((100, 200),))
        faults = ControlPlaneFaults(spec, seed=1)
        assert faults.draw(150) == (True, 0)
        assert faults.draw(250) == (False, 0)
        assert faults.summary()["rounds"] == 2
        assert faults.summary()["deadline_misses"] == 1


# -- netsim integration ------------------------------------------------------

def _two_hosts():
    sim = Simulator()
    a = Host(sim, 0, "a")
    b = Host(sim, 1, "b")
    link = Link(sim, a, b, rate_bps=8e6, delay_ns=1000,
                queue=DropTailQueue(limit_packets=100), name="a->b")
    a.attach_link(link)
    a.routes[1] = link
    return sim, a, b, link

def _packet(flow_src=0, flow_dst=1, size=100):
    from repro.netsim.packet import FlowId, Packet
    return Packet(flow=FlowId(flow_src, flow_dst, 1, 1), size_bytes=size)


class TestLinkFaults:
    def test_down_link_cuts_in_flight_packets(self):
        sim, a, b, link = _two_hosts()
        received = []
        b.set_default_handler(received.append)
        state = LinkFaultState(FaultSpec(), seed=1)
        link.set_fault_state(state)
        a.send(_packet())
        link.set_up(False)
        sim.run()
        assert received == []
        assert state.down_drops == 1

    def test_restore_drains_the_backlog(self):
        sim, a, b, link = _two_hosts()
        received = []
        b.set_default_handler(received.append)
        link.set_up(False)
        for _ in range(3):
            a.send(_packet())
        sim.run()
        assert received == []           # Buffered, not delivered.
        link.set_up(True)
        sim.run()
        assert len(received) == 3       # The restoration burst.

    def test_total_loss_blackholes_the_window(self):
        sim, a, b, link = _two_hosts()
        received = []
        b.set_default_handler(received.append)
        state = LinkFaultState(FaultSpec(loss_rate=1.0), seed=1)
        link.set_fault_state(state)
        a.send(_packet())
        sim.run()
        assert received == []
        assert state.lost_packets == 1
        link.set_fault_state(None)      # Clearing restores delivery.
        a.send(_packet())
        sim.run()
        assert len(received) == 1

    def test_frozen_node_drops_and_restarts(self):
        sim, a, b, link = _two_hosts()
        received = []
        b.set_default_handler(received.append)
        b.set_frozen(True)
        a.send(_packet())
        sim.run()
        assert received == []
        assert b.frozen_drops == 1
        b.set_frozen(False)
        a.send(_packet())
        sim.run()
        assert len(received) == 1

    def test_frozen_host_refuses_to_send(self):
        sim, a, b, link = _two_hosts()
        a.set_frozen(True)
        assert a.send(_packet()) is False
        assert a.frozen_drops == 1

    def test_schedule_installs_by_pattern(self):
        sim, a, b, link = _two_hosts()
        schedule = FaultSchedule(
            FaultSpec(loss_rate=0.5, link_pattern="a->*",
                      link_down_windows=((1000, 2000),),
                      node_freeze_windows=(("b", 500, 700),)),
            sim)
        schedule.install([link], [a, b], duration_ns=10_000)
        assert link.fault_state is not None
        sim.run()
        kinds = [event.kind for event in schedule.timeline]
        assert kinds == ["node_freeze", "node_restart", "link_down",
                         "link_up"]
        summary = schedule.summary()
        assert summary["links"]["a->b"]["down_windows"] == [[1000, 2000]]
        assert "b" in summary["nodes"]
        assert json.loads(json.dumps(summary)) == summary

    def test_mismatched_pattern_leaves_link_clean(self):
        sim, a, b, link = _two_hosts()
        schedule = FaultSchedule(
            FaultSpec(loss_rate=0.5, link_pattern="nope-*"), sim)
        schedule.install([link], [a, b], duration_ns=10_000)
        assert link.fault_state is None
        assert schedule.summary()["links"] == {}


# -- scenario-level determinism ---------------------------------------------

DEMO_FAULTS = FaultSpec(seed=7, loss_rate=0.001, link_pattern="L->R",
                        cp_outage_windows=((600_000_000,
                                            1_200_000_000),))


class TestScenarioDeterminism:
    def test_fault_free_run_is_byte_identical_to_no_fault_subsystem(self):
        plain = run_scenario(tiny_scaled(), Discipline.CEBINAE,
                             collect_series=True, record_history=True)
        disabled = run_scenario(tiny_scaled(), Discipline.CEBINAE,
                                collect_series=True, record_history=True,
                                faults=FaultSpec(seed=99))
        assert result_json(plain) == result_json(disabled)
        assert "fault_summary" not in plain.to_dict()
        assert "degraded" not in plain.to_dict()["cp_history"][0]

    def test_same_fault_seed_reproduces_byte_identically(self):
        first = run_scenario(tiny_scaled(), Discipline.CEBINAE,
                             faults=DEMO_FAULTS, collect_series=True,
                             record_history=True)
        second = run_scenario(tiny_scaled(), Discipline.CEBINAE,
                              faults=DEMO_FAULTS, collect_series=True,
                              record_history=True)
        assert result_json(first) == result_json(second)

    def test_fault_seed_changes_the_run(self):
        first = run_scenario(tiny_scaled(), Discipline.CEBINAE,
                             faults=DEMO_FAULTS)
        reseeded = run_scenario(
            tiny_scaled(), Discipline.CEBINAE,
            faults=dataclasses.replace(DEMO_FAULTS, seed=8))
        assert result_json(first) != result_json(reseeded)

    def test_faulted_run_matches_across_debug(self, monkeypatch):
        monkeypatch.setattr(invariants, "DEBUG", True)
        reference = run_scenario(tiny_scaled(), Discipline.CEBINAE,
                                 faults=DEMO_FAULTS, collect_series=True,
                                 record_history=True)
        monkeypatch.setattr(invariants, "DEBUG", False)
        fast_path = run_scenario(tiny_scaled(), Discipline.CEBINAE,
                                 faults=DEMO_FAULTS, collect_series=True,
                                 record_history=True)
        assert result_json(fast_path) == result_json(reference)

    def test_fault_summary_round_trips_through_json(self):
        result = run_scenario(tiny_scaled(), Discipline.CEBINAE,
                              faults=DEMO_FAULTS, record_history=True)
        rebuilt = ScenarioResult.from_dict(
            json.loads(result_json(result)))
        assert result_json(rebuilt) == result_json(result)
        assert rebuilt.fault_summary == result.fault_summary

    def test_fault_timeline_bytes_are_pinned(self):
        # faults_i1's base point with a link-down window, two seeded
        # flaps and a node freeze, so the timeline has every kind; the
        # literal pins the bytes of fault_summary's timeline.
        point = paper_spec("faults_i1").base_point(2.0, Discipline.CEBINAE)
        faults = dataclasses.replace(
            point.faults, start_ns=0, end_ns=2_000_000_000,
            link_down_windows=((500_000_000, 700_000_000),),
            flap_count=2,
            node_freeze_windows=(("R", 1_000_000_000, 1_200_000_000),))
        result = run_scenario(point.scaled, point.discipline,
                              seed=point.seed, faults=faults)
        assert json.dumps(result.fault_summary["timeline"],
                          sort_keys=True) == (
            '[{"kind": "link_down", "target": "L->R", '
            '"time_ns": 500000000}, '
            '{"kind": "link_up", "target": "L->R", '
            '"time_ns": 700000000}, '
            '{"kind": "link_down", "target": "L->R", '
            '"time_ns": 880674225}, '
            '{"kind": "link_up", "target": "L->R", '
            '"time_ns": 930674225}, '
            '{"kind": "node_freeze", "target": "R", '
            '"time_ns": 1000000000}, '
            '{"kind": "node_restart", "target": "R", '
            '"time_ns": 1200000000}]')


# -- graceful degradation ----------------------------------------------------

class TestGracefulDegradation:
    def test_outage_triggers_fail_open_and_recovery(self):
        result = run_scenario(tiny_scaled(), Discipline.CEBINAE,
                              faults=DEMO_FAULTS, record_history=True)
        cp = result.fault_summary["control_plane"]
        assert cp["deadline_misses"] > 0
        assert cp["failopen_rounds"] == cp["deadline_misses"]
        assert cp["dropped_reconfigs"] == cp["deadline_misses"]
        assert cp["failopen_enqueues"] > 0
        assert cp["rounds"] > cp["deadline_misses"]  # It recovered.
        assert any(sample.degraded for sample in result.cp_history)
        # Degradation is transient: the last recompute is clean again.
        assert not result.cp_history[-1].degraded

    def test_no_fail_open_applies_stale_config_late(self):
        delayed = dataclasses.replace(
            DEMO_FAULTS, cp_outage_windows=(), cp_fail_open=False,
            cp_delay_prob=1.0, cp_delay_max_ns=1_000_000)
        result = run_scenario(tiny_scaled(), Discipline.CEBINAE,
                              faults=delayed, record_history=True)
        cp = result.fault_summary["control_plane"]
        assert cp["deadline_misses"] > 0
        assert cp["failopen_rounds"] == 0
        assert cp["dropped_reconfigs"] == 0
        # Late applies still keep the control loop recomputing.
        assert result.cp_history

    def test_dropped_reconfig_without_fail_open_is_skipped(self):
        lost = dataclasses.replace(DEMO_FAULTS, cp_fail_open=False)
        result = run_scenario(tiny_scaled(), Discipline.CEBINAE,
                              faults=lost, record_history=True)
        cp = result.fault_summary["control_plane"]
        assert cp["dropped_reconfigs"] > 0
        assert cp["failopen_rounds"] == 0

    def test_degraded_sample_survives_json(self):
        sample = ControlPlaneSample(time_ns=1, utilization=0.5,
                                    saturated=True, degraded=True)
        assert sample.to_dict()["degraded"] is True
        assert ControlPlaneSample.from_dict(sample.to_dict()) == sample
        clean = ControlPlaneSample(time_ns=1, utilization=0.5,
                                   saturated=True)
        assert "degraded" not in clean.to_dict()
        assert ControlPlaneSample.from_dict(clean.to_dict()) == clean


# -- cache keys --------------------------------------------------------------

class TestFaultFingerprints:
    def test_fault_spec_changes_the_fingerprint(self):
        base = RunSpec(tiny_scaled(), Discipline.CEBINAE)
        faulted = RunSpec(tiny_scaled(), Discipline.CEBINAE,
                          faults=DEMO_FAULTS)
        reseeded = RunSpec(
            tiny_scaled(), Discipline.CEBINAE,
            faults=dataclasses.replace(DEMO_FAULTS, seed=8))
        assert base.fingerprint() != faulted.fingerprint()
        assert faulted.fingerprint() != reseeded.fingerprint()

    def test_watchdog_knobs_do_not_change_the_fingerprint(self):
        base = RunSpec(tiny_scaled(), Discipline.CEBINAE)
        guarded = RunSpec(tiny_scaled(), Discipline.CEBINAE,
                          wall_limit_s=10.0, max_events=10 ** 9)
        assert base.fingerprint() == guarded.fingerprint()

    def test_faulted_label_is_distinct(self):
        base = RunSpec(tiny_scaled(), Discipline.CEBINAE)
        faulted = RunSpec(tiny_scaled(), Discipline.CEBINAE,
                          faults=DEMO_FAULTS)
        reseeded = RunSpec(
            tiny_scaled(), Discipline.CEBINAE,
            faults=dataclasses.replace(DEMO_FAULTS, seed=8))
        assert base.label != faulted.label
        assert faulted.label != reseeded.label
