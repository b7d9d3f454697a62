"""Scenario execution: build the topology, run, collect metrics.

The runner executes a :class:`~repro.experiments.scenarios.ScaledScenario`
(a dumbbell or a parking lot) under one of the disciplines the paper
compares — FIFO drop-tail, FQ (FQ-CoDel with per-flow queues), Cebinae,
and section 5.5's AFQ — and returns the metrics the paper reports:
per-flow goodput, bottleneck throughput, and Jain's fairness index,
with optional per-second series.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.control_plane import CebinaeControlPlane, cebinae_factory
from ..fairness.metrics import jain_fairness_index, jfi_time_series
from ..faults.schedule import ControlPlaneFaults, FaultSchedule
from ..faults.spec import FaultSpec
from ..faults.watchdog import RunAborted, WallClockWatchdog
from ..netsim.afq import afq_factory
from ..netsim.engine import (SECOND, SimulationError, Simulator,
                             seconds)
from ..netsim.fluid import (REASON_FAULTS, REASON_SHORT_RUN,
                            REASON_UNSTABLE, FluidPhaseReport,
                            HybridPolicy, advance_fluid,
                            equilibrium_schedule, measured_rates_bps,
                            pool_rates, rate_divergence, rate_pool_key,
                            wire_overhead_ratio)
from ..netsim.fq_codel import fq_codel_factory
from ..netsim.link import Link
from ..netsim.node import Host
from ..netsim.packet import FlowId, MTU_BYTES
from ..netsim.queues import DropTailQueue
from ..netsim.topology import (Network, QueueFactory, build_dumbbell,
                               build_parking_lot)
from ..netsim.tracing import FlowMonitor
from ..obs import bus as obs_bus
from ..obs import spans as obs_spans
from ..tcp.flows import TcpFlow, connect_flow
from .scenarios import (FlowPlan, ParkingLotSpec, ScaledScenario,
                        TopologySpec)


class Discipline(enum.Enum):
    """The queueing disciplines of the paper's comparisons."""

    FIFO = "fifo"
    FQ = "fq"
    CEBINAE = "cebinae"
    AFQ = "afq"


#: ``fluid.equilibrium_schedule`` would fall through to its FIFO model
#: and hand back a wrong number; the suite-spec parser says the same.
AFQ_HYBRID_REFUSAL = ("the hybrid backend has no fluid model of AFQ's "
                      "calendar queues; AFQ runs packet-level only")


@dataclass
class ScenarioResult:
    """Everything measured from one scenario run."""

    name: str
    discipline: Discipline
    duration_s: float
    sim_rate_bps: float
    rate_scale: float
    flow_scale: float
    cca_names: List[str]
    goodputs_bps: List[float]
    throughput_bps: float
    events: int
    lbf_drops: int = 0
    lbf_delays: int = 0
    buffer_drops: int = 0
    #: AFQ's drops beyond the calendar horizon (Equation 1); absent
    #: from the JSON payload when zero, as the summaries below are.
    horizon_drops: int = 0
    goodput_series_bps: Optional[List[List[float]]] = None
    start_times_s: Optional[List[float]] = None
    cp_history: Optional[list] = None
    #: Fault-injection account (see FaultSchedule.summary); None when
    #: the run had no faults, and then absent from the JSON payload so
    #: fault-free results stay byte-identical to pre-fault-subsystem
    #: outputs.
    fault_summary: Optional[Dict[str, Any]] = None
    #: Hybrid-backend account (see FluidPhaseReport.to_dict); None for
    #: packet-backend runs, and then absent from the JSON payload so
    #: packet results stay byte-identical to pre-hybrid outputs.
    hybrid_summary: Optional[Dict[str, Any]] = None

    @property
    def jfi(self) -> float:
        return jain_fairness_index(self.goodputs_bps)

    @property
    def total_goodput_bps(self) -> float:
        return sum(self.goodputs_bps)

    def jfi_series(self) -> List[float]:
        """Per-second JFI over the flows active in each second."""
        if self.goodput_series_bps is None:
            raise ValueError("run with collect_series=True for series")
        per_flow = {i: series
                    for i, series in enumerate(self.goodput_series_bps)}
        active = None
        if self.start_times_s is not None:
            active = {i: int(t) for i, t in enumerate(self.start_times_s)}
        return jfi_time_series(per_flow, active)

    def to_dict(self) -> dict:
        """A JSON-ready payload that round-trips without loss.

        The parallel executor and its on-disk result cache depend on
        ``from_dict(to_dict(r)) == r`` holding field for field.
        """
        data: Dict[str, Any] = {
            "name": self.name,
            "discipline": self.discipline.value,
            "duration_s": self.duration_s,
            "sim_rate_bps": self.sim_rate_bps,
            "rate_scale": self.rate_scale,
            "flow_scale": self.flow_scale,
            "cca_names": list(self.cca_names),
            "goodputs_bps": list(self.goodputs_bps),
            "throughput_bps": self.throughput_bps,
            "events": self.events,
            "lbf_drops": self.lbf_drops,
            "lbf_delays": self.lbf_delays,
            "buffer_drops": self.buffer_drops,
            "goodput_series_bps":
                [list(series) for series in self.goodput_series_bps]
                if self.goodput_series_bps is not None else None,
            "start_times_s": list(self.start_times_s)
                if self.start_times_s is not None else None,
            "cp_history":
                [sample.to_dict() for sample in self.cp_history]
                if self.cp_history is not None else None,
        }
        if self.horizon_drops:
            data["horizon_drops"] = self.horizon_drops
        if self.fault_summary is not None:
            data["fault_summary"] = self.fault_summary
        if self.hybrid_summary is not None:
            data["hybrid_summary"] = self.hybrid_summary
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioResult":
        """Rebuild a result from :meth:`to_dict`'s payload."""
        from ..core.control_plane import ControlPlaneSample
        return cls(
            name=data["name"],
            discipline=Discipline(data["discipline"]),
            duration_s=data["duration_s"],
            sim_rate_bps=data["sim_rate_bps"],
            rate_scale=data["rate_scale"],
            flow_scale=data["flow_scale"],
            cca_names=list(data["cca_names"]),
            goodputs_bps=list(data["goodputs_bps"]),
            throughput_bps=data["throughput_bps"],
            events=data["events"],
            lbf_drops=data["lbf_drops"],
            lbf_delays=data["lbf_delays"],
            buffer_drops=data["buffer_drops"],
            horizon_drops=data.get("horizon_drops", 0),
            goodput_series_bps=[list(series) for series
                                in data["goodput_series_bps"]]
            if data["goodput_series_bps"] is not None else None,
            start_times_s=list(data["start_times_s"])
            if data["start_times_s"] is not None else None,
            cp_history=[ControlPlaneSample.from_dict(sample)
                        for sample in data["cp_history"]]
            if data["cp_history"] is not None else None,
            fault_summary=data.get("fault_summary"),
            hybrid_summary=data.get("hybrid_summary"),
        )


def queue_factory_for(discipline: Discipline, scaled: ScaledScenario,
                      agents: Optional[list] = None,
                      record_history: bool = False,
                      cp_faults: Optional[ControlPlaneFaults] = None):
    """The bottleneck queue factory for a discipline."""
    buffer_mtus = scaled.spec.buffer_mtus
    if discipline is Discipline.FIFO:
        return lambda spec: DropTailQueue.from_mtu_count(buffer_mtus)
    if discipline is Discipline.FQ:
        # The paper raises FQ-CoDel's queue count to 2^32-1 (exact
        # per-flow queues) and we follow; the packet limit mirrors the
        # scenario's buffer.
        return fq_codel_factory(limit_packets=max(buffer_mtus, 64))
    if discipline is Discipline.CEBINAE:
        return cebinae_factory(params=scaled.cebinae,
                               buffer_mtus=buffer_mtus,
                               agents=agents,
                               record_history=record_history,
                               cp_faults=cp_faults)
    if discipline is Discipline.AFQ:
        # Section 5.5's fixed calendar: the factory's 32 queues at two
        # MTUs per round, sharing the scenario's buffer.
        return afq_factory(bytes_per_round=2 * MTU_BYTES,
                           limit_bytes=buffer_mtus * MTU_BYTES)
    raise ValueError(f"unknown discipline {discipline}")


#: Recognised simulation backends (see DESIGN.md section 14).
BACKENDS = ("packet", "hybrid")


@dataclass
class _Harness:
    """One built-and-wired scenario, ready to run.

    Groups everything :func:`run_scenario` constructs before the event
    loop starts, so the packet and hybrid paths share one build and
    one result-collection routine.
    """

    sim: Simulator
    network: Network
    bottlenecks: List[Link]
    monitor: FlowMonitor
    flows: List[TcpFlow]
    agents: List[CebinaeControlPlane]
    schedule: Optional[FaultSchedule]
    duration_ns: int
    watchdog: Optional[WallClockWatchdog]
    max_events: Optional[int]

    def partial_snapshot(self) -> Dict[str, Any]:
        """What the run had achieved when a guard stopped it."""
        return {
            "events": self.sim.processed_events,
            "sim_time_ns": self.sim.now_ns,
            "duration_ns": self.duration_ns,
            "delivered_bytes": self.delivered_bytes(),
        }

    def delivered_bytes(self) -> List[int]:
        records = self.monitor.records
        return [records[flow.flow_id].delivered_bytes
                if flow.flow_id in records else 0
                for flow in self.flows]

    def release(self) -> None:
        """Take the finished simulation apart so it is freed on return.

        Sockets, hosts, links, queue discs and pending events all point
        at each other, so a dropped harness waits for the cyclic
        collector's next full pass and until then sits beside the next
        run's harness: at 500 flows that is 12 MB, present or not
        depending on where the collector's counters happen to stand.
        With the references cut, reference counting frees the graph as
        soon as :func:`run_scenario` returns.
        """
        for flow in self.flows:
            flow.sender.close()
            flow.receiver.close()
        self.sim.scheduler.clear()
        self.network.dismantle()

    def run_until(self, until_ns: int) -> None:
        """Advance the packet engine, honouring the run's guards.

        ``max_events`` is a whole-run budget: segmented (hybrid) runs
        draw each segment from what the previous segments left over.
        """
        budget = self.max_events
        if budget is not None:
            budget -= self.sim.processed_events
            if budget <= 0:
                raise RunAborted(
                    f"exceeded max_events={self.max_events}",
                    partial=self.partial_snapshot())
        try:
            self.sim.run(until_ns=until_ns, max_events=budget,
                         watchdog=self.watchdog)
        except SimulationError as exc:
            # The event-budget guard; rewrap with the partial payload
            # so the executor records progress alongside the failure.
            raise RunAborted(str(exc),
                             partial=self.partial_snapshot()) from exc


def _wire(spec: TopologySpec, plans: List[FlowPlan],
          factory: QueueFactory, sim: Simulator, seed: int
          ) -> Tuple[Network, List[Link], List[Tuple[Host, Host, int]]]:
    """Build the topology of either kind of spec.

    The one place that asks which kind it has.  Returns the network,
    its bottleneck links, and a (sender, receiver, source port) per
    flow plan, in plan order.
    """
    if isinstance(spec, ParkingLotSpec):
        lot = build_parking_lot(
            num_long_flows=spec.num_long,
            cross_flow_counts=[count for _, count in spec.cross_mix],
            bottleneck_rate_bps=spec.rate_bps,
            bottleneck_queue=factory,
            access_delay_ns=int(spec.access_delay_ms * 1e6),
            bottleneck_delay_ns=int(spec.bottleneck_delay_ms * 1e6),
            sim=sim,
            jitter_seed=seed)
        senders = lot.long_senders + [
            host for group in lot.cross_senders for host in group]
        receivers = lot.long_receivers + [
            host for group in lot.cross_receivers for host in group]
        ports = ([10_000 + index for index in range(spec.num_long)]
                 + [20_000 + index
                    for index in range(len(plans) - spec.num_long)])
        return lot.network, lot.bottlenecks, list(
            zip(senders, receivers, ports))
    dumbbell = build_dumbbell(
        rtts_ns=[seconds(plan.rtt_s) for plan in plans],
        bottleneck_rate_bps=spec.rate_bps,
        bottleneck_queue=factory,
        sim=sim,
        jitter_seed=seed)
    return dumbbell.network, [dumbbell.bottleneck], [
        (dumbbell.senders[plan.index], dumbbell.receivers[plan.index],
         10_000 + plan.index) for plan in plans]


def _build_harness(scaled: ScaledScenario, discipline: Discipline,
                   record_history: bool, seed: int,
                   faults: Optional[FaultSpec],
                   wall_limit_s: Optional[float],
                   max_events: Optional[int]) -> _Harness:
    """Build the topology, flows, faults, and guards for one run."""
    spec = scaled.spec
    plans = spec.flow_plans()
    agents: List[CebinaeControlPlane] = []
    schedule: Optional[FaultSchedule] = None
    cp_faults: Optional[ControlPlaneFaults] = None
    sim = Simulator()
    trace_bus = obs_bus.current()
    if trace_bus is not None:
        # Clockless producers (queue discs) stamp records through the
        # bus; bind before the topology is built so emitters resolve.
        trace_bus.set_clock(sim)
    if faults is not None and faults.enabled:
        schedule = FaultSchedule(faults, sim)
        cp_faults = schedule.control_plane_faults()
    factory = queue_factory_for(discipline, scaled, agents=agents,
                                record_history=record_history,
                                cp_faults=cp_faults)
    network, bottlenecks, endpoints = _wire(spec, plans, factory, sim,
                                            seed)
    monitor = FlowMonitor(sim)
    flows = [connect_flow(sender, receiver, plan.cca, monitor=monitor,
                          src_port=port,
                          start_time_ns=seconds(plan.start_time_s))
             for plan, (sender, receiver, port) in zip(plans, endpoints)]
    duration_ns = seconds(spec.duration_s)
    if schedule is not None:
        schedule.install(network.links, list(network.nodes.values()),
                         duration_ns)
    harness = _Harness(sim=sim, network=network, bottlenecks=bottlenecks,
                       monitor=monitor, flows=flows, agents=agents,
                       schedule=schedule, duration_ns=duration_ns,
                       watchdog=None, max_events=max_events)
    if wall_limit_s is not None:
        harness.watchdog = WallClockWatchdog(
            wall_limit_s, partial=harness.partial_snapshot)
    return harness


def _collect_result(harness: _Harness, scaled: ScaledScenario,
                    discipline: Discipline, collect_series: bool,
                    record_history: bool,
                    extra_wire_bytes: int = 0) -> ScenarioResult:
    """Read the metrics the paper reports out of a finished harness.

    ``ScenarioResult``'s fields were named for dumbbells.  With several
    bottlenecks, ``throughput_bps`` is the sum of the per-segment
    transmit rates (an aggregate across segments, not one link's
    rate), ``lbf_drops``/``lbf_delays``/``buffer_drops`` and the fault
    account's ``failopen_enqueues`` sum over the per-segment queues,
    ``cca_names`` follows ``goodputs_bps`` (the long flows, then each
    cross group in segment order), and ``cp_history`` is the first
    segment's agent's alone.

    ``extra_wire_bytes`` accounts for bottleneck wire volume the fluid
    phase synthesised without moving packets; the packet path passes 0
    and the arithmetic stays bit-for-bit what it always was.
    """
    spec = scaled.spec
    plans = spec.flow_plans()
    sim, monitor, flows = harness.sim, harness.monitor, harness.flows
    duration_ns = harness.duration_ns
    agents, schedule = harness.agents, harness.schedule
    queues = [link.queue for link in harness.bottlenecks]
    by_flow = monitor.goodputs_bps(duration_ns)
    goodputs = [by_flow[flow.flow_id] for flow in flows]
    series = None
    if collect_series:
        series = [monitor.goodput_series_bps(flow.flow_id, duration_ns)
                  for flow in flows]
    result = ScenarioResult(
        name=spec.name,
        discipline=discipline,
        duration_s=spec.duration_s,
        sim_rate_bps=spec.rate_bps,
        rate_scale=scaled.rate_scale,
        flow_scale=scaled.flow_scale,
        cca_names=[plan.cca for plan in plans],
        goodputs_bps=goodputs,
        throughput_bps=(sum(link.tx_bytes for link in harness.bottlenecks)
                        + extra_wire_bytes) * 8 * SECOND / duration_ns,
        events=sim.processed_events,
        lbf_drops=sum(getattr(queue, "lbf_drops", 0)
                      for queue in queues),
        lbf_delays=sum(getattr(queue, "lbf_delays", 0)
                       for queue in queues),
        buffer_drops=sum(getattr(queue, "buffer_drops",
                                 queue.dropped_packets)
                         for queue in queues),
        horizon_drops=sum(getattr(queue, "horizon_drops", 0)
                          for queue in queues),
        goodput_series_bps=series,
        start_times_s=[plan.start_time_s for plan in plans]
        if spec.start_times_s is not None else None,
        cp_history=agents[0].history if agents and record_history
        else None,
    )
    if schedule is not None:
        summary = schedule.summary()
        if agents:
            # Fold the agents' degradation counters into the account
            # (the oracle counts draws; the agents count consequences).
            cp: Dict[str, Any] = dict(summary.get("control_plane", {}))
            cp["rounds"] = sum(agent.round_counter for agent in agents)
            cp["deadline_misses"] = sum(agent.deadline_misses
                                        for agent in agents)
            cp["dropped_reconfigs"] = sum(agent.dropped_reconfigs
                                          for agent in agents)
            cp["failopen_rounds"] = sum(agent.failopen_rounds
                                        for agent in agents)
            cp["failopen_enqueues"] = sum(
                getattr(queue, "failopen_enqueues", 0)
                for queue in queues)
            summary["control_plane"] = cp
        result.fault_summary = summary
    return result


def run_scenario(scaled: ScaledScenario, discipline: Discipline,
                 collect_series: bool = False,
                 record_history: bool = False,
                 seed: int = 0,
                 faults: Optional[FaultSpec] = None,
                 wall_limit_s: Optional[float] = None,
                 max_events: Optional[int] = None,
                 backend: str = "packet",
                 hybrid_policy: Optional[HybridPolicy] = None
                 ) -> ScenarioResult:
    """Execute one scenario under one discipline.

    ``seed`` varies the hosts' timing-noise RNG so replications of the
    same scenario are statistically independent yet reproducible.
    ``faults`` injects a deterministic fault schedule (the no-fault path
    is untouched: no extra events, RNG draws, or JSON keys).
    ``wall_limit_s``/``max_events`` bound the run; a breach raises
    :class:`~repro.faults.watchdog.RunAborted` carrying a partial-result
    snapshot.

    ``backend`` selects the simulation backend: ``"packet"`` (the
    default; full packet granularity end to end, byte-identical to
    every release since the engine landed) or ``"hybrid"`` (packet
    warmup, then fluid-rate advancement once the run is measurably
    steady — see :mod:`repro.netsim.fluid` and DESIGN.md section 14).
    ``hybrid_policy`` tunes the handoff rules; None uses the
    conservative defaults.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from "
                         f"{BACKENDS}")
    harness = _build_harness(scaled, discipline, record_history, seed,
                             faults, wall_limit_s, max_events)
    # The run span opens after harness construction (the bus clock is
    # bound to the simulator there) and closes around the whole
    # execution, whichever backend runs it.  Zero-cost off: open_span
    # returns None when no bus carries the span topic.
    run_span = obs_spans.open_span("run", scaled.spec.name)
    try:
        if backend == "hybrid":
            result = _run_hybrid(harness, scaled, discipline,
                                 collect_series, record_history, faults,
                                 hybrid_policy or HybridPolicy())
        else:
            with obs_spans.span("phase", "drain") as phase:
                harness.run_until(harness.duration_ns)
                if phase is not None:
                    phase.count = harness.sim.processed_events
            result = _collect_result(harness, scaled, discipline,
                                     collect_series, record_history)
    except BaseException:
        if run_span is not None:
            obs_spans.close_span(run_span, status="error")
        raise
    finally:
        harness.release()
    if run_span is not None:
        run_span.count = harness.sim.processed_events
        obs_spans.close_span(run_span)
    return result


def _run_hybrid(harness: _Harness, scaled: ScaledScenario,
                discipline: Discipline, collect_series: bool,
                record_history: bool, faults: Optional[FaultSpec],
                policy: HybridPolicy) -> ScenarioResult:
    """The hybrid orchestration: warmup, stability probe, fluid phase.

    Epoch boundaries the fluid phase honours by construction: flow
    arrivals (the handoff waits for the last staggered start plus a
    settling window), link fault windows (fault runs never demote),
    and LBF rotations / CCA transients (the Cebinae schedule advances
    one recomputation window per epoch; CCA dynamics are only modelled
    while demonstrably quiescent — that is what the stability probe
    checks).
    """
    if len(harness.bottlenecks) != 1:
        raise ValueError(
            f"scenario {scaled.spec.name!r}: the hybrid backend models a "
            f"single bottleneck; multi-bottleneck topologies run "
            f"packet-level only")
    if discipline is Discipline.AFQ:
        raise ValueError(
            f"scenario {scaled.spec.name!r}: {AFQ_HYBRID_REFUSAL}")
    spec = scaled.spec
    bottleneck = harness.bottlenecks[0]
    duration_ns = harness.duration_ns
    last_start_s = (max(spec.start_times_s)
                    if spec.start_times_s is not None else 0.0)

    def finish_packet(reason: str, extensions: int = 0,
                      divergence: Optional[float] = None
                      ) -> ScenarioResult:
        with obs_spans.span("phase", "drain") as phase:
            harness.run_until(duration_ns)
            if phase is not None:
                phase.count = harness.sim.processed_events
        report = FluidPhaseReport(
            mode="packet", reason=reason, extensions=extensions,
            divergence=divergence,
            packet_events=harness.sim.processed_events)
        return _finalise(report)

    def _finalise(report: FluidPhaseReport,
                  extra_wire_bytes: int = 0) -> ScenarioResult:
        result = _collect_result(harness, scaled, discipline,
                                 collect_series, record_history,
                                 extra_wire_bytes=extra_wire_bytes)
        result.hybrid_summary = report.to_dict()
        return result

    if faults is not None and faults.enabled:
        # Fault windows are epoch boundaries the fluid model does not
        # cross: degraded topologies re-converge at packet granularity.
        return finish_packet(REASON_FAULTS)
    if not policy.fluid_viable(spec.duration_s, spec.max_rtt_s,
                               last_start_s):
        # Short, transient-dominated runs (every tier-1 figure-class
        # scenario) stay pure packet: same events, same bytes.
        return finish_packet(REASON_SHORT_RUN)

    half_ns = seconds(policy.measure_s) // 2
    handoff_ns = seconds(policy.handoff_s(spec.max_rtt_s, last_start_s))
    extensions = 0
    with obs_spans.span("phase", "warmup") as warm:
        harness.run_until(handoff_ns - 2 * half_ns)
        if warm is not None:
            warm.count = harness.sim.processed_events
    first_bytes = harness.delivered_bytes()
    wire_start = bottleneck.tx_bytes
    while True:
        # Each probe iteration is its own phase span; the break/return
        # decisions stay outside it so a drain phase never nests under
        # a probe.
        with obs_spans.span("phase", "stability-probe") as probe:
            harness.run_until(harness.sim.now_ns + half_ns)
            mid_bytes = harness.delivered_bytes()
            harness.run_until(harness.sim.now_ns + half_ns)
            tail_bytes = harness.delivered_bytes()
            early = measured_rates_bps(first_bytes, mid_bytes, half_ns)
            late = measured_rates_bps(mid_bytes, tail_bytes, half_ns)
            divergence = rate_divergence(early, late,
                                         distributional=True)
            if probe is not None:
                probe.count = harness.sim.processed_events
        if divergence <= policy.stability_tol:
            break
        still_viable = (duration_ns - (harness.sim.now_ns + 2 * half_ns)
                        >= policy.min_fluid_fraction * duration_ns)
        if extensions >= policy.max_extensions or not still_viable:
            # Promotion: the run never went steady inside its warmup
            # budget, so it keeps full packet fidelity end to end.
            return finish_packet(REASON_UNSTABLE, extensions=extensions,
                                 divergence=divergence)
        extensions += 1
        first_bytes = tail_bytes
        wire_start = bottleneck.tx_bytes

    # Handoff.  Anchor the fluid rates at the last half-window's
    # measured goodputs and synthesise the rest of the run.
    handoff_at_ns = harness.sim.now_ns
    fluid_ns = duration_ns - handoff_at_ns
    # Anchor on the full measurement window (twice the averaging of a
    # half-window).  Under FIFO the anchors are additionally pooled
    # within (CCA, RTT, operating-point) classes: drop-tail mixes
    # exchangeable flows' sawtooth phases, so their long-run averages
    # coincide and a per-flow snapshot would freeze pure phase
    # dispersion — but only flows at a comparable operating point are
    # exchangeable, so the pool key includes a coarse rate bucket
    # (see rate_pool_key) and a starved flow never averages with its
    # healthy peers.  Cebinae anchors stay per-flow — the LBF
    # differentiates flows by their current rate, so within-class
    # dispersion is the very signal the modelled taxation acts on.
    # (FQ's schedule only uses the aggregate, which pooling conserves.)
    anchor = measured_rates_bps(first_bytes, tail_bytes, 2 * half_ns)
    if discipline is not Discipline.CEBINAE:
        plans = spec.flow_plans()
        anchor = pool_rates(
            anchor,
            [(plan.cca, plan.rtt_s, rate_pool_key(rate))
             for plan, rate in zip(plans, anchor)])
    with obs_spans.span("phase", "fluid-epoch") as fluid:
        epochs = equilibrium_schedule(
            discipline.value, anchor, fluid_ns,
            cebinae=scaled.cebinae if discipline is Discipline.CEBINAE
            else None)
        payload_bytes = advance_fluid(
            harness.monitor, [flow.flow_id for flow in harness.flows],
            epochs, handoff_at_ns)
        overhead = wire_overhead_ratio(
            bottleneck.tx_bytes - wire_start,
            sum(tail_bytes) - sum(first_bytes))
        if fluid is not None:
            fluid.count = len(epochs)
    report = FluidPhaseReport(
        mode="fluid",
        handoff_s=handoff_at_ns / SECOND,
        fluid_s=fluid_ns / SECOND,
        epochs=len(epochs),
        extensions=extensions,
        divergence=divergence,
        packet_events=harness.sim.processed_events)
    return _finalise(report,
                     extra_wire_bytes=int(round(payload_bytes
                                                * overhead)))
