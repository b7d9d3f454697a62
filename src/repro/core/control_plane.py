"""Cebinae's control-plane agent (paper Figure 4 and the Figure 6
timeline).

Per round of length ``dT``:

* at ``t0`` the data plane rotates queue priorities (modelled as the
  ROTATE packet-generator event);
* the control plane then has the window ``[t0 + vdT, t0 + vdT + L]`` —
  after the retired queue has provably drained — to fix the retired
  queue's rates and apply membership/phase changes.  We model the
  deadline by applying all changes atomically at ``t0 + vdT + L``.

Every ``P`` rounds the agent recomputes (Figure 4 lines 8-28): it reads
the port byte counter to classify saturation against ``1 - δp``, polls
and resets the flow cache, selects the ⊤ set within ``δf`` of the
maximum flow, and taxes the group's aggregate rate by ``τ``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set

from ..heavyhitter.hashpipe import select_bottlenecked
from ..netsim.engine import SECOND, Simulator
from ..netsim.packet import FlowId
from ..obs import bus as obs_bus
from ..obs import spans as obs_spans
from ..obs.events import ControlRound, sorted_flow_strings
from .params import CebinaeParams
from .queue_disc import CebinaeQueueDisc

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..faults.schedule import ControlPlaneFaults
    from ..netsim.topology import QueueFactory
    from .units import Ratio, TimeNs


@dataclass
class ControlPlaneSample:
    """One recomputation's observations (Figure 1's background shading)."""

    time_ns: TimeNs
    utilization: Ratio
    saturated: bool
    top_flows: Set[FlowId] = field(default_factory=set)
    top_rate_bytes_per_sec: float = 0.0
    bottom_rate_bytes_per_sec: float = 0.0
    #: True when the port failed open at least once since the previous
    #: recomputation (fault injection only; see repro.faults).
    degraded: bool = False

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready payload; ``top_flows`` is sorted so the output
        is byte-identical across processes (set iteration order is
        not).  ``degraded`` is emitted only when set, so fault-free runs
        stay byte-identical to payloads from before fault injection
        existed."""
        data: Dict[str, Any] = {
            "time_ns": self.time_ns,
            "utilization": self.utilization,
            "saturated": self.saturated,
            "top_flows": sorted(list(flow) for flow in self.top_flows),
            "top_rate_bytes_per_sec": self.top_rate_bytes_per_sec,
            "bottom_rate_bytes_per_sec": self.bottom_rate_bytes_per_sec,
        }
        if self.degraded:
            data["degraded"] = True
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ControlPlaneSample":
        return cls(
            time_ns=data["time_ns"],
            utilization=data["utilization"],
            saturated=data["saturated"],
            top_flows={FlowId(*flow) for flow in data["top_flows"]},
            top_rate_bytes_per_sec=data["top_rate_bytes_per_sec"],
            bottom_rate_bytes_per_sec=data["bottom_rate_bytes_per_sec"],
            degraded=data.get("degraded", False),
        )


class CebinaeControlPlane:
    """The per-port agent driving rotation and reconfiguration."""

    def __init__(self, sim: Simulator, qdisc: CebinaeQueueDisc,
                 record_history: bool = False,
                 faults: Optional["ControlPlaneFaults"] = None) -> None:
        self.sim = sim
        self.qdisc = qdisc
        self.params: CebinaeParams = qdisc.params
        self.capacity_bytes_per_sec = qdisc.rate_bps / 8.0
        self.round_counter = 0
        self._last_port_bytes = 0
        # Fault injection: when an oracle is installed it is consulted
        # once per rotation; a verdict of "reconfiguration misses the
        # deadline L" triggers graceful degradation (see _miss_deadline).
        self.faults = faults
        self.deadline_misses = 0
        self.dropped_reconfigs = 0
        self.failopen_rounds = 0
        self._degraded_since_record = False
        # Pending configuration, installed on each retired queue.
        self._pending_top_rate = self.capacity_bytes_per_sec
        self._pending_bottom_rate = self.capacity_bytes_per_sec
        self._pending_membership: Optional[Set[FlowId]] = None
        self._pending_saturated: Optional[bool] = None
        self.history: Optional[List[ControlPlaneSample]] = (
            [] if record_history else None)
        self.recomputations = 0
        # Observability: one ControlRound record per applied (or
        # missed) reconfiguration.  Bound once; None when the topic is
        # off.  ``_last_utilization`` remembers the most recent
        # recompute's reading so non-recompute rounds still report it.
        self._trace_round = obs_bus.emitter_for("control")
        # Span leaves: one ``round`` span per applied reconfiguration,
        # emitted directly (no stack frame) under whatever run/phase
        # span is open when the round lands.
        self._trace_span = obs_bus.emitter_for("span")
        self._last_utilization = 0.0
        # Bootstrap the round schedule: first rotation after one dT.
        self.sim.post(self.params.dt_ns, self._on_rotate)

    # -- the per-round loop ---------------------------------------------------
    def _on_rotate(self) -> None:
        retired = self.qdisc.rotate()
        self.round_counter += 1
        deadline = self.params.control_deadline_ns
        faults = self.faults
        if faults is not None:
            dropped, extra_ns = faults.draw(self.sim.now_ns)
            if dropped or extra_ns > 0:
                self._miss_deadline(retired, deadline, dropped, extra_ns)
                self.sim.post(self.params.dt_ns, self._on_rotate)
                return
        self.sim.post(deadline, self._apply_config, retired)
        self.sim.post(self.params.dt_ns, self._on_rotate)

    def _miss_deadline(self, retired_queue: int, deadline_ns: TimeNs,
                       dropped: bool, extra_ns: int) -> None:
        """This round's reconfiguration will not arrive by ``t0 + vdT + L``.

        The configuration computed for the retired queue is stale the
        moment the deadline passes.  With fail-open semantics (the
        default) the switch detects the miss at the deadline and
        degrades to pass-through FIFO for the rest of the round —
        fairness augmentation pauses, forwarding never does.  With
        fail-open disabled the stale configuration is applied *late*
        (the hazard the paper's deadline exists to avoid), or never, if
        the control message was dropped outright.
        """
        self.deadline_misses += 1
        if dropped:
            self.dropped_reconfigs += 1
        faults = self.faults
        if faults is not None and faults.fail_open:
            self.sim.post(deadline_ns, self._fail_open)
        elif not dropped:
            self.sim.post(deadline_ns + extra_ns,
                          self._apply_config, retired_queue)
        else:
            # Dropped outright with fail-open disabled: nothing else
            # will account for this round, so the timeline records the
            # hole here.
            trace = self._trace_round
            if trace is not None:
                trace(ControlRound(
                    time_ns=self.sim.now_ns, port=self.qdisc.name,
                    kind="missed", round_index=self.round_counter,
                    retired_queue=retired_queue,
                    saturated=self.qdisc.saturated,
                    utilization=self._last_utilization,
                    top_rate_bytes_per_sec=self._pending_top_rate,
                    bottom_rate_bytes_per_sec=self._pending_bottom_rate,
                    top_flows=sorted_flow_strings(self.qdisc.top_flows),
                    recomputed=False, fail_open=False))

    def _fail_open(self) -> None:
        """Deadline passed with no fresh configuration: degrade."""
        self.failopen_rounds += 1
        self._degraded_since_record = True
        self.qdisc.enter_fail_open()
        trace = self._trace_round
        if trace is not None:
            trace(ControlRound(
                time_ns=self.sim.now_ns, port=self.qdisc.name,
                kind="fail_open", round_index=self.round_counter,
                retired_queue=-1, saturated=self.qdisc.saturated,
                utilization=self._last_utilization,
                top_rate_bytes_per_sec=self._pending_top_rate,
                bottom_rate_bytes_per_sec=self._pending_bottom_rate,
                top_flows=sorted_flow_strings(self.qdisc.top_flows),
                recomputed=False, fail_open=True))

    def _apply_config(self, retired_queue: int) -> None:
        """End of the control window: all changes become visible."""
        trace_span = self._trace_span
        wall0 = obs_spans.wall_now() if trace_span is not None else 0.0
        if self.qdisc.fail_open:
            # A fresh configuration ends the degraded spell; the next
            # recompute (below or on a later round) re-converges rates.
            self.qdisc.exit_fail_open()
        recomputed = self.round_counter % self.params.recompute_rounds == 0
        if recomputed:
            self._recompute()
        if self._pending_saturated is not None:
            capacity = self.capacity_bytes_per_sec
            self.qdisc.set_saturated(
                self._pending_saturated,
                top_share=self._pending_top_rate / capacity,
                bottom_share=self._pending_bottom_rate / capacity)
            self._pending_saturated = None
        if self._pending_membership is not None:
            self.qdisc.set_membership(self._pending_membership)
            self._pending_membership = None
        self.qdisc.lbf.set_queue_rates(retired_queue,
                                       self._pending_top_rate,
                                       self._pending_bottom_rate)
        trace = self._trace_round
        if trace is not None:
            trace(ControlRound(
                time_ns=self.sim.now_ns, port=self.qdisc.name,
                kind="config", round_index=self.round_counter,
                retired_queue=retired_queue,
                saturated=self.qdisc.saturated,
                utilization=self._last_utilization,
                top_rate_bytes_per_sec=self._pending_top_rate,
                bottom_rate_bytes_per_sec=self._pending_bottom_rate,
                top_flows=sorted_flow_strings(self.qdisc.top_flows),
                recomputed=recomputed, fail_open=False))
        if trace_span is not None:
            obs_spans.emit_leaf(
                trace_span, "round", "control-round", self.sim.now_ns,
                obs_spans.wall_now() - wall0, count=self.round_counter)

    # -- the every-P-rounds recomputation -----------------------------------------
    def _recompute(self) -> None:
        self.recomputations += 1
        params = self.params
        window_sec = params.recompute_interval_ns / SECOND
        byte_count = self.qdisc.port_tx_bytes - self._last_port_bytes
        self._last_port_bytes = self.qdisc.port_tx_bytes
        utilization = byte_count / (self.capacity_bytes_per_sec
                                    * window_sec)
        self._last_utilization = utilization
        # Poll-and-reset every window so counts always span P*dT.
        flow_bytes = self.qdisc.cache.poll_and_reset()
        if utilization < 1.0 - params.delta_port:
            self._configure_unsaturated(utilization)
            return
        top, bottleneck_bytes = select_bottlenecked(flow_bytes,
                                                    params.delta_flow)
        taxed_bytes = bottleneck_bytes * (1.0 - params.tau)
        top_rate = taxed_bytes / window_sec
        top_rate = min(top_rate, self.capacity_bytes_per_sec)
        bottom_rate = self.capacity_bytes_per_sec - top_rate
        floor = params.min_bottom_rate_fraction * \
            self.capacity_bytes_per_sec
        if bottom_rate < floor:
            bottom_rate = floor
            top_rate = self.capacity_bytes_per_sec - floor
        self._pending_top_rate = top_rate
        self._pending_bottom_rate = bottom_rate
        self._pending_membership = top
        self._pending_saturated = True
        self._record(utilization, True, top, top_rate, bottom_rate)

    def _configure_unsaturated(self, utilization: Ratio) -> None:
        """Release all limits so any flow may claim the headroom."""
        self._pending_top_rate = self.capacity_bytes_per_sec
        self._pending_bottom_rate = self.capacity_bytes_per_sec
        self._pending_membership = set()
        self._pending_saturated = False
        self._record(utilization, False, set(),
                     self.capacity_bytes_per_sec,
                     self.capacity_bytes_per_sec)

    def _record(self, utilization: Ratio, saturated: bool,
                top: Set[FlowId], top_rate: float,
                bottom_rate: float) -> None:
        if self.history is None:
            return
        degraded = self._degraded_since_record
        self._degraded_since_record = False
        self.history.append(ControlPlaneSample(
            time_ns=self.sim.now_ns, utilization=utilization,
            saturated=saturated, top_flows=set(top),
            top_rate_bytes_per_sec=top_rate,
            bottom_rate_bytes_per_sec=bottom_rate,
            degraded=degraded))


def cebinae_factory(params: Optional[CebinaeParams] = None,
                    buffer_mtus: int = 100,
                    max_rtt_ns: int = 100_000_000,
                    record_history: bool = False,
                    agents: Optional[List["CebinaeControlPlane"]] = None,
                    cp_faults: Optional["ControlPlaneFaults"] = None
                    ) -> "QueueFactory":
    """Queue factory installing Cebinae (data plane + agent) on a port.

    When ``params`` is None, timing parameters are derived per port from
    its rate and buffer via :meth:`CebinaeParams.for_link`.  Created
    control-plane agents are appended to ``agents`` (when given) so
    experiments can inspect their histories.  ``cp_faults`` installs a
    deadline oracle on every created agent (ports are created in
    deterministic topology order, so sharing one oracle keeps its draw
    sequence reproducible).
    """
    from ..netsim.packet import MTU_BYTES
    from ..netsim.topology import PortSpec

    def factory(spec: PortSpec) -> CebinaeQueueDisc:
        buffer_bytes = buffer_mtus * MTU_BYTES
        port_params = params
        if port_params is None:
            port_params = CebinaeParams.for_link(
                spec.rate_bps, buffer_bytes, max_rtt_ns=max_rtt_ns)
        qdisc = CebinaeQueueDisc(spec.sim, port_params, spec.rate_bps,
                                 buffer_bytes, name=spec.name)
        agent = CebinaeControlPlane(spec.sim, qdisc,
                                    record_history=record_history,
                                    faults=cp_faults)
        if agents is not None:
            agents.append(agent)
        return qdisc

    return factory
