"""Per-flow Cebinae: the paper's section 7 extension.

The shipped Cebinae tracks just two groups (⊤/⊥), trading intra-group
fairness for statistical multiplexing and minimal hardware state.  The
paper postulates that "an extension of Cebinae that tracks each
bottleneck flow separately would provide the opportunity for much
stronger guarantees" — equivalent network-level convergence to fair
queuing under eventual stability.

This module implements that extension in simulation: every ⊤ flow gets
its *own* leaky-bucket allocation (its own measured rate, taxed by τ),
while ⊥ remains one shared group.  The cost is per-⊤-flow state in the
data plane (still bounded: only heavy hitters are ⊤) and per-flow rate
updates in the control window; the benefit is that two unequal
aggressors can no longer fight inside a shared ⊤ budget — each is
squeezed toward the fair share individually.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set

from ..heavyhitter.hashpipe import select_bottlenecked
from ..netsim.engine import SECOND, Simulator
from ..netsim.packet import FlowId, Packet
from ..netsim.queues import QueueDisc  # noqa: F401 (docs reference)
from .control_plane import CebinaeControlPlane
from .lbf import FlowGroup, LbfDecision
from .params import CebinaeParams
from .queue_disc import CebinaeQueueDisc

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..netsim.topology import QueueFactory


class PerFlowCebinaeQueueDisc(CebinaeQueueDisc):
    """Cebinae with an individual allocation per bottlenecked flow.

    ⊥ traffic follows the base class unchanged; ⊤ packets are admitted
    against per-flow buckets using the same virtual-round arithmetic.
    """

    def __init__(self, sim: Simulator, params: CebinaeParams,
                 rate_bps: float, buffer_bytes: int,
                 name: str = "cebinae-perflow") -> None:
        super().__init__(sim, params, rate_bps, buffer_bytes, name=name)
        #: Per-⊤-flow bucket levels (bytes), same semantics as
        #: ``lbf.bytes[group]``.
        self.flow_bytes: Dict[FlowId, float] = {}
        #: Per-⊤-flow rates (bytes/second), per physical queue.
        self.flow_rates: List[Dict[FlowId, float]] = [dict(), dict()]

    # -- per-flow LBF arithmetic -------------------------------------------
    def _admit_top_flow(self, flow: FlowId, size_bytes: int,
                        now_ns: int) -> LbfDecision:
        lbf = self.lbf
        rate_head = self.flow_rates[lbf.headq].get(
            flow, lbf.capacity_bytes_per_sec)
        rate_tail = self.flow_rates[1 - lbf.headq].get(
            flow, lbf.capacity_bytes_per_sec)
        aggregate = lbf.credit(rate_head, rate_tail, now_ns)
        level = max(self.flow_bytes.get(flow, 0.0), aggregate) + \
            size_bytes
        self.flow_bytes[flow] = level
        dt_sec = self.params.dt_ns / SECOND
        past_head = level - rate_head * dt_sec
        past_tail = past_head - rate_tail * dt_sec
        if past_head <= 0:
            return LbfDecision.HEAD
        if past_tail <= 0:
            return LbfDecision.TAIL
        return LbfDecision.DROP

    def enqueue(self, packet: Packet) -> bool:
        if (self.saturated
                and self.group_of(packet.flow) is FlowGroup.TOP):
            if self.byte_length + packet.size_bytes > self.buffer_bytes:
                self.buffer_drops += 1
                self.record_drop(packet)
                return False
            decision = self._admit_top_flow(packet.flow,
                                            packet.size_bytes,
                                            self.sim.now_ns)
            self.lbf.track_total(packet.size_bytes)
            if decision is LbfDecision.DROP:
                self.lbf_drops += 1
                self.record_drop(packet)
                return False
            if decision is LbfDecision.TAIL:
                self.lbf_delays += 1
                if self.params.ecn_marking and packet.mark_ce():
                    self.ecn_marks += 1
            queue_index = self.lbf.queue_for(decision)
            self._queues[queue_index].append(packet)
            self._queue_bytes[queue_index] += packet.size_bytes
            return True
        return super().enqueue(packet)

    def rotate(self) -> int:
        """Decay every per-flow bucket by its round allocation."""
        retired = self.lbf.headq  # Captured before the flip.
        dt_sec = self.params.dt_ns / SECOND
        for flow in list(self.flow_bytes):
            rate = self.flow_rates[retired].get(
                flow, self.lbf.capacity_bytes_per_sec)
            level = self.flow_bytes[flow] - rate * dt_sec
            if level <= 0 and flow not in self.top_flows:
                del self.flow_bytes[flow]  # Fully drained ex-member.
            else:
                self.flow_bytes[flow] = max(level, 0.0)
        return super().rotate()

    # -- control plane interface ----------------------------------------------
    def set_flow_rates(self, queue_index: int,
                       rates: Dict[FlowId, float]) -> None:
        if queue_index == self.lbf.headq:
            raise ValueError(
                "rates may only change on the drained (non-head) queue")
        self.flow_rates[queue_index] = dict(rates)

    def set_membership(self, top_flows: Set[FlowId]) -> None:
        removed = self.top_flows - top_flows
        super().set_membership(top_flows)
        # Sorted so ``flow_bytes`` insertion order (hence rotate() and
        # report iteration order) never depends on set hash order.
        for flow in sorted(removed):
            # Ex-⊤ flows rejoin the shared ⊥ bucket; their leftover
            # level decays out via rotate().
            self.flow_bytes.setdefault(flow, 0.0)


class PerFlowCebinaeControlPlane(CebinaeControlPlane):
    """Figure 4 with per-flow rate assignments for the ⊤ set."""

    #: Narrowed from the base class: this agent drives the per-flow
    #: queue disc's rate table as well.
    qdisc: PerFlowCebinaeQueueDisc

    def __init__(self, sim: Simulator, qdisc: PerFlowCebinaeQueueDisc,
                 record_history: bool = False) -> None:
        self._pending_flow_rates: Dict[FlowId, float] = {}
        super().__init__(sim, qdisc, record_history=record_history)

    def _apply_config(self, retired_queue: int) -> None:
        super()._apply_config(retired_queue)
        self.qdisc.set_flow_rates(retired_queue,
                                  self._pending_flow_rates)

    def _recompute(self) -> None:
        params = self.params
        window_sec = params.recompute_interval_ns / SECOND
        byte_count = self.qdisc.port_tx_bytes - self._last_port_bytes
        utilization = byte_count / (self.capacity_bytes_per_sec
                                    * window_sec)
        flow_bytes_snapshot = self.qdisc.cache.snapshot()
        # The base class polls/resets the cache and handles the shared
        # state; it must see the same utilisation value.
        super()._recompute()
        if utilization < 1.0 - params.delta_port:
            self._pending_flow_rates = {}
            return
        top, _ = select_bottlenecked(flow_bytes_snapshot,
                                     params.delta_flow)
        self._pending_flow_rates = {
            flow: flow_bytes_snapshot[flow] * (1.0 - params.tau)
            / window_sec
            for flow in sorted(top)}


def perflow_cebinae_factory(params: Optional[CebinaeParams] = None,
                            buffer_mtus: int = 100,
                            max_rtt_ns: int = 100_000_000,
                            record_history: bool = False,
                            agents: Optional[
                                List[CebinaeControlPlane]] = None
                            ) -> "QueueFactory":
    """Queue factory installing the per-flow Cebinae variant."""
    from ..netsim.packet import MTU_BYTES
    from ..netsim.topology import PortSpec

    def factory(spec: PortSpec) -> PerFlowCebinaeQueueDisc:
        buffer_bytes = buffer_mtus * MTU_BYTES
        port_params = params
        if port_params is None:
            port_params = CebinaeParams.for_link(
                spec.rate_bps, buffer_bytes, max_rtt_ns=max_rtt_ns)
        qdisc = PerFlowCebinaeQueueDisc(spec.sim, port_params,
                                        spec.rate_bps, buffer_bytes,
                                        name=spec.name)
        agent = PerFlowCebinaeControlPlane(
            spec.sim, qdisc, record_history=record_history)
        if agents is not None:
            agents.append(agent)
        return qdisc

    return factory
