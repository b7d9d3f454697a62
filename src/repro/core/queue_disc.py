"""The Cebinae queue disc: data-plane half of the per-router design.

This class glues the pieces of Figure 3 into a
:class:`~repro.netsim.queues.QueueDisc` that installs on a bottleneck
port:

* **Ingress classifier + LBF** (enqueue path): packets of ⊤ flows are
  matched in an exact table (no hash-collision false positives — the
  "never make unfairness worse" principle) and admitted through the
  :class:`~repro.core.lbf.LeakyBucketFilter` into one of two priority
  queues, delayed, or dropped.
* **Egress accounting** (transmit path): a per-port byte counter for
  saturation detection and the passive flow cache for bottleneck-flow
  detection.

The control plane half lives in
:class:`~repro.core.control_plane.CebinaeControlPlane`.
"""

from __future__ import annotations

import collections
from typing import TYPE_CHECKING, Deque, List, Optional, Set, Union

from ..heavyhitter.hashpipe import CebinaeFlowCache, ExactFlowCache
from ..netsim.engine import Simulator
from ..netsim.packet import FlowId, Packet
from ..netsim.queues import QueueDisc
from ..obs import bus as obs_bus
from ..obs.events import CacheUpdate, LbfDecisionEvent, LbfRotation
from .lbf import FlowGroup, LbfDecision, LeakyBucketFilter
from .params import CebinaeParams

if TYPE_CHECKING:
    from .units import BitsPerSec, Bytes, Ratio


class CebinaeQueueDisc(QueueDisc):
    """Two priority queues plus LBF admission and egress accounting."""

    def __init__(self, sim: Simulator, params: CebinaeParams,
                 rate_bps: BitsPerSec, buffer_bytes: Bytes,
                 name: str = "cebinae") -> None:
        super().__init__()
        params.validate_for_link(rate_bps, buffer_bytes)
        self.sim = sim
        self.params = params
        self.rate_bps = rate_bps
        self.buffer_bytes = buffer_bytes
        self.name = name
        self.lbf = LeakyBucketFilter(params, rate_bps)
        self._queues: List[Deque[Packet]] = [collections.deque(),
                                             collections.deque()]
        self._queue_bytes = [0, 0]
        #: The ⊤ membership table (exact match, installed by the CP).
        self.top_flows: Set[FlowId] = set()
        #: Whether the per-group filter is active (port saturated).
        self.saturated = False
        #: Egress pipeline: transmit byte counter and flow cache.
        self.port_tx_bytes = 0
        self.cache: Union[CebinaeFlowCache[FlowId],
                          ExactFlowCache[FlowId]]
        if params.use_exact_cache:
            self.cache = ExactFlowCache()
        else:
            self.cache = CebinaeFlowCache(
                stages=params.cache_stages,
                slots_per_stage=params.cache_slots)
        # Diagnostics.
        self.lbf_delays = 0
        self.lbf_drops = 0
        self.buffer_drops = 0
        self.ecn_marks = 0
        self.rotation_residue = 0
        # Graceful degradation: when the control plane misses its
        # deadline ``L`` the port *fails open* — packets bypass LBF
        # admission into the head queue (plain drop-tail FIFO), so a
        # faulty control plane can never stall the data plane.  The
        # agent clears the flag at the next successful reconfiguration.
        self.fail_open = False
        self.failopen_enqueues = 0
        # Observability: emitters bound once at construction (None when
        # the topic is off), so the disabled enqueue path pays one
        # attribute test.  The flow cache gets its trace hook through a
        # closure that stamps the simulation clock and port name the
        # cache itself does not hold.
        self._trace_lbf = obs_bus.emitter_for("lbf")
        cache_emit = obs_bus.emitter_for("hashpipe")
        if cache_emit is not None:
            def cache_trace(action: str, flow: FlowId, stage: int,
                            nbytes: int,
                            _emit: obs_bus.Emitter = cache_emit) -> None:
                _emit(CacheUpdate(time_ns=sim.now_ns, port=name,
                                  action=action, flow=str(flow),
                                  stage=stage, nbytes=nbytes))
            self.cache.trace = cache_trace

    # -- classification --------------------------------------------------------
    def group_of(self, flow: FlowId) -> FlowGroup:
        return FlowGroup.TOP if flow in self.top_flows else \
            FlowGroup.BOTTOM

    # -- ingress path ------------------------------------------------------------
    def enqueue(self, packet: Packet) -> bool:
        queue_bytes = self._queue_bytes  # byte_length, without its frame.
        if queue_bytes[0] + queue_bytes[1] + packet.size_bytes \
                > self.buffer_bytes:
            self.buffer_drops += 1
            self.record_drop(packet, reason="buffer")
            return False
        trace = self._trace_lbf
        if self.fail_open:
            # Degraded pass-through: straight into the head queue, no
            # LBF state updates (the rates are stale by definition).
            self.failopen_enqueues += 1
            queue_index = self.lbf.headq
            if trace is not None:
                trace(LbfDecisionEvent(
                    time_ns=self.sim.now_ns, port=self.name,
                    kind="failopen_enqueue", flow=str(packet.flow),
                    group="aggregate", size_bytes=packet.size_bytes,
                    queue_index=queue_index))
            self._queues[queue_index].append(packet)
            queue_bytes[queue_index] += packet.size_bytes
            return True
        now = self.sim.now_ns
        group_name = "aggregate"
        if self.saturated:
            group = self.group_of(packet.flow)
            decision = self.lbf.admit(group, packet.size_bytes, now)
            self.lbf.track_total(packet.size_bytes)
            if trace is not None:
                # Enum.name is a Python-level descriptor: traced only.
                group_name = group.name.lower()
        else:
            decision = self.lbf.admit_aggregate(packet.size_bytes, now)
        if decision is LbfDecision.DROP:
            self.lbf_drops += 1
            if trace is not None:
                trace(LbfDecisionEvent(
                    time_ns=now, port=self.name, kind="drop",
                    flow=str(packet.flow), group=group_name,
                    size_bytes=packet.size_bytes, queue_index=-1))
            self.record_drop(packet, reason="lbf")
            return False
        if decision is LbfDecision.TAIL:
            self.lbf_delays += 1
            marked = self.params.ecn_marking and packet.mark_ce()
            if marked:
                self.ecn_marks += 1
            if trace is not None:
                trace(LbfDecisionEvent(
                    time_ns=now, port=self.name,
                    kind="mark" if marked else "delay",
                    flow=str(packet.flow), group=group_name,
                    size_bytes=packet.size_bytes,
                    queue_index=1 - self.lbf.headq))
        queue_index = self.lbf.queue_for(decision)
        self._queues[queue_index].append(packet)
        queue_bytes[queue_index] += packet.size_bytes
        return True

    def dequeue(self) -> Optional[Packet]:
        """Strict priority: headq first, then the next-round queue.

        Serving ¬headq when headq is idle is what makes Cebinae
        work-conserving — a group may exceed its allocation whenever the
        other group leaves the link idle.
        """
        queues = self._queues
        head = self.lbf.headq
        queue: Deque[Packet] = queues[head]
        if not queue:
            head = 1 - head
            queue = queues[head]
            if not queue:
                return None
        packet = queue.popleft()
        self._queue_bytes[head] -= packet.size_bytes
        return packet

    # -- egress path ---------------------------------------------------------------
    def on_transmit(self, packet: Packet) -> None:
        """Egress pipeline hook, called by the link per transmission."""
        self.port_tx_bytes += packet.size_bytes
        self.cache.update(packet.flow, packet.size_bytes)

    # -- control plane interface ------------------------------------------------------
    def rotate(self) -> int:
        """Advance the round; returns the retired queue index."""
        retired = self.lbf.headq
        residue = len(self._queues[retired])
        if residue and not self.fail_open:
            # Equation (2) should make this impossible; count
            # violations.  Not a violation while failed open: the
            # pass-through path ignores the LBF pacing that Equation (2)
            # assumes.
            self.rotation_residue += 1
        index = self.lbf.rotate(self.sim.now_ns)
        trace = self._trace_lbf
        if trace is not None:
            trace(LbfRotation(time_ns=self.sim.now_ns, port=self.name,
                              rotation=self.lbf.rotations,
                              retired_queue=index,
                              residue_packets=residue))
        return index

    def enter_fail_open(self) -> None:
        """Degrade to pass-through FIFO (stale reconfiguration)."""
        self.fail_open = True

    def exit_fail_open(self) -> None:
        """Restore LBF admission (fresh configuration installed)."""
        self.fail_open = False

    def set_membership(self, top_flows: Set[FlowId]) -> None:
        self.top_flows = set(top_flows)

    def set_saturated(self, saturated: bool,
                      top_share: Ratio = 0.5,
                      bottom_share: Ratio = 0.5) -> None:
        """Phase change, applied atomically by the control plane.

        On unsaturated→saturated, the group counters are bootstrapped
        from the aggregate counter split by the incoming rate shares.
        """
        if saturated and not self.saturated:
            self.lbf.bootstrap_from_total(top_share, bottom_share)
        elif not saturated and self.saturated:
            self.lbf.reset_group_counters()
        self.saturated = saturated

    # -- QueueDisc interface ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._queues[0]) + len(self._queues[1])

    @property
    def byte_length(self) -> Bytes:
        return self._queue_bytes[0] + self._queue_bytes[1]
