"""FQ-CoDel: Deficit Round Robin fair queuing with CoDel AQM.

This is the paper's "FQ" baseline (Table 2): ns-3's FQ-CoDel queue disc
with the queue count raised to 2^32 - 1 so every flow gets a dedicated
queue.  The implementation follows RFC 8290 (scheduler) and RFC 8289
(CoDel control law).  Because the paper's configuration makes hash
collisions vanishingly rare, flows are kept in an exact dict rather than
a hashed array; a ``num_queues`` parameter is still honoured for tests
that want collisions.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional

from .engine import MILLISECOND, Simulator
from .packet import FlowId, Packet
from .queues import QueueDisc
from .topology import PortSpec, QueueFactory

if TYPE_CHECKING:
    from ..core.units import Bytes, TimeNs

#: CoDel acceptable standing-queue delay (RFC 8289 default).
CODEL_TARGET_NS = 5 * MILLISECOND
#: CoDel sliding-minimum window (RFC 8289 default).
CODEL_INTERVAL_NS = 100 * MILLISECOND


def control_law(time_ns: TimeNs, interval_ns: TimeNs,
                count: int) -> TimeNs:
    """The CoDel drop-scheduling control law: interval / sqrt(count)."""
    return time_ns + int(interval_ns / math.sqrt(count))


@dataclass
class CoDelState:
    """Per-queue CoDel state machine (RFC 8289 section 5)."""

    target_ns: TimeNs = CODEL_TARGET_NS
    interval_ns: TimeNs = CODEL_INTERVAL_NS
    first_above_time_ns: TimeNs = 0
    drop_next_ns: TimeNs = 0
    count: int = 0
    lastcount: int = 0
    dropping: bool = False

    def sojourn_ok(self, sojourn_ns: TimeNs, now_ns: TimeNs,
                   backlog_bytes: Bytes) -> bool:
        """Update first_above_time; True if the packet should NOT drop."""
        if sojourn_ns < self.target_ns or backlog_bytes <= 1514:
            self.first_above_time_ns = 0
            return True
        if self.first_above_time_ns == 0:
            self.first_above_time_ns = now_ns + self.interval_ns
        elif now_ns >= self.first_above_time_ns:
            return False
        return True


class _FlowQueue:
    """One DRR flow queue with its CoDel state."""

    __slots__ = ("packets", "bytes", "deficit", "codel", "active",
                 "is_new")

    def __init__(self, quantum: Bytes, target_ns: TimeNs,
                 interval_ns: TimeNs) -> None:
        self.packets: Deque[Packet] = collections.deque()
        # Maintained incrementally: summing per-packet sizes on demand
        # made the overlimit fattest-queue search O(packets) per drop.
        self.bytes = 0
        self.deficit = quantum
        self.codel = CoDelState(target_ns=target_ns, interval_ns=interval_ns)
        self.active = False
        self.is_new = False


class FqCoDelQueue(QueueDisc):
    """RFC 8290 FQ-CoDel over exact per-flow queues."""

    def __init__(self, sim: Simulator, quantum_bytes: Bytes = 1514,
                 target_ns: TimeNs = CODEL_TARGET_NS,
                 interval_ns: TimeNs = CODEL_INTERVAL_NS,
                 limit_packets: int = 10240,
                 num_queues: Optional[int] = None) -> None:
        super().__init__()
        self.sim = sim
        self.quantum_bytes = quantum_bytes
        self.target_ns = target_ns
        self.interval_ns = interval_ns
        self.limit_packets = limit_packets
        self.num_queues = num_queues
        self._queues: Dict[object, _FlowQueue] = {}
        self._new_flows: Deque[object] = collections.deque()
        self._old_flows: Deque[object] = collections.deque()
        self._packets = 0
        self._bytes = 0
        self.codel_drops = 0
        self.overlimit_drops = 0

    def _bucket(self, flow: FlowId) -> object:
        if self.num_queues is None:
            return flow
        # stable_hash, not hash(): the builtin is randomised per
        # process (PYTHONHASHSEED) and would make the flow-to-queue
        # mapping — hence drops and goodputs — differ between a run
        # and its deterministic replay elsewhere.
        return flow.stable_hash() % self.num_queues

    def _get_queue(self, key: object) -> _FlowQueue:
        queue = self._queues.get(key)
        if queue is None:
            queue = _FlowQueue(self.quantum_bytes, self.target_ns,
                               self.interval_ns)
            self._queues[key] = queue
        return queue

    def enqueue(self, packet: Packet) -> bool:
        packet.enqueue_time_ns = self.sim.now_ns
        key = self._bucket(packet.flow)
        queue = self._get_queue(key)
        queue.packets.append(packet)
        queue.bytes += packet.size_bytes
        self._packets += 1
        self._bytes += packet.size_bytes
        if not queue.active:
            queue.active = True
            queue.is_new = True
            queue.deficit = self.quantum_bytes
            self._new_flows.append(key)
        if self._packets > self.limit_packets:
            self._drop_from_fattest()
        return True

    def _drop_from_fattest(self) -> None:
        """RFC 8290 overlimit behaviour: drop at head of the fattest queue."""
        fattest = max(self._queues.values(),
                      key=attrgetter("bytes"), default=None)
        if fattest is None or not fattest.packets:
            return
        victim = fattest.packets.popleft()
        fattest.bytes -= victim.size_bytes
        self._packets -= 1
        self._bytes -= victim.size_bytes
        self.overlimit_drops += 1
        self.record_drop(victim, reason="overlimit")

    def _codel_dequeue(self, queue: _FlowQueue) -> Optional[Packet]:
        """Dequeue from one flow queue, applying the CoDel state machine."""
        now = self.sim.now_ns
        codel = queue.codel
        while queue.packets:
            packet = queue.packets.popleft()
            queue.bytes -= packet.size_bytes
            self._packets -= 1
            self._bytes -= packet.size_bytes
            sojourn = now - packet.enqueue_time_ns
            ok = codel.sojourn_ok(sojourn, now, self._bytes)
            if codel.dropping:
                if ok:
                    codel.dropping = False
                    return packet
                if now >= codel.drop_next_ns:
                    self.codel_drops += 1
                    self.record_drop(packet, reason="codel")
                    codel.count += 1
                    codel.drop_next_ns = control_law(
                        codel.drop_next_ns, codel.interval_ns, codel.count)
                    continue
                return packet
            if not ok and (now - codel.drop_next_ns < codel.interval_ns
                           or now - codel.first_above_time_ns
                           >= codel.interval_ns):
                # Enter dropping state: drop this packet and schedule next.
                self.codel_drops += 1
                self.record_drop(packet, reason="codel")
                codel.dropping = True
                delta = codel.count - codel.lastcount
                if delta > 1 and now - codel.drop_next_ns < 16 * \
                        codel.interval_ns:
                    codel.count = delta
                else:
                    codel.count = 1
                codel.lastcount = codel.count
                codel.drop_next_ns = control_law(now, codel.interval_ns,
                                                 codel.count)
                continue
            return packet
        codel.dropping = False
        return None

    def dequeue(self) -> Optional[Packet]:
        """RFC 8290 two-list DRR schedule."""
        while True:
            if self._new_flows:
                key = self._new_flows[0]
                from_new = True
            elif self._old_flows:
                key = self._old_flows[0]
                from_new = False
            else:
                return None
            queue = self._queues[key]
            if queue.deficit <= 0:
                queue.deficit += self.quantum_bytes
                (self._new_flows if from_new else self._old_flows).popleft()
                queue.is_new = False
                self._old_flows.append(key)
                continue
            packet = self._codel_dequeue(queue)
            if packet is None:
                (self._new_flows if from_new else self._old_flows).popleft()
                if from_new and self._old_flows:
                    # A new queue that empties is given one pass through
                    # the old list before deactivation (RFC 8290 5.3).
                    queue.is_new = False
                    self._old_flows.append(key)
                else:
                    queue.active = False
                continue
            queue.deficit -= packet.size_bytes
            return packet

    def __len__(self) -> int:
        return self._packets

    @property
    def byte_length(self) -> int:
        return self._bytes


def fq_codel_factory(limit_packets: int = 10240,
                     quantum_bytes: int = 1514,
                     target_ns: int = CODEL_TARGET_NS,
                     interval_ns: int = CODEL_INTERVAL_NS,
                     num_queues: Optional[int] = None) -> "QueueFactory":
    """Queue factory installing FQ-CoDel on a port."""
    def factory(spec: PortSpec) -> FqCoDelQueue:
        return FqCoDelQueue(spec.sim, quantum_bytes=quantum_bytes,
                            target_ns=target_ns, interval_ns=interval_ns,
                            limit_packets=limit_packets,
                            num_queues=num_queues)
    return factory
