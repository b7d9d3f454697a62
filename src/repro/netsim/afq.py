"""AFQ: Approximate Fair Queueing on calendar queues (NSDI '18).

The scalability comparison point of the paper's sections 2 and 5.5.
AFQ emulates fair queuing with ``nQ`` FIFO queues treated as a calendar:
each represents one *round* of ``BpR`` (bytes-per-round) service per
flow.  A count-min sketch tracks every flow's bytes; an arriving packet
is stamped with the round its flow would finish in under ideal fair
queuing (``bytes_sent / BpR``) and enqueued into the corresponding
future queue.  Packets landing more than ``nQ`` rounds ahead are
dropped — the Equation (1) constraint::

    buffer_req  <=  BpR x nQ

which is why AFQ's fidelity degrades as flows, RTTs, or burstiness grow
while Cebinae's two queues do not (its enforcement is per-group and
eventual rather than per-packet).
"""

from __future__ import annotations

import collections
from typing import TYPE_CHECKING, Deque, List, Optional

from ..heavyhitter.sketch import CountMinSketch
from .packet import Packet
from .queues import QueueDisc
from .topology import PortSpec, QueueFactory

if TYPE_CHECKING:
    from ..core.units import Bytes


class AfqQueue(QueueDisc):
    """Calendar-queue approximate fair queuing."""

    def __init__(self, num_queues: int = 32,
                 bytes_per_round: Bytes = 2 * 1514,
                 sketch_rows: int = 2, sketch_columns: int = 2048,
                 limit_bytes: Optional[Bytes] = None,
                 seed: int = 1) -> None:
        super().__init__()
        if num_queues < 2:
            raise ValueError("AFQ needs at least two calendar queues")
        if bytes_per_round <= 0:
            raise ValueError("BpR must be positive")
        self.num_queues = num_queues
        self.bytes_per_round = bytes_per_round
        self.limit_bytes = limit_bytes
        self.sketch = CountMinSketch(rows=sketch_rows,
                                     columns=sketch_columns, seed=seed)
        self._queues: List[Deque[Packet]] = [
            collections.deque() for _ in range(num_queues)]
        self._bytes = 0
        self._packets = 0
        self.current_round = 0
        self.horizon_drops = 0
        self.buffer_drops = 0

    def enqueue(self, packet: Packet) -> bool:
        if (self.limit_bytes is not None
                and self._bytes + packet.size_bytes > self.limit_bytes):
            self.buffer_drops += 1
            self.record_drop(packet, reason="buffer")
            return False
        # The bid uses the flow's bytes *before* this packet (its first
        # byte's position in the ideal fair-queuing schedule); the
        # sketch update itself returns the post-increment estimate.
        sent_bytes = self.sketch.update(packet.flow, packet.size_bytes)
        bid_round = (sent_bytes - packet.size_bytes) \
            // self.bytes_per_round
        if bid_round < self.current_round:
            # The flow was idle: it re-enters at the current round
            # (AFQ advances a returning flow's sketch count so it does
            # not bank credit from its idle period).
            bid_round = self.current_round
        if bid_round >= self.current_round + self.num_queues:
            # Beyond the calendar horizon: Equation (1) violated for
            # this flow; the packet cannot be scheduled fairly.
            self.horizon_drops += 1
            self.record_drop(packet, reason="horizon")
            return False
        self._queues[bid_round % self.num_queues].append(packet)
        self._bytes += packet.size_bytes
        self._packets += 1
        return True

    def dequeue(self) -> Optional[Packet]:
        if self._packets == 0:
            return None
        # Serve the current round; when it empties, rotate forward to
        # the next non-empty round (the priority rotation of the
        # hardware design).
        for _ in range(self.num_queues):
            queue = self._queues[self.current_round % self.num_queues]
            if queue:
                packet = queue.popleft()
                self._bytes -= packet.size_bytes
                self._packets -= 1
                return packet
            self.current_round += 1
        return None

    def __len__(self) -> int:
        return self._packets

    @property
    def byte_length(self) -> Bytes:
        return self._bytes


def afq_factory(num_queues: int = 32,
                bytes_per_round: Bytes = 2 * 1514,
                limit_bytes: Optional[int] = None,
                sketch_columns: int = 2048) -> "QueueFactory":
    """Queue factory installing AFQ on a port."""
    def factory(spec: PortSpec) -> AfqQueue:
        return AfqQueue(num_queues=num_queues,
                        bytes_per_round=bytes_per_round,
                        limit_bytes=limit_bytes,
                        sketch_columns=sketch_columns)
    return factory
