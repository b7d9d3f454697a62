"""Queue disciplines: the base interface and FIFO drop-tail.

Every egress port of every node owns a :class:`QueueDisc`.  The attached
:class:`~repro.netsim.link.Link` pulls packets from it whenever the wire
is idle, and starts itself when an accepted packet finds it idle; the
queue disc is a plain container with no reference back to the link.

The FIFO drop-tail queue here is the paper's baseline (the "FIFO" column
of Table 2), with the buffer configured in MTUs exactly as the paper's
``Buf. [MTU]`` column.
"""

from __future__ import annotations

import collections
from typing import TYPE_CHECKING, Callable, Deque, Optional

from ..obs import bus as obs_bus
from ..obs.events import QueueDrop
from .packet import MTU_BYTES, Packet

if TYPE_CHECKING:
    from ..core.units import Bytes


def _no_clock() -> int:
    """Timestamp source when no trace bus is installed (never traced)."""
    return 0


class QueueDisc:
    """Base class for queue disciplines.

    Subclasses implement :meth:`enqueue` and :meth:`dequeue`.  ``enqueue``
    returns False when the packet is dropped; ``dequeue`` returns None
    only when the queue is empty.  The link relies on that: it goes
    idle only on a None, so an up, idle link always holds an empty
    queue, and an accepted enqueue is all it needs to restart.

    The base class uses ``__slots__`` (as do the built-in disciplines on
    the per-packet path); subclasses are free to declare their own slots
    or fall back to a ``__dict__``.
    """

    __slots__ = ("dropped_packets", "dropped_bytes", "__dict__")

    def __init__(self) -> None:
        self.dropped_packets = 0
        self.dropped_bytes = 0
        # Observability: bound once at construction (trace bus must be
        # installed before the topology is built).  ``obs_name`` is
        # overwritten by the Link that drains it with the port name; the
        # bus clock substitutes for a ``sim`` reference, which queue
        # discs deliberately do not hold.
        self.obs_name = type(self).__name__
        bus = obs_bus.current()
        self._trace_drop = bus.emitter("queue") if bus is not None \
            else None
        self._obs_now: Callable[[], int] = bus.now_ns \
            if bus is not None else _no_clock

    def enqueue(self, packet: Packet) -> bool:
        raise NotImplementedError

    def dequeue(self) -> Optional[Packet]:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    @property
    def byte_length(self) -> Bytes:
        raise NotImplementedError

    def record_drop(self, packet: Packet, reason: str = "tail") -> None:
        """Account a dropped packet (shared bookkeeping for subclasses)."""
        self.dropped_packets += 1
        self.dropped_bytes += packet.size_bytes
        trace = self._trace_drop
        if trace is not None:
            trace(QueueDrop(time_ns=self._obs_now(), port=self.obs_name,
                            reason=reason, flow=str(packet.flow),
                            size_bytes=packet.size_bytes))


class DropTailQueue(QueueDisc):
    """A FIFO queue that drops arriving packets when full.

    The limit may be expressed in packets (MTUs, as in the paper's
    configuration tables) or in bytes; when both are given the stricter
    one applies.
    """

    __slots__ = ("limit_packets", "limit_bytes", "_queue", "_bytes")

    def __init__(self, limit_packets: Optional[int] = None,
                 limit_bytes: Optional[int] = None) -> None:
        super().__init__()
        if limit_packets is None and limit_bytes is None:
            limit_packets = 100  # ns-3 default pfifo depth.
        self.limit_packets = limit_packets
        self.limit_bytes = limit_bytes
        self._queue: Deque[Packet] = collections.deque()
        self._bytes = 0

    @classmethod
    def from_mtu_count(cls, mtus: int) -> "DropTailQueue":
        """Build a queue holding ``mtus`` full-size packets, as Table 2."""
        return cls(limit_packets=None, limit_bytes=mtus * MTU_BYTES)

    def enqueue(self, packet: Packet) -> bool:
        # The admission test is inlined: this runs once per packet per
        # hop and a helper-call frame is measurable at that rate.
        queue = self._queue
        size = packet.size_bytes
        if ((self.limit_packets is not None
             and len(queue) >= self.limit_packets)
                or (self.limit_bytes is not None
                    and self._bytes + size > self.limit_bytes)):
            self.record_drop(packet)
            return False
        queue.append(packet)
        self._bytes += size
        return True

    def dequeue(self) -> Optional[Packet]:
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self._bytes -= packet.size_bytes
        return packet

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def byte_length(self) -> Bytes:
        return self._bytes
