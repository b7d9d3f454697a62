"""Point-to-point links.

A :class:`Link` is unidirectional: it models the transmitter of one port
(serialization at ``rate_bps``) plus wire propagation (``delay_ns``).
Bidirectional cables are simply two links.  The link owns the egress
queue disc of its port and pulls from it whenever the transmitter is
idle, which is the same service model as ns-3's
``PointToPointNetDevice`` + traffic-control-layer queue.  The link alone
decides when its transmitter starts: after an accepted enqueue finds it
idle, and when the wire comes back up.  The queue disc is a plain
container and holds no reference back to the link.  A link's queue and
rate are fixed when it is built.

A link schedules two events per packet (end of serialization, arrival
at ``dst``) and pushes both straight onto the simulator's heap: the
``(time_ns, seq, callback, args)`` entry and DEBUG check that
:meth:`Simulator.post <repro.netsim.engine.Simulator.post>` would make,
without its frame.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Callable, Dict, Optional

from ..analysis import invariants
from ..analysis.invariants import require_int_ns, unwrap
from ..obs import bus as obs_bus
from ..obs.events import PacketTx
from .engine import SECOND, Simulator
from .packet import Packet
from .queues import QueueDisc

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.units import BitsPerSec, Bytes, TimeNs
    from ..faults.schedule import LinkFaultState
    from .node import Node


class Link:
    """A unidirectional link from ``src`` to ``dst``."""

    def __init__(self, sim: Simulator, src: "Node", dst: "Node",
                 rate_bps: BitsPerSec, delay_ns: TimeNs,
                 queue: QueueDisc,
                 name: str = "") -> None:
        if delay_ns < 0:
            raise ValueError("propagation delay cannot be negative")
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.delay_ns = int(delay_ns)
        self.name = name or f"{src.name}->{dst.name}"
        self._busy = False
        #: Link rate in bits per second, fixed for the link's life.
        self.rate_bps = float(rate_bps)
        #: The egress queue disc this link drains.  Drops it records
        #: are attributed to this port.
        self.queue = queue
        queue.obs_name = self.name
        # Transmit-side counters (Cebinae's "egress pipeline" also hooks
        # transmission; see CebinaeQueueDisc.on_transmit).  The hook is
        # a property of the queue's type, so it is resolved once here
        # rather than with a getattr per transmitted packet.
        self.tx_packets = 0
        self.tx_bytes = 0
        self._on_transmit: Optional[Callable[[Packet], None]] = getattr(
            queue, "on_transmit", None)
        # Serialization delay depends only on packet size, and traffic
        # is dominated by a handful of sizes (MTU, MSS boundaries, pure
        # ACKs), so the round() per packet memoises into a tiny dict.
        self._ser_delay_cache: Dict[int, int] = {}
        # Fault-injection state (repro.faults).  The hot path pays one
        # boolean test per transmitted packet (``_impaired``), folded
        # from the two slow-moving conditions below so the common
        # healthy case stays a single attribute read.
        self._up = True
        self._fault_state: Optional["LinkFaultState"] = None
        self._impaired = False
        # Observability: the packet-topic emitter is bound once here
        # (None when tracing is off), so the per-packet cost of the
        # disabled path is one attribute test in _finish_transmission.
        self._trace_pkt = obs_bus.emitter_for("packet")

    def serialization_delay_ns(self, size_bytes: Bytes) -> TimeNs:
        """Time to clock ``size_bytes`` onto the wire."""
        cached = self._ser_delay_cache.get(size_bytes)
        if cached is None:
            cached = int(round(size_bytes * 8 * SECOND / self.rate_bps))
            self._ser_delay_cache[size_bytes] = cached
        return cached

    # -- fault injection (repro.faults) -----------------------------------
    def set_up(self, up: bool) -> None:
        """Cut or restore the wire.

        While down, the egress queue keeps accepting packets (a real
        port buffers during a flap; overflow becomes ordinary drop-tail
        loss), the transmitter pauses, and packets finishing
        serialization are cut.  Restoring the link kicks the
        transmitter, so the backlog drains as a burst — exactly the
        perturbation a fairness mechanism must absorb.
        """
        if up == self._up:
            return
        self._up = up
        self._impaired = (self._fault_state is not None) or not up
        if up and not self._busy:
            self._start()

    @property
    def fault_state(self) -> Optional["LinkFaultState"]:
        """The installed stochastic fault state, if any."""
        return self._fault_state

    def set_fault_state(self, state: Optional["LinkFaultState"]) -> None:
        """Install (or clear) per-packet stochastic impairments."""
        self._fault_state = state
        self._impaired = (state is not None) or not self._up

    def send(self, packet: Packet) -> bool:
        """Offer a packet to this port.  Returns False if dropped.

        An accepted packet that finds the transmitter idle starts it.
        ``Router.receive`` and ``Node.forward`` make this call inline,
        one frame less per hop; it stays for every other sender.
        """
        accepted = self.queue.enqueue(packet)
        if accepted and not self._busy:
            self._start()
        return accepted

    def _start(self) -> None:
        """An idle transmitter starts on the queue's head packet.

        Called on an idle link only: after an accepted enqueue, and by
        ``set_up(True)``.  The transmitter stays paused while the link
        is down.
        """
        if not self._up:
            return
        packet = self.queue.dequeue()
        if packet is None:
            return
        self._busy = True
        try:
            tx_time = self._ser_delay_cache[packet.size_bytes]
        except KeyError:
            tx_time = self.serialization_delay_ns(packet.size_bytes)
        # sim.post(tx_time, self._finish_transmission, packet), inline.
        if invariants.DEBUG:
            require_int_ns(tx_time, "post() delay_ns")
        sim = self.sim
        heappush(sim._heap, (sim.now_ns + tx_time, sim._next_seq(),
                             self._finish_transmission, (packet,)))

    def _finish_transmission(self, packet: Packet) -> None:
        self.tx_packets += 1
        self.tx_bytes += packet.size_bytes
        hook = self._on_transmit
        if hook is not None:
            hook(packet)
        trace = self._trace_pkt
        if trace is not None:
            trace(PacketTx(time_ns=self.sim.now_ns, port=self.name,
                           flow=str(packet.flow),
                           ptype=packet.ptype.value,
                           size_bytes=packet.size_bytes,
                           seq=packet.seq, ack=packet.ack,
                           ecn=packet.ecn.name))
        sim = self.sim
        debug = invariants.DEBUG
        if self._impaired:
            self._deliver_impaired(packet)
        else:
            # sim.post(self.delay_ns, self.dst.receive, packet, self).
            if debug:
                require_int_ns(self.delay_ns, "post() delay_ns")
            heappush(sim._heap, (sim.now_ns + self.delay_ns,
                                 sim._next_seq(), self.dst.receive,
                                 (packet, self)))
        # The next packet, if any, goes straight onto the wire: the
        # start's work, inline, since this runs once per transmission.
        if self._up:
            packet = self.queue.dequeue()
            if packet is not None:
                try:
                    tx_time = self._ser_delay_cache[packet.size_bytes]
                except KeyError:
                    tx_time = self.serialization_delay_ns(
                        packet.size_bytes)
                if debug:
                    require_int_ns(tx_time, "post() delay_ns")
                heappush(sim._heap, (sim.now_ns + tx_time,
                                     sim._next_seq(),
                                     self._finish_transmission, (packet,)))
                return
        self._busy = False

    def _deliver_impaired(self, packet: Packet) -> None:
        """Off-hot-path delivery when the link is down or fault-laden."""
        if not self._up:
            # The wire went down while this packet was serializing.
            if self._fault_state is not None:
                self._fault_state.down_drops += 1
            return
        state = unwrap(self._fault_state,
                       "impaired link without fault state")
        fate = state.draw(self.sim.now_ns)
        if fate < 0:
            return  # Lost (-1) or corrupted (-2); counters in draw().
        self.sim.post(self.delay_ns + fate, self.dst.receive, packet,
                      self)

    def __repr__(self) -> str:
        return (f"Link({self.name}, {self.rate_bps / 1e6:.1f} Mbps, "
                f"{self.delay_ns / 1e6:.3f} ms)")
