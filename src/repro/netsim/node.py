"""Network nodes: hosts and routers.

Routers forward packets between links using a static routing table
(installed by :func:`repro.netsim.topology.Network.install_routes`).
Hosts terminate flows: transport endpoints register a per-flow handler
and outgoing packets are routed onto the host's (usually single) uplink.
"""

from __future__ import annotations

import random
from heapq import heappush
from typing import Callable, Dict, List, Optional

from ..analysis import invariants
from ..analysis.invariants import require_int_ns
from .engine import Simulator
from .link import Link
from .packet import FlowId, Packet

PacketHandler = Callable[[Packet], None]


class Node:
    """Base class for anything with ports."""

    def __init__(self, sim: Simulator, node_id: int, name: str = "") -> None:
        self.sim = sim
        self.node_id = node_id
        self.name = name or f"node{node_id}"
        #: Outgoing links, in attachment order.
        self.links: List[Link] = []
        #: Static routing table: destination node id -> egress link.
        self.routes: Dict[int, Link] = {}
        # Fault injection (repro.faults): a frozen node is fail-stop
        # with state retained — it blackholes traffic until restarted,
        # like a crashed forwarding plane that reboots with its tables
        # intact.  One boolean test per received packet.
        self._frozen = False
        #: Packets discarded while frozen (diagnostics / fault summary).
        self.frozen_drops = 0

    @property
    def frozen(self) -> bool:
        """Whether the node is currently fail-stopped."""
        return self._frozen

    def set_frozen(self, frozen: bool) -> None:
        """Freeze (fail-stop) or restart the node."""
        self._frozen = frozen

    def attach_link(self, link: Link) -> None:
        self.links.append(link)

    def route_for(self, dst: int) -> Link:
        try:
            return self.routes[dst]
        except KeyError:
            raise KeyError(
                f"{self.name} has no route to node {dst}") from None

    def forward(self, packet: Packet) -> bool:
        """Send ``packet`` toward its destination.  False if dropped."""
        link = self.routes.get(packet.flow.dst)
        if link is None:
            link = self.route_for(packet.flow.dst)  # Raises, named.
        # link.send(packet), inline: straight onto the egress port.
        accepted = link.queue.enqueue(packet)
        if accepted and not link._busy:
            link._start()
        return accepted

    def receive(self, packet: Packet, from_link: Link) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class Router(Node):
    """A store-and-forward router."""

    def __init__(self, sim: Simulator, node_id: int, name: str = "") -> None:
        super().__init__(sim, node_id, name)
        self.forwarded_packets = 0

    def receive(self, packet: Packet, from_link: Link) -> None:
        if self._frozen:
            self.frozen_drops += 1
            return
        self.forwarded_packets += 1
        # forward() and link.send() inlined: the hop's next frame is
        # the egress queue disc's enqueue, looked up per packet, and an
        # idle port starts on what it accepted.
        link = self.routes.get(packet.flow.dst)
        if link is None:
            link = self.route_for(packet.flow.dst)  # Raises, named.
        if link.queue.enqueue(packet) and not link._busy:
            link._start()


class Host(Node):
    """An end host terminating transport connections."""

    def __init__(self, sim: Simulator, node_id: int, name: str = "") -> None:
        super().__init__(sim, node_id, name)
        self._handlers: Dict[FlowId, PacketHandler] = {}
        self._default_handler: Optional[PacketHandler] = None
        # Send-side jitter draws U{0..span-1}; no rng = jitter off.
        self._jitter_span = 0
        self._jitter_bits = 0
        self._jitter_rng: Optional[random.Random] = None
        self._last_release_ns = 0

    def register_handler(self, flow: FlowId, handler: PacketHandler) -> None:
        """Deliver packets whose flow id equals ``flow`` to ``handler``."""
        if flow in self._handlers:
            raise ValueError(f"duplicate handler for {flow}")
        self._handlers[flow] = handler

    def unregister_handler(self, flow: FlowId) -> None:
        self._handlers.pop(flow, None)

    def set_default_handler(self, handler: PacketHandler) -> None:
        """Handler for packets with no registered flow (diagnostics)."""
        self._default_handler = handler

    def receive(self, packet: Packet, from_link: Link) -> None:
        if self._frozen:
            self.frozen_drops += 1
            return
        handler = self._handlers.get(packet.flow)
        if handler is not None:
            handler(packet)
        elif self._default_handler is not None:
            self._default_handler(packet)
        # Otherwise the packet is silently consumed, like a RST-less
        # closed port.

    def set_tx_jitter(self, jitter_ns: int,
                      seed: Optional[int] = None) -> None:
        """Add random send-side processing delay of U(0, jitter_ns).

        Perfectly deterministic simulations of drop-tail queues suffer
        *phase effects* (Floyd & Jacobson 1991): packet arrivals lock to
        the bottleneck's service clock and one flow absorbs every drop.
        Real hosts have OS timing noise; this reproduces it with a
        per-host seeded RNG.  Delivery order per host is preserved
        (release times are monotonic), so TCP never sees self-inflicted
        reordering.
        """
        span = int(jitter_ns) + 1
        if span <= 1:
            self._jitter_rng = None
            return
        self._jitter_span = span
        self._jitter_bits = span.bit_length()
        self._jitter_rng = random.Random(
            seed if seed is not None else self.node_id)

    def send(self, packet: Packet) -> bool:
        """Inject a locally generated packet into the network."""
        if self._frozen:
            self.frozen_drops += 1
            return False
        rng = self._jitter_rng
        if rng is None:
            return self.forward(packet)
        # rng.randint(0, span - 1), draw for draw: the stdlib's
        # getrandbits rejection loop without its three Python frames.
        getrandbits = rng.getrandbits
        span = self._jitter_span
        bits = self._jitter_bits
        draw = getrandbits(bits)
        while draw >= span:
            draw = getrandbits(bits)
        sim = self.sim
        release_ns = sim.now_ns + draw
        if release_ns < self._last_release_ns:
            release_ns = self._last_release_ns
        self._last_release_ns = release_ns
        # sim.post_at(release_ns, self.forward, packet), inline as Link
        # does: release_ns is never in the past, so only the DEBUG
        # check remains.
        if invariants.DEBUG:
            require_int_ns(release_ns, "post_at() time_ns")
        heappush(sim._heap, (release_ns, sim._next_seq(), self.forward,
                             (packet,)))
        return True
