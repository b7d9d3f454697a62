"""Topology construction and static routing.

:class:`Network` wraps a :class:`~repro.netsim.engine.Simulator` and a
set of nodes/links, computes static hop-count shortest-path routes
(breadth-first, ties to the earliest-added link), and provides the two
topology families used throughout the paper's evaluation: the dumbbell
(single bottleneck, Table 2 and most figures) and the 'Parking Lot'
(multiple bottlenecks, Figure 11).

Queue disciplines are injected per port through a *queue factory* so the
same topology can be instantiated with FIFO, FQ-CoDel, or Cebinae on its
bottleneck ports.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Deque, Dict, List,
                    Optional, Sequence, Tuple)

from .engine import MILLISECOND, Simulator
from .link import Link
from .node import Host, Node, Router
from .queues import DropTailQueue, QueueDisc

if TYPE_CHECKING:
    from ..core.units import BitsPerSec, TimeNs


@dataclass
class PortSpec:
    """Everything a queue factory may need to size itself."""

    sim: Simulator
    rate_bps: BitsPerSec
    delay_ns: TimeNs
    name: str


QueueFactory = Callable[[PortSpec], QueueDisc]


def drop_tail_factory(limit_packets: Optional[int] = None,
                      limit_bytes: Optional[int] = None) -> QueueFactory:
    """A factory producing plain drop-tail FIFOs."""
    def factory(spec: PortSpec) -> QueueDisc:
        return DropTailQueue(limit_packets=limit_packets,
                             limit_bytes=limit_bytes)
    return factory


#: Default queue for uncongested ports (access links, reverse paths).
DEFAULT_ACCESS_QUEUE = drop_tail_factory(limit_packets=1000)


class Network:
    """A simulated network: nodes, links, and static routes."""

    def __init__(self, sim: Optional[Simulator] = None) -> None:
        self.sim = sim if sim is not None else Simulator()
        self.nodes: Dict[int, Node] = {}
        self.links: List[Link] = []
        #: src node id -> {dst node id: link}, both in insertion order.
        self._adjacency: Dict[int, Dict[int, Link]] = {}
        self._next_id = 0

    def _new_id(self) -> int:
        node_id = self._next_id
        self._next_id += 1
        return node_id

    def add_host(self, name: str = "") -> Host:
        host = Host(self.sim, self._new_id(), name)
        self.nodes[host.node_id] = host
        return host

    def add_router(self, name: str = "") -> Router:
        router = Router(self.sim, self._new_id(), name)
        self.nodes[router.node_id] = router
        return router

    def add_link(self, src: Node, dst: Node, rate_bps: BitsPerSec,
                 delay_ns: TimeNs,
                 queue_factory: Optional[QueueFactory] = None) -> Link:
        """Add a unidirectional link with its egress queue."""
        factory = queue_factory or DEFAULT_ACCESS_QUEUE
        spec = PortSpec(sim=self.sim, rate_bps=rate_bps, delay_ns=delay_ns,
                        name=f"{src.name}->{dst.name}")
        link = Link(self.sim, src, dst, rate_bps, delay_ns,
                    factory(spec), name=spec.name)
        src.attach_link(link)
        self.links.append(link)
        self._adjacency.setdefault(src.node_id, {})[dst.node_id] = link
        return link

    def connect(self, a: Node, b: Node, rate_bps: BitsPerSec,
                delay_ns: TimeNs,
                queue_ab: Optional[QueueFactory] = None,
                queue_ba: Optional[QueueFactory] = None
                ) -> Tuple[Link, Link]:
        """Add a bidirectional cable (two independent links)."""
        fwd = self.add_link(a, b, rate_bps, delay_ns, queue_ab)
        rev = self.add_link(b, a, rate_bps, delay_ns, queue_ba)
        return fwd, rev

    def install_routes(self) -> None:
        """Compute hop-count shortest paths and fill routing tables.

        One breadth-first search per source, neighbours in
        link-insertion order; the first discovery of a destination
        fixes its next hop, so equal-cost ties go to the earliest-added
        link (networkx's ``all_pairs_shortest_path`` order, which
        ``tests/test_topology.py`` keeps as the reference).
        """
        adjacency = self._adjacency
        for src_id, node in self.nodes.items():
            routes = node.routes
            reached = {src_id}
            queue: Deque[int] = deque([src_id])
            while queue:
                via = queue.popleft()
                for dst_id, link in adjacency.get(via, {}).items():
                    if dst_id in reached:
                        continue
                    reached.add(dst_id)
                    routes[dst_id] = (link if via == src_id
                                      else routes[via])
                    queue.append(dst_id)

    def dismantle(self) -> None:
        """Cut the references that make a finished network a cycle.

        Nodes list their links and links name their end nodes, so a
        dropped network is freed only by a full collector pass.  After
        this call reference counting frees it; the network forwards
        nothing any more.
        """
        for node in self.nodes.values():
            node.links.clear()
            node.routes.clear()


@dataclass
class Dumbbell:
    """A dumbbell topology: ``n`` senders, one bottleneck, ``n`` receivers.

    Each sender/receiver pair has its own access links whose propagation
    delays are chosen so the pair's round-trip time equals the requested
    value.  The bottleneck queue (left router -> right router) is where
    the queue disc under test is installed.
    """

    network: Network
    senders: List[Host]
    receivers: List[Host]
    left_router: Router
    right_router: Router
    bottleneck: Link
    rtts_ns: List[int] = field(default_factory=list)

    @property
    def sim(self) -> Simulator:
        return self.network.sim


def host_jitter_ns(bottleneck_rate_bps: BitsPerSec) -> TimeNs:
    """Default send-side jitter: one MTU's service time at the
    bottleneck, the scale needed to break drop-tail phase effects."""
    from .packet import MTU_BYTES
    return int(MTU_BYTES * 8 * 1e9 / bottleneck_rate_bps)


def build_dumbbell(rtts_ns: Sequence[TimeNs],
                   bottleneck_rate_bps: BitsPerSec,
                   bottleneck_queue: QueueFactory,
                   access_rate_factor: float = 10.0,
                   bottleneck_delay_ns: int = MILLISECOND // 2,
                   sim: Optional[Simulator] = None,
                   tx_jitter_ns: Optional[int] = None,
                   jitter_seed: int = 0) -> Dumbbell:
    """Build a dumbbell with one sender/receiver pair per RTT entry.

    The RTT budget is split as: bottleneck propagation (fixed,
    default 0.5 ms each way), receiver access (0.5 ms each way), and the
    remainder on the sender access link.  Serialization delays add a
    little on top; the requested value is treated as the base
    (propagation-only) RTT, matching how ns-3 dumbbell scripts are
    usually parameterised.
    """
    network = Network(sim)
    left = network.add_router("L")
    right = network.add_router("R")
    access_rate = bottleneck_rate_bps * access_rate_factor
    receiver_delay_ns = MILLISECOND // 2
    if tx_jitter_ns is None:
        tx_jitter_ns = host_jitter_ns(bottleneck_rate_bps)

    bottleneck, reverse_bottleneck = network.connect(
        left, right, bottleneck_rate_bps, bottleneck_delay_ns,
        queue_ab=bottleneck_queue)
    senders: List[Host] = []
    receivers: List[Host] = []
    for index, rtt_ns in enumerate(rtts_ns):
        one_way = rtt_ns // 2
        sender_delay_ns = one_way - bottleneck_delay_ns - receiver_delay_ns
        if sender_delay_ns < 0:
            raise ValueError(
                f"RTT {rtt_ns}ns too small for the fixed delay budget")
        sender = network.add_host(f"s{index}")
        receiver = network.add_host(f"d{index}")
        if tx_jitter_ns > 0:
            # Seeded per host and per replication so independent runs
            # of the same scenario see different (but reproducible)
            # timing noise.
            sender.set_tx_jitter(tx_jitter_ns,
                                 seed=sender.node_id
                                 + 10_007 * jitter_seed)
            receiver.set_tx_jitter(tx_jitter_ns,
                                   seed=receiver.node_id
                                   + 10_007 * jitter_seed)
        to_left, from_left = network.connect(sender, left, access_rate,
                                             sender_delay_ns)
        to_receiver, from_receiver = network.connect(
            right, receiver, access_rate, receiver_delay_ns)
        senders.append(sender)
        receivers.append(receiver)
        # Install routes directly (O(n) instead of all-pairs shortest
        # paths, which matters for the 1000-flow scenarios).
        sender.routes[receiver.node_id] = to_left
        left.routes[receiver.node_id] = bottleneck
        right.routes[receiver.node_id] = to_receiver
        receiver.routes[sender.node_id] = from_receiver
        right.routes[sender.node_id] = reverse_bottleneck
        left.routes[sender.node_id] = from_left
    return Dumbbell(network=network, senders=senders, receivers=receivers,
                    left_router=left, right_router=right,
                    bottleneck=bottleneck, rtts_ns=list(rtts_ns))


@dataclass
class ParkingLot:
    """The multi-bottleneck 'Parking Lot' topology of Figure 11.

    ``routers[i] -> routers[i+1]`` are the bottleneck links.  *Long*
    flows enter at the first router and exit after the last; *cross*
    group ``i`` enters at ``routers[i]`` and exits at ``routers[i+1]``.
    """

    network: Network
    routers: List[Router]
    bottlenecks: List[Link]
    long_senders: List[Host]
    long_receivers: List[Host]
    cross_senders: List[List[Host]]
    cross_receivers: List[List[Host]]

    @property
    def sim(self) -> Simulator:
        return self.network.sim


def build_parking_lot(num_long_flows: int, cross_flow_counts: Sequence[int],
                      bottleneck_rate_bps: float,
                      bottleneck_queue: QueueFactory,
                      access_delay_ns: int = MILLISECOND,
                      bottleneck_delay_ns: int = 2 * MILLISECOND,
                      access_rate_factor: float = 10.0,
                      sim: Optional[Simulator] = None,
                      tx_jitter_ns: Optional[int] = None,
                      jitter_seed: int = 0) -> ParkingLot:
    """Build a parking lot with one bottleneck per cross-traffic group."""
    if not cross_flow_counts:
        raise ValueError("need at least one bottleneck segment")
    network = Network(sim)
    num_segments = len(cross_flow_counts)
    routers = [network.add_router(f"R{i}") for i in range(num_segments + 1)]
    access_rate = bottleneck_rate_bps * access_rate_factor
    if tx_jitter_ns is None:
        tx_jitter_ns = host_jitter_ns(bottleneck_rate_bps)

    def add_jittered_host(name: str) -> Host:
        host = network.add_host(name)
        if tx_jitter_ns > 0:
            host.set_tx_jitter(tx_jitter_ns,
                               seed=host.node_id
                               + 10_007 * jitter_seed)
        return host

    bottlenecks: List[Link] = []
    for i in range(num_segments):
        fwd, _ = network.connect(routers[i], routers[i + 1],
                                 bottleneck_rate_bps, bottleneck_delay_ns,
                                 queue_ab=bottleneck_queue)
        bottlenecks.append(fwd)

    long_senders: List[Host] = []
    long_receivers: List[Host] = []
    for j in range(num_long_flows):
        sender = add_jittered_host(f"ls{j}")
        receiver = add_jittered_host(f"lr{j}")
        network.connect(sender, routers[0], access_rate, access_delay_ns)
        network.connect(routers[-1], receiver, access_rate, access_delay_ns)
        long_senders.append(sender)
        long_receivers.append(receiver)

    cross_senders: List[List[Host]] = []
    cross_receivers: List[List[Host]] = []
    for i, count in enumerate(cross_flow_counts):
        group_s: List[Host] = []
        group_r: List[Host] = []
        for j in range(count):
            sender = add_jittered_host(f"cs{i}_{j}")
            receiver = add_jittered_host(f"cr{i}_{j}")
            network.connect(sender, routers[i], access_rate,
                            access_delay_ns)
            network.connect(routers[i + 1], receiver, access_rate,
                            access_delay_ns)
            group_s.append(sender)
            group_r.append(receiver)
        cross_senders.append(group_s)
        cross_receivers.append(group_r)

    network.install_routes()
    return ParkingLot(network=network, routers=routers,
                      bottlenecks=bottlenecks, long_senders=long_senders,
                      long_receivers=long_receivers,
                      cross_senders=cross_senders,
                      cross_receivers=cross_receivers)
