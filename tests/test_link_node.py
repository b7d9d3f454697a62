"""Tests for links (timing, counters) and nodes (dispatch, routing)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import invariants
from repro.core.params import CebinaeParams
from repro.core.queue_disc import CebinaeQueueDisc
from repro.faults.schedule import LinkFaultState
from repro.faults.spec import FaultSpec
from repro.netsim.afq import AfqQueue
from repro.netsim.engine import MILLISECOND, SECOND, Simulator
from repro.netsim.fq_codel import FqCoDelQueue
from repro.netsim.link import Link
from repro.netsim.node import Host, Router
from repro.netsim.packet import FlowId, Packet
from repro.netsim.queues import DropTailQueue


def wire(sim, rate_bps=8e6, delay_ns=1000, queue=None):
    """A host pair connected by one unidirectional link."""
    src = Host(sim, 0, "src")
    dst = Host(sim, 1, "dst")
    if queue is None:
        queue = DropTailQueue(limit_packets=100)
    link = Link(sim, src, dst, rate_bps, delay_ns, queue)
    src.attach_link(link)
    src.routes[1] = link
    return src, dst, link


def make_packet(size=1000, dst=1):
    return Packet(flow=FlowId(0, dst, 5, 80), size_bytes=size)


class TestLinkTiming:
    def test_serialization_delay(self):
        sim = Simulator()
        _, _, link = wire(sim, rate_bps=8e6)  # 1 byte per microsecond.
        assert link.serialization_delay_ns(1000) == 1_000_000

    def test_arrival_time_is_serialization_plus_propagation(self):
        sim = Simulator()
        src, dst, link = wire(sim, rate_bps=8e6, delay_ns=500_000)
        arrivals = []
        dst.set_default_handler(lambda p: arrivals.append(sim.now_ns))
        src.forward(make_packet(size=1000))
        sim.run()
        # 1000 B at 8 Mbps = 1 ms serialization + 0.5 ms propagation.
        assert arrivals == [1_500_000]

    def test_back_to_back_packets_serialize_sequentially(self):
        sim = Simulator()
        src, dst, link = wire(sim, rate_bps=8e6, delay_ns=0)
        arrivals = []
        dst.set_default_handler(lambda p: arrivals.append(sim.now_ns))
        src.forward(make_packet(size=1000))
        src.forward(make_packet(size=1000))
        sim.run()
        assert arrivals == [1_000_000, 2_000_000]

    def test_link_idles_then_restarts(self):
        sim = Simulator()
        src, dst, link = wire(sim, rate_bps=8e6, delay_ns=0)
        arrivals = []
        dst.set_default_handler(lambda p: arrivals.append(sim.now_ns))
        src.forward(make_packet(size=1000))
        sim.run()
        sim.schedule(1_000_000, src.forward, make_packet(size=1000))
        sim.run()
        assert arrivals == [1_000_000, 3_000_000]

    def test_pushes_are_post_entries_with_the_debug_check(self):
        # The link pushes its heap entries itself: the entry post()
        # would make, checked as post() checks it.
        sim = Simulator()
        src, _, link = wire(sim, rate_bps=8e6, delay_ns=500)
        packet = make_packet(size=1000)
        src.forward(packet)
        (time_ns, _, callback, args), = sim.scheduler
        assert (time_ns, callback, args) == \
            (1_000_000, link._finish_transmission, (packet,))
        link.delay_ns = 0.5
        with pytest.raises(invariants.InvariantViolation):
            sim.run()

    def test_counters(self):
        sim = Simulator()
        src, _, link = wire(sim)
        src.forward(make_packet(size=700))
        src.forward(make_packet(size=300))
        sim.run()
        assert link.tx_packets == 2
        assert link.tx_bytes == 1000

    def test_invalid_parameters_rejected(self):
        sim = Simulator()
        src = Host(sim, 0)
        dst = Host(sim, 1)
        with pytest.raises(ValueError):
            Link(sim, src, dst, 0, 0, DropTailQueue())
        with pytest.raises(ValueError):
            Link(sim, src, dst, 1e6, -1, DropTailQueue())

    def test_refused_packet_does_not_start_an_idle_link(self):
        sim = Simulator()
        src, dst, link = wire(sim, queue=DropTailQueue(limit_bytes=500))
        arrivals = []
        dst.set_default_handler(arrivals.append)
        for _ in range(2):
            assert not src.forward(make_packet(size=1000))
        assert not link._busy and len(sim.scheduler) == 0
        sim.run()
        assert arrivals == [] and link.tx_packets == 0
        assert link.queue.dropped_packets == 2

    def test_send_on_a_down_link_waits_for_set_up(self):
        sim = Simulator()
        src, dst, link = wire(sim, rate_bps=8e6, delay_ns=0)
        arrivals = []
        dst.set_default_handler(lambda p: arrivals.append(sim.now_ns))
        link.set_up(False)
        for _ in range(2):
            assert src.forward(make_packet(size=1000))
        assert not link._busy and len(sim.scheduler) == 0
        sim.run()
        assert arrivals == [] and len(link.queue) == 2
        sim.schedule(5_000_000, link.set_up, True)
        sim.run()
        assert arrivals == [6_000_000, 7_000_000]
        assert len(link.queue) == 0


class TestOnTransmitHook:
    def test_hook_called_per_transmission(self):
        class HookQueue(DropTailQueue):
            def __init__(self):
                super().__init__(limit_packets=10)
                self.seen = []

            def on_transmit(self, packet):
                self.seen.append(packet.size_bytes)

        sim = Simulator()
        queue = HookQueue()
        src, _, link = wire(sim, queue=queue)
        src.forward(make_packet(size=400))
        src.forward(make_packet(size=600))
        sim.run()
        assert queue.seen == [400, 600]


def build_port(kind, sim):
    """A small egress queue disc of ``kind`` that refuses or drops."""
    if kind == "droptail":
        return DropTailQueue(limit_packets=6)
    if kind == "droptail_bytes":
        # Below the largest packet: an empty port refuses some.
        return DropTailQueue(limit_packets=None, limit_bytes=1000)
    if kind == "fq_codel":
        # Tight CoDel so dequeue-time drops happen within a few ms.
        return FqCoDelQueue(sim, target_ns=MILLISECOND,
                            interval_ns=4 * MILLISECOND, limit_packets=6)
    if kind == "afq":
        return AfqQueue(num_queues=4, bytes_per_round=1500,
                        limit_bytes=8000)
    params = CebinaeParams(dt_ns=20 * MILLISECOND, vdt_ns=MILLISECOND,
                           l_ns=MILLISECOND, use_exact_cache=True)
    qdisc = CebinaeQueueDisc(sim, params, 8e6, 8000)
    qdisc.set_saturated(True)
    qdisc.set_membership({FlowId(0, 1, 0, 80)})
    return qdisc


# One step: a burst of (flow, size) arrivals posted ``offset_us`` into
# the step, an optional wire toggle, and how long the step runs.
STEPS = st.lists(st.tuples(
    st.lists(st.tuples(st.integers(0, 2), st.integers(64, 1500)),
             max_size=8),
    st.integers(0, 3000),
    st.sampled_from([None, False, True]),
    st.integers(0, 6000)), min_size=1, max_size=12)


class _PlainDropTail(DropTailQueue):
    """A trivial subclass: its port takes the general enqueue path."""


#: A packet enters a port as a host forwards it, as a router's
#: inbound link delivers it, or as a jittered host's send releases it.
ENTRIES = ["host_forward", "router_delivery", "jittered_host_send"]


class TestStartInvariant:
    """An up, idle link holds an empty queue, whatever the disc.

    The link starts its transmitter only after an accepted enqueue
    finds it idle (or when the wire comes back up); that is enough
    because every disc's ``dequeue`` returns None only when it is
    empty.  Every offered packet is accounted for exactly once,
    whether a host forwards it, a router takes it as its inbound link
    delivers it, or a jittered host's send stage releases it; all go
    through ``Node.forward``, where an exact drop-tail port cuts
    through, which must leave what a general port leaves.
    """

    @staticmethod
    def node_for(entry, sim):
        """The node whose port ``entry`` offers into."""
        if entry == "router_delivery":
            return Router(sim, 0, "src")
        src = Host(sim, 0, "src")
        if entry == "jittered_host_send":
            src.set_tx_jitter(50_000, seed=1)
        return src

    @staticmethod
    def entry_of(entry, sim, src):
        """The callable a packet enters ``src``'s port through."""
        if entry == "host_forward":
            return src.forward
        if entry == "jittered_host_send":
            # The send stage accepts every packet; the port's verdict
            # comes at the release, as for the others' drops.
            return src.send
        inbound = Link(sim, Host(sim, 2, "feed"), src, 8e6, 0,
                       DropTailQueue())
        return inbound._deliver

    @staticmethod
    def drive(kind, steps, entry, queue=None):
        """Run ``steps`` into one port; per-chunk snapshots."""
        sim = Simulator()
        if queue is None:
            queue = build_port(kind, sim)
        src = TestStartInvariant.node_for(entry, sim)
        dst = Host(sim, 1, "dst")
        link = Link(sim, src, dst, 8e6, 100_000, queue)
        src.attach_link(link)
        src.routes[1] = link
        enter = TestStartInvariant.entry_of(entry, sim, src)
        # Installed as FaultSchedule installs it, so cut packets count.
        state = LinkFaultState(FaultSpec(), seed=1, name=link.name)
        link.set_fault_state(state)
        delivered, dropped, refused, offered = [], [], [], []
        accepted = []  # In arrival order at the port.
        dst.set_default_handler(lambda p: delivered.append(p.seq))
        record_drop = queue.record_drop

        def counted_drop(packet, reason="tail"):
            dropped.append(packet.seq)
            record_drop(packet, reason)
        queue.record_drop = counted_drop

        def offer(packet):
            (accepted if enter(packet) else refused).append(packet.seq)

        def args_key(args):
            return tuple(arg.seq if isinstance(arg, Packet) else
                         arg if isinstance(arg, bool) else type(arg)
                         for arg in args)

        snapshots = []
        for burst, offset_us, toggle, length_us in steps:
            start = sim.now_ns
            for flow, size in burst:
                packet = Packet(flow=FlowId(0, 1, flow, 80),
                                size_bytes=size, seq=len(offered))
                offered.append(packet.seq)
                sim.post_at(start + offset_us * 1000, offer, packet)
            if toggle is not None:
                sim.post_at(start + offset_us * 1000 // 2, link.set_up,
                            toggle)
            sim.run(until_ns=start + length_us * 1000)
            if link._up and not link._busy:
                assert len(queue) == 0
            heap = sorted(
                (time_ns, seq, getattr(callback, "__name__", None),
                 args_key(args) if callback is not None else None)
                for time_ns, seq, callback, args in sim._heap)
            snapshots.append((heap, link.tx_packets, link.tx_bytes,
                              queue.dropped_packets, queue.dropped_bytes,
                              list(delivered)))
        sim.run()
        queued = []
        packet = queue.dequeue()
        while packet is not None:
            queued.append(packet.seq)
            packet = queue.dequeue()
        counted = delivered + dropped + queued
        assert len(set(counted)) == len(counted)
        assert set(refused) <= set(dropped)
        assert len(counted) + state.down_drops == len(offered)
        if isinstance(queue, DropTailQueue):
            served = set(delivered)
            assert delivered == [seq for seq in accepted if seq in served]
        return snapshots

    # Parametrised rather than drawn: hypothesis reuses its examples,
    # and a drawn (kind, entry) pair can go unvisited for a whole run.
    @pytest.mark.parametrize("kind", ["droptail", "droptail_bytes",
                                      "fq_codel", "afq", "cebinae"])
    @pytest.mark.parametrize("entry", ENTRIES)
    @settings(deadline=None, max_examples=3)
    @given(steps=STEPS)
    def test_idle_up_link_has_empty_queue_and_packets_conserve(
            self, kind, entry, steps):
        self.drive(kind, steps, entry)

    @pytest.mark.parametrize("kind", ["droptail", "droptail_bytes"])
    @pytest.mark.parametrize("entry", ENTRIES)
    @settings(deadline=None, max_examples=25)
    @given(steps=STEPS)
    def test_cut_through_leaves_what_a_general_port_leaves(
            self, kind, entry, steps):
        """The heap, counters, drops and deliveries of an exact
        drop-tail port equal, chunk by chunk, those of a twin whose
        queue is a trivial subclass (it enqueues and dequeues every
        packet)."""
        exact = build_port(kind, Simulator())
        twin = _PlainDropTail(limit_packets=exact.limit_packets,
                              limit_bytes=exact.limit_bytes)
        assert self.drive(kind, steps, entry) == \
            self.drive(kind, steps, entry, queue=twin)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_an_idle_drop_tail_port_cuts_through(self, entry):
        sim = Simulator()
        src = self.node_for(entry, sim)
        dst = Host(sim, 1, "dst")
        queue = DropTailQueue(limit_bytes=1000)
        link = Link(sim, src, dst, 8e6, 0, queue)
        src.routes[1] = link
        enter = self.entry_of(entry, sim, src)
        calls = []
        queue.enqueue = lambda packet: calls.append(packet) or False

        def offer(size):
            packet = make_packet(size=size)
            enter(packet)
            if entry == "jittered_host_send":
                # Run to the release, where the packet meets the port.
                sim.run(until_ns=src._last_release_ns)
            return packet

        packet = offer(1000)
        assert calls == [] and link._busy
        (time_ns, _, callback, args), = sim.scheduler
        assert (time_ns, callback, args) == \
            (sim.now_ns + 1_000_000, link._finish_transmission, (packet,))
        # Busy, past the byte limit, or down: the general path.
        offer(100)
        link._busy = False
        offer(1001)
        link.set_up(False)
        offer(200)
        assert [p.size_bytes for p in calls] == [100, 1001, 200]
        assert len(sim.scheduler) == 1
        # A subclass never cuts through.
        plain = _PlainDropTail(limit_bytes=1000)
        assert Link(sim, src, dst, 8e6, 0, plain)._fifo is None


class TestHostDispatch:
    def test_handler_receives_matching_flow(self):
        sim = Simulator()
        src, dst, link = wire(sim)
        flow = FlowId(0, 1, 5, 80)
        got = []
        dst.register_handler(flow, got.append)
        src.forward(Packet(flow=flow, size_bytes=100))
        src.forward(Packet(flow=FlowId(0, 1, 6, 80), size_bytes=100))
        sim.run()
        assert len(got) == 1 and got[0].flow == flow

    def test_duplicate_handler_rejected(self):
        sim = Simulator()
        host = Host(sim, 0)
        flow = FlowId(0, 1, 5, 80)
        host.register_handler(flow, lambda p: None)
        with pytest.raises(ValueError):
            host.register_handler(flow, lambda p: None)

    def test_unregister_then_default_handler(self):
        sim = Simulator()
        src, dst, link = wire(sim)
        flow = FlowId(0, 1, 5, 80)
        got, fallback = [], []
        dst.register_handler(flow, got.append)
        dst.unregister_handler(flow)
        dst.set_default_handler(fallback.append)
        src.forward(Packet(flow=flow, size_bytes=100))
        sim.run()
        assert got == [] and len(fallback) == 1

    def test_missing_route_raises(self):
        sim = Simulator()
        host = Host(sim, 0)
        with pytest.raises(KeyError):
            host.forward(make_packet(dst=9))


class TestRouterForwarding:
    def test_router_forwards_along_route(self):
        sim = Simulator()
        router = Router(sim, 10, "r")
        a = Host(sim, 0, "a")
        b = Host(sim, 1, "b")
        link_in = Link(sim, a, router, 8e6, 0,
                       DropTailQueue(limit_packets=10))
        link_out = Link(sim, router, b, 8e6, 0,
                        DropTailQueue(limit_packets=10))
        a.routes[1] = link_in
        router.routes[1] = link_out
        got = []
        b.set_default_handler(got.append)
        # The inbound link delivers straight into forward().
        assert link_in._deliver == router.forward
        a.send(make_packet())
        sim.run()
        assert len(got) == 1
        assert link_in.tx_packets == link_out.tx_packets == 1
