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
        link.send(make_packet(size=1000))
        sim.run()
        # 1000 B at 8 Mbps = 1 ms serialization + 0.5 ms propagation.
        assert arrivals == [1_500_000]

    def test_back_to_back_packets_serialize_sequentially(self):
        sim = Simulator()
        src, dst, link = wire(sim, rate_bps=8e6, delay_ns=0)
        arrivals = []
        dst.set_default_handler(lambda p: arrivals.append(sim.now_ns))
        link.send(make_packet(size=1000))
        link.send(make_packet(size=1000))
        sim.run()
        assert arrivals == [1_000_000, 2_000_000]

    def test_link_idles_then_restarts(self):
        sim = Simulator()
        src, dst, link = wire(sim, rate_bps=8e6, delay_ns=0)
        arrivals = []
        dst.set_default_handler(lambda p: arrivals.append(sim.now_ns))
        link.send(make_packet(size=1000))
        sim.run()
        sim.schedule(1_000_000, link.send, make_packet(size=1000))
        sim.run()
        assert arrivals == [1_000_000, 3_000_000]

    def test_pushes_are_post_entries_with_the_debug_check(self):
        # The link pushes its heap entries itself: the entry post()
        # would make, checked as post() checks it.
        sim = Simulator()
        _, _, link = wire(sim, rate_bps=8e6, delay_ns=500)
        packet = make_packet(size=1000)
        link.send(packet)
        (time_ns, _, callback, args), = sim.scheduler
        assert (time_ns, callback, args) == \
            (1_000_000, link._finish_transmission, (packet,))
        link.delay_ns = 0.5
        with pytest.raises(invariants.InvariantViolation):
            sim.run()

    def test_counters(self):
        sim = Simulator()
        _, _, link = wire(sim)
        link.send(make_packet(size=700))
        link.send(make_packet(size=300))
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
        assert not link.send(make_packet(size=1000))
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
        assert link.send(make_packet(size=1000))
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
        _, _, link = wire(sim, queue=queue)
        link.send(make_packet(size=400))
        link.send(make_packet(size=600))
        sim.run()
        assert queue.seen == [400, 600]


def build_port(kind, sim):
    """A small egress queue disc of ``kind`` that refuses or drops."""
    if kind == "droptail":
        return DropTailQueue(limit_packets=6)
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


class TestStartInvariant:
    """An up, idle link holds an empty queue, whatever the disc.

    The link starts its transmitter only after an accepted enqueue
    finds it idle (or when the wire comes back up); that is enough
    because every disc's ``dequeue`` returns None only when it is
    empty.  Every offered packet is accounted for exactly once.
    """

    @settings(deadline=None, max_examples=40)
    @given(kind=st.sampled_from(["droptail", "fq_codel", "afq",
                                 "cebinae"]),
           steps=STEPS)
    def test_idle_up_link_has_empty_queue_and_packets_conserve(
            self, kind, steps):
        sim = Simulator()
        queue = build_port(kind, sim)
        _, dst, link = wire(sim, rate_bps=8e6, delay_ns=100_000,
                              queue=queue)
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
            (accepted if link.send(packet) else refused).append(
                packet.seq)

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
        if kind == "droptail":
            served = set(delivered)
            assert delivered == [seq for seq in accepted if seq in served]


class TestHostDispatch:
    def test_handler_receives_matching_flow(self):
        sim = Simulator()
        src, dst, link = wire(sim)
        flow = FlowId(0, 1, 5, 80)
        got = []
        dst.register_handler(flow, got.append)
        link.send(Packet(flow=flow, size_bytes=100))
        link.send(Packet(flow=FlowId(0, 1, 6, 80), size_bytes=100))
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
        link.send(Packet(flow=flow, size_bytes=100))
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
        a.send(make_packet())
        sim.run()
        assert len(got) == 1
        assert router.forwarded_packets == 1
