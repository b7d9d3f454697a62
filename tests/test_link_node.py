"""Tests for links (timing, counters) and nodes (dispatch, routing)."""

import pytest

from repro.analysis import invariants
from repro.netsim.engine import SECOND, Simulator
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

    def test_capacity_bytes_per_sec(self):
        sim = Simulator()
        _, _, link = wire(sim, rate_bps=80e6)
        assert link.capacity_bytes_per_sec == pytest.approx(10e6)


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


class TestMutableAttributes:
    """The queue/rate_bps setters invalidate the memoized fast paths."""

    def test_queue_swap_rebinds_hook_and_waker(self):
        class HookQueue(DropTailQueue):
            def __init__(self):
                super().__init__(limit_packets=10)
                self.seen = []

            def on_transmit(self, packet):
                self.seen.append(packet.size_bytes)

        sim = Simulator()
        _, _, link = wire(sim)  # Plain queue: no on_transmit hook.
        link.send(make_packet(size=400))
        sim.run()
        replacement = HookQueue()
        link.queue = replacement
        assert link.queue is replacement
        link.send(make_packet(size=600))
        sim.run()  # The new queue's waker must restart the link.
        assert replacement.seen == [600]

    def test_rate_change_invalidates_serialization_cache(self):
        sim = Simulator()
        _, _, link = wire(sim, rate_bps=8e6)
        assert link.serialization_delay_ns(1000) == 1_000_000
        link.rate_bps = 16e6
        assert link.rate_bps == 16e6
        assert link.serialization_delay_ns(1000) == 500_000

    def test_rate_setter_rejects_nonpositive(self):
        sim = Simulator()
        _, _, link = wire(sim)
        with pytest.raises(ValueError):
            link.rate_bps = 0


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
