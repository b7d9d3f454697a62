"""Tests for host transmission jitter (phase-effect mitigation)."""

import random

import pytest

from repro.netsim.engine import MICROSECOND, Simulator, seconds
from repro.netsim.link import Link
from repro.netsim.node import Host
from repro.netsim.packet import FlowId, Packet
from repro.netsim.queues import DropTailQueue
from repro.netsim.topology import build_dumbbell, host_jitter_ns


def jittered_pair(sim, jitter_ns, seed=7):
    a = Host(sim, 0, "a")
    b = Host(sim, 1, "b")
    link = Link(sim, a, b, 100e6, 1000,
                DropTailQueue(limit_packets=1000))
    a.attach_link(link)
    a.routes[1] = link
    a.set_tx_jitter(jitter_ns, seed=seed)
    return a, b


def make_packet(seq):
    return Packet(flow=FlowId(0, 1, 5, 80), size_bytes=100, seq=seq)


class TestJitterSemantics:
    def test_order_preserved_within_host(self):
        sim = Simulator()
        a, b = jittered_pair(sim, jitter_ns=100 * MICROSECOND)
        received = []
        b.set_default_handler(lambda p: received.append(p.seq))
        for seq in range(50):
            a.send(make_packet(seq))
        sim.run()
        assert received == list(range(50))

    def test_jitter_delays_bounded(self):
        sim = Simulator()
        jitter = 100 * MICROSECOND
        a, b = jittered_pair(sim, jitter_ns=jitter)
        arrivals = []
        b.set_default_handler(lambda p: arrivals.append(sim.now_ns))
        a.send(make_packet(0))
        sim.run()
        base = 1000 + 8 * 1000  # Propagation + serialization of 100 B.
        assert base <= arrivals[0] <= base + jitter

    def test_deterministic_given_seed(self):
        def run(seed):
            sim = Simulator()
            a, b = jittered_pair(sim, 100 * MICROSECOND, seed=seed)
            arrivals = []
            b.set_default_handler(lambda p: arrivals.append(sim.now_ns))
            for seq in range(20):
                a.send(make_packet(seq))
            sim.run()
            return arrivals

        assert run(3) == run(3)
        assert run(3) != run(4)

    def test_zero_jitter_is_passthrough(self):
        sim = Simulator()
        a, b = jittered_pair(sim, jitter_ns=0)
        sent = []
        b.set_default_handler(lambda p: sent.append(sim.now_ns))
        a.send(make_packet(0))
        sim.run()
        assert sent[0] == 1000 + 8 * 1000

    @pytest.mark.parametrize("jitter_ns", [1, 7, 65535, 65536, 10**6])
    def test_draws_are_randint_draw_for_draw(self, jitter_ns):
        """``Host.send`` inlines the stdlib's rejection loop; the
        oracle is the stdlib itself.  The spans straddle a power of
        two, where the number of rejected draws changes."""
        sim = Simulator()
        a, _ = jittered_pair(sim, jitter_ns, seed=11)
        releases = []
        a.forward = lambda packet: releases.append(sim.now_ns)
        packet = make_packet(0)
        gap = jitter_ns + 1  # Sends far enough apart never to clamp.
        for index in range(10_000):
            sim.post_at(index * gap, a.send, packet)
        sim.run()
        oracle = random.Random(11)
        assert [release - index * gap
                for index, release in enumerate(releases)] == \
            [oracle.randint(0, jitter_ns) for _ in range(10_000)]

    def test_release_entry_is_post_ats(self):
        """``Host.send`` pushes its release entry itself: the key,
        callback and arguments ``post_at`` would push, clamp included
        (sends 10 us apart under 100 us of jitter)."""
        jitter_ns = 100 * MICROSECOND
        sims = [Simulator(), Simulator()]
        hosts = [jittered_pair(sim, jitter_ns, seed=5)[0] for sim in sims]
        oracle = random.Random(5)
        last_release = 0

        def keys(sim):
            return sorted((time_ns, seq, getattr(callback, "__func__",
                                                  callback),
                           tuple(getattr(arg, "seq", type(arg))
                                 for arg in args))
                          for time_ns, seq, callback, args in sim._heap)

        for seq in range(40):
            now = seq * 10 * MICROSECOND
            for sim in sims:
                sim.run(until_ns=now)
            hosts[0].send(make_packet(seq))
            release = max(now + oracle.randint(0, jitter_ns),
                          last_release)
            last_release = release
            sims[1].post_at(release, hosts[1].forward, make_packet(seq))
            assert keys(sims[0]) == keys(sims[1])
        for sim in sims:
            sim.run()
        assert sims[0].now_ns == sims[1].now_ns
        assert sims[0].processed_events == sims[1].processed_events

    def test_default_jitter_scale(self):
        # One MTU at 25 Mbps is 480 us.
        assert host_jitter_ns(25e6) == pytest.approx(480_000, rel=0.01)


class TestPhaseEffectMitigation:
    def test_drops_are_shared_with_jitter(self):
        """The motivating property: with jitter, both flows of a
        two-flow dumbbell see losses, instead of one absorbing all."""
        from repro.tcp.flows import connect_flow
        from repro.netsim.tracing import FlowMonitor

        def loss_split(jitter_ns):
            sim = Simulator()
            dumbbell = build_dumbbell(
                [seconds(0.02), seconds(0.04)], 10e6,
                lambda spec: DropTailQueue.from_mtu_count(40),
                sim=sim, tx_jitter_ns=jitter_ns)
            monitor = FlowMonitor(sim)
            flows = [connect_flow(dumbbell.senders[i],
                                  dumbbell.receivers[i], "newreno",
                                  monitor=monitor,
                                  src_port=10_000 + i)
                     for i in range(2)]
            sim.run(until_ns=seconds(20))
            return [flow.sender.retransmits for flow in flows]

        with_jitter = loss_split(host_jitter_ns(10e6))
        # Both flows experience loss events.
        assert min(with_jitter) > 0
