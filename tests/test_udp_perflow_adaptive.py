"""Tests for the UDP app, per-flow Cebinae, and the adaptive-τ
supervisor."""

import pytest

from repro.core.adaptive import (AdaptiveTauConfig,
                                 AdaptiveTauController,
                                 adaptive_cebinae_factory)
from repro.core.control_plane import CebinaeControlPlane
from repro.core.lbf import FlowGroup, LbfDecision
from repro.core.params import CebinaeParams
from repro.core.perflow import (PerFlowCebinaeControlPlane,
                                PerFlowCebinaeQueueDisc,
                                perflow_cebinae_factory)
from repro.core.queue_disc import CebinaeQueueDisc
from repro.netsim.engine import MILLISECOND, SECOND, Simulator, seconds
from repro.netsim.packet import FlowId, Packet
from repro.netsim.queues import DropTailQueue
from repro.netsim.topology import build_dumbbell
from repro.netsim.tracing import FlowMonitor
from repro.tcp.flows import connect_flow
from repro.tcp.udp import UdpSender, UdpSink, connect_udp_flow


class TestUdpApp:
    def test_cbr_rate_is_exact(self):
        sim = Simulator()
        dumbbell = build_dumbbell([seconds(0.02)], 10e6,
                                  lambda spec: DropTailQueue(
                                      limit_packets=100),
                                  sim=sim, tx_jitter_ns=0)
        monitor = FlowMonitor(sim)
        sender = connect_udp_flow(dumbbell.senders[0],
                                  dumbbell.receivers[0], 2e6,
                                  monitor=monitor)
        sim.run(until_ns=seconds(10))
        goodput = monitor.goodputs_bps(seconds(10))[sender.flow]
        # Payload goodput is wire rate minus header overhead.
        assert goodput == pytest.approx(2e6 * 1448 / 1500, rel=0.02)

    def test_udp_ignores_congestion(self):
        """A blind flow keeps sending into a dead link."""
        sim = Simulator()
        dumbbell = build_dumbbell([seconds(0.02)], 10e6,
                                  lambda spec: DropTailQueue(
                                      limit_packets=2),
                                  sim=sim, tx_jitter_ns=0)
        sender = connect_udp_flow(dumbbell.senders[0],
                                  dumbbell.receivers[0], 20e6)
        sim.run(until_ns=seconds(2))
        # Offered 20 Mbps into a 10 Mbps link: half is lost, the
        # sender does not slow down.
        assert sender.sent_bytes * 8 / 2 == pytest.approx(20e6,
                                                          rel=0.05)

    def test_stop(self):
        sim = Simulator()
        dumbbell = build_dumbbell([seconds(0.02)], 10e6,
                                  lambda spec: DropTailQueue(
                                      limit_packets=10),
                                  sim=sim, tx_jitter_ns=0)
        sender = connect_udp_flow(dumbbell.senders[0],
                                  dumbbell.receivers[0], 2e6)
        sim.run(until_ns=seconds(1))
        sender.stop()
        sent = sender.sent_packets
        sim.run(until_ns=seconds(2))
        assert sender.sent_packets == sent

    def test_invalid_parameters(self):
        sim = Simulator()
        dumbbell = build_dumbbell([seconds(0.02)], 10e6,
                                  lambda spec: DropTailQueue(),
                                  sim=sim)
        with pytest.raises(ValueError):
            UdpSender(dumbbell.senders[0], FlowId(0, 1, 1, 2,
                                                  "udp"), 0)

    def test_cebinae_caps_blind_udp(self):
        """The paper's section 4 note: a blind UDP flow is delayed and
        dropped by the Cebinae router, releasing headroom for
        responsive flows."""
        from repro.core.control_plane import cebinae_factory
        params = CebinaeParams(dt_ns=60 * MILLISECOND,
                               vdt_ns=MILLISECOND, l_ns=MILLISECOND,
                               tau=0.05, delta_port=0.10,
                               delta_flow=0.05, use_exact_cache=True,
                               min_bottom_rate_fraction=0.02)
        sim = Simulator()
        dumbbell = build_dumbbell(
            [seconds(0.03)] * 2, 10e6,
            cebinae_factory(params=params, buffer_mtus=40), sim=sim)
        monitor = FlowMonitor(sim)
        udp = connect_udp_flow(dumbbell.senders[0],
                               dumbbell.receivers[0], 9.5e6,
                               monitor=monitor)
        tcp = connect_flow(dumbbell.senders[1], dumbbell.receivers[1],
                           "newreno", monitor=monitor, src_port=10_001)
        sim.run(until_ns=seconds(30))
        goodputs = monitor.goodputs_bps(seconds(30))
        udp_rate = goodputs[udp.flow]
        tcp_rate = goodputs[tcp.flow_id]
        # The UDP flow offered 95%; Cebinae delays and drops it well
        # below that.  Note the paper's caveat (section 4): a blind
        # flow still wastes bandwidth upstream, and full protection
        # needs admission control — Cebinae only guarantees the
        # responsive flow is not starved of the released headroom.
        assert udp_rate < 0.80 * 10e6
        assert tcp_rate > 0.02 * 10e6


def _saturate_perflow(two_rates=(70_000, 25_000)):
    """A per-flow qdisc with two ⊤ flows at different allowances."""
    sim = Simulator()
    params = CebinaeParams(dt_ns=100 * MILLISECOND,
                           vdt_ns=MILLISECOND, l_ns=MILLISECOND,
                           use_exact_cache=True)
    qdisc = PerFlowCebinaeQueueDisc(sim, params, 8e6, 90_000)
    flow_a = FlowId(1, 2, 1, 80)
    flow_b = FlowId(1, 2, 2, 80)
    qdisc.set_membership({flow_a, flow_b})
    qdisc.set_saturated(True, top_share=0.5, bottom_share=0.5)
    for queue_index in (0, 1):
        qdisc.flow_rates[queue_index] = {flow_a: two_rates[0],
                                         flow_b: two_rates[1]}
        qdisc.lbf.rates[queue_index][FlowGroup.BOTTOM] = 900_000
    return sim, qdisc, flow_a, flow_b


def packet(flow, size=1500):
    return Packet(flow=flow, size_bytes=size)


class TestPerFlowQueueDisc:
    def test_individual_allowances(self):
        sim, qdisc, flow_a, flow_b = _saturate_perflow()
        a_head = 0
        while True:
            before = qdisc.lbf_delays
            if not qdisc.enqueue(packet(flow_a)):
                break
            if qdisc.lbf_delays > before:
                break
            a_head += 1
        b_head = 0
        while True:
            before = qdisc.lbf_delays
            if not qdisc.enqueue(packet(flow_b)):
                break
            if qdisc.lbf_delays > before:
                break
            b_head += 1
        # 7 kB vs 2.5 kB per round: ~4 packets vs ~1.
        assert a_head > b_head

    def test_bottom_traffic_unaffected(self):
        sim, qdisc, flow_a, flow_b = _saturate_perflow()
        other = FlowId(9, 9, 9, 9)
        accepted = sum(1 for _ in range(30)
                       if qdisc.enqueue(packet(other)))
        assert accepted == 30

    def test_rotation_decays_per_flow_buckets(self):
        sim, qdisc, flow_a, flow_b = _saturate_perflow()
        for _ in range(10):
            qdisc.enqueue(packet(flow_a))
        level = qdisc.flow_bytes[flow_a]
        qdisc.rotate()
        assert qdisc.flow_bytes[flow_a] == pytest.approx(
            max(level - 7000, 0))

    def test_flow_rate_change_guard(self):
        sim, qdisc, flow_a, flow_b = _saturate_perflow()
        with pytest.raises(ValueError):
            qdisc.set_flow_rates(qdisc.lbf.headq, {})


class TestPerFlowControlPlane:
    def test_rate_table_is_keyed_in_sorted_flow_order(self):
        # select_bottlenecked returns a set; the rate table built from
        # it is copied into the qdisc and iterated, so its key order
        # must not be the set's hash order (PYTHONHASHSEED-dependent:
        # a FlowId holds a string).  Eight equal flows are all in ⊤.
        sim = Simulator()
        params = CebinaeParams(dt_ns=100 * MILLISECOND,
                               vdt_ns=MILLISECOND, l_ns=MILLISECOND,
                               use_exact_cache=True)
        qdisc = PerFlowCebinaeQueueDisc(sim, params, 8e6, 90_000)
        agent = PerFlowCebinaeControlPlane(sim, qdisc)
        for port in range(8):
            qdisc.cache.update(FlowId(1, 2, 5000 + port, 80), 12_500)
        qdisc.port_tx_bytes = 8 * 12_500  # One full window at 8 Mbps.
        agent._recompute()
        table = agent._pending_flow_rates
        assert len(table) == 8
        assert list(table) == sorted(table)


class TestPerFlowEndToEnd:
    def test_two_unequal_aggressors_equalised(self):
        """Per-flow tracking's advantage: two ⊤ flows with unequal
        rates are each squeezed toward fairness individually."""
        agents = []
        sim = Simulator()
        factory = perflow_cebinae_factory(
            params=CebinaeParams(dt_ns=80 * MILLISECOND,
                                 vdt_ns=MILLISECOND, l_ns=MILLISECOND,
                                 tau=0.06, delta_port=0.12,
                                 delta_flow=0.5,
                                 use_exact_cache=True,
                                 min_bottom_rate_fraction=0.02),
            buffer_mtus=40, agents=agents)
        dumbbell = build_dumbbell([seconds(0.02), seconds(0.04),
                                   seconds(0.04)], 15e6, factory,
                                  sim=sim)
        monitor = FlowMonitor(sim)
        flows = [connect_flow(dumbbell.senders[i],
                              dumbbell.receivers[i], cca,
                              monitor=monitor, src_port=10_000 + i)
                 for i, cca in enumerate(["cubic", "newreno",
                                          "vegas"])]
        sim.run(until_ns=seconds(40))
        goodputs = [monitor.goodputs_bps(seconds(40))[f.flow_id]
                    for f in flows]
        assert isinstance(dumbbell.bottleneck.queue,
                          PerFlowCebinaeQueueDisc)
        assert isinstance(agents[0], PerFlowCebinaeControlPlane)
        # No starvation and reasonable overall fairness.
        total = sum(goodputs)
        assert total > 0.6 * 15e6
        assert min(goodputs) > 0.05 * total


class TestAdaptiveTau:
    def make_agent(self):
        sim = Simulator()
        params = CebinaeParams(dt_ns=50 * MILLISECOND,
                               vdt_ns=MILLISECOND, l_ns=MILLISECOND,
                               tau=0.04, use_exact_cache=True)
        qdisc = CebinaeQueueDisc(sim, params, 8e6, 45_000)
        agent = CebinaeControlPlane(sim, qdisc, record_history=True)
        return sim, qdisc, agent

    def test_requires_history(self):
        sim, qdisc, _ = self.make_agent()
        silent = CebinaeControlPlane(sim, qdisc, record_history=False)
        with pytest.raises(ValueError):
            AdaptiveTauController(sim, silent)

    def test_oscillation_damps_tau(self):
        sim, qdisc, agent = self.make_agent()
        controller = AdaptiveTauController(
            sim, agent, AdaptiveTauConfig(window_recomputes=4))

        # Alternate saturated/idle windows: heavy flapping.
        def feed():
            window = int(sim.now_ns // (100 * MILLISECOND))
            if window % 2 == 0:
                qdisc.on_transmit(Packet(flow=FlowId(1, 2, 1, 80),
                                         size_bytes=1500))
                qdisc.port_tx_bytes += 50_000 - 1500
            sim.schedule(25 * MILLISECOND, feed)

        feed()
        sim.run(until_ns=4 * SECOND)
        assert controller.tau < 0.04
        assert any(reason == "oscillation"
                   for _, _, reason in controller.adjustments)

    def test_stagnation_raises_tau(self):
        sim, qdisc, agent = self.make_agent()
        controller = AdaptiveTauController(
            sim, agent, AdaptiveTauConfig(window_recomputes=4))

        # Constant saturation with one dominant flow (jumbo packets
        # stand in for a window's worth of traffic).
        def feed():
            qdisc.on_transmit(Packet(flow=FlowId(1, 2, 1, 80),
                                     size_bytes=48_000))
            qdisc.on_transmit(Packet(flow=FlowId(1, 2, 2, 80),
                                     size_bytes=2_000))
            sim.schedule(50 * MILLISECOND, feed)

        feed()
        sim.run(until_ns=4 * SECOND)
        assert controller.tau > 0.04
        assert any(reason == "stagnation"
                   for _, _, reason in controller.adjustments)

    def test_tau_respects_bounds(self):
        sim, qdisc, agent = self.make_agent()
        config = AdaptiveTauConfig(min_tau=0.02, max_tau=0.05,
                                   window_recomputes=2)
        controller = AdaptiveTauController(sim, agent, config)
        for _ in range(50):
            controller._set_tau(controller.tau * 2, "test")
        assert controller.tau <= 0.05
        for _ in range(50):
            controller._set_tau(controller.tau / 2, "test")
        assert controller.tau >= 0.02

    def test_factory_wires_controller(self):
        from repro.netsim.topology import PortSpec
        sim = Simulator()
        controllers = []
        factory = adaptive_cebinae_factory(buffer_mtus=40,
                                           controllers=controllers)
        qdisc = factory(PortSpec(sim=sim, rate_bps=8e6, delay_ns=0,
                                 name="p"))
        assert isinstance(qdisc, CebinaeQueueDisc)
        assert len(controllers) == 1
