"""Tests for topology builders, routing, and tracing utilities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.engine import MILLISECOND, Simulator, seconds
from repro.netsim.packet import FlowId, Packet
from repro.netsim.queues import DropTailQueue
from repro.netsim.topology import (Network, build_dumbbell,
                                   build_parking_lot)
from repro.netsim.tracing import FlowMonitor, TimeSeries


def fifo(spec):
    return DropTailQueue(limit_packets=100)


class TestNetwork:
    def test_route_installation(self):
        network = Network()
        a = network.add_host("a")
        r = network.add_router("r")
        b = network.add_host("b")
        network.connect(a, r, 1e6, 1000)
        network.connect(r, b, 1e6, 1000)
        network.install_routes()
        assert a.routes[b.node_id].dst is r
        assert r.routes[b.node_id].dst is b
        assert b.routes[a.node_id].dst is r

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), size=st.integers(min_value=2, max_value=9))
    def test_routes_equal_networkx_reference(self, data, size):
        """Next hops match ``nx.all_pairs_shortest_path``'s ``path[1]``.

        Dense little digraphs have many equal-cost ties, sparse ones
        unreachable pairs, and repeated (u, v) edges replace the link
        without moving it in the neighbour order.
        """
        nx = pytest.importorskip("networkx")
        pairs = st.tuples(st.integers(0, size - 1),
                          st.integers(0, size - 1)).filter(
                              lambda edge: edge[0] != edge[1])
        edges = data.draw(st.lists(pairs, max_size=3 * size))
        network = Network()
        nodes = [network.add_router(f"n{i}") for i in range(size)]
        reference = nx.DiGraph()
        reference.add_nodes_from(range(size))
        newest = {}
        for u, v in edges:
            newest[u, v] = network.add_link(nodes[u], nodes[v], 1e6, 0)
            reference.add_edge(u, v)
        network.install_routes()
        for src, paths in nx.all_pairs_shortest_path(reference):
            expected = {dst: newest[src, path[1]]
                        for dst, path in paths.items() if dst != src}
            assert nodes[src].routes == expected

    def test_unique_node_ids(self):
        network = Network()
        ids = {network.add_host().node_id for _ in range(10)}
        assert len(ids) == 10


class TestDumbbell:
    def test_structure(self):
        dumbbell = build_dumbbell([seconds(0.02)] * 3, 10e6, fifo)
        assert len(dumbbell.senders) == 3
        assert len(dumbbell.receivers) == 3
        assert dumbbell.bottleneck.rate_bps == 10e6

    def test_end_to_end_delivery(self):
        sim = Simulator()
        dumbbell = build_dumbbell([seconds(0.02)], 10e6, fifo, sim=sim)
        got = []
        flow = FlowId(dumbbell.senders[0].node_id,
                      dumbbell.receivers[0].node_id, 5, 80)
        dumbbell.receivers[0].register_handler(flow, got.append)
        dumbbell.senders[0].send(Packet(flow=flow, size_bytes=1000))
        sim.run()
        assert len(got) == 1

    def test_rtt_budget_respected(self):
        """Propagation RTT (no serialization) matches the request."""
        sim = Simulator()
        rtt_ns = seconds(0.05)
        dumbbell = build_dumbbell([rtt_ns], 10e9, fifo, sim=sim,
                                  access_rate_factor=10,
                                  tx_jitter_ns=0)
        flow = FlowId(dumbbell.senders[0].node_id,
                      dumbbell.receivers[0].node_id, 5, 80)
        echo_flow = flow.reversed()
        times = {}

        def on_data(packet):
            dumbbell.receivers[0].send(
                Packet(flow=echo_flow, size_bytes=0))

        def on_echo(packet):
            times["rtt"] = sim.now_ns

        dumbbell.receivers[0].register_handler(flow, on_data)
        dumbbell.senders[0].register_handler(echo_flow, on_echo)
        dumbbell.senders[0].send(Packet(flow=flow, size_bytes=0))
        sim.run()
        # Zero-byte packets: pure propagation, so RTT is exact.
        assert times["rtt"] == rtt_ns

    def test_too_small_rtt_rejected(self):
        with pytest.raises(ValueError):
            build_dumbbell([seconds(0.001)], 10e6, fifo)

    def test_distinct_rtts_produce_distinct_delays(self):
        dumbbell = build_dumbbell([seconds(0.02), seconds(0.08)],
                                  10e6, fifo)
        assert dumbbell.rtts_ns == [seconds(0.02), seconds(0.08)]


class TestParkingLot:
    def test_structure(self):
        lot = build_parking_lot(2, [1, 2, 1], 10e6, fifo)
        assert len(lot.routers) == 4
        assert len(lot.bottlenecks) == 3
        assert len(lot.long_senders) == 2
        assert [len(group) for group in lot.cross_senders] == [1, 2, 1]

    def test_long_flow_crosses_all_bottlenecks(self):
        sim = Simulator()
        lot = build_parking_lot(1, [1, 1], 10e6, fifo, sim=sim)
        flow = FlowId(lot.long_senders[0].node_id,
                      lot.long_receivers[0].node_id, 5, 80)
        got = []
        lot.long_receivers[0].register_handler(flow, got.append)
        lot.long_senders[0].send(Packet(flow=flow, size_bytes=100))
        sim.run()
        assert len(got) == 1
        for bottleneck in lot.bottlenecks:
            assert bottleneck.tx_packets == 1

    def test_cross_flow_uses_only_its_segment(self):
        sim = Simulator()
        lot = build_parking_lot(1, [1, 1], 10e6, fifo, sim=sim)
        flow = FlowId(lot.cross_senders[1][0].node_id,
                      lot.cross_receivers[1][0].node_id, 5, 80)
        got = []
        lot.cross_receivers[1][0].register_handler(flow, got.append)
        lot.cross_senders[1][0].send(Packet(flow=flow, size_bytes=100))
        sim.run()
        assert len(got) == 1
        assert lot.bottlenecks[0].tx_packets == 0
        assert lot.bottlenecks[1].tx_packets == 1

    def test_requires_a_segment(self):
        with pytest.raises(ValueError):
            build_parking_lot(1, [], 10e6, fifo)


class TestTimeSeries:
    def test_binning(self):
        series = TimeSeries(bin_width_ns=100)
        series.add(50, 1.0)
        series.add(99, 2.0)
        series.add(100, 5.0)
        assert series.bin_value(0) == 3.0
        assert series.bin_value(1) == 5.0

    def test_dense_includes_empty_bins(self):
        series = TimeSeries(bin_width_ns=100)
        series.add(250, 1.0)
        assert series.dense(300) == [0.0, 0.0, 1.0]

    def test_dense_boundary(self):
        series = TimeSeries(bin_width_ns=100)
        series.add(0, 1.0)
        assert series.dense(100) == [1.0]
        assert series.dense(101) == [1.0, 0.0]

    def test_total(self):
        series = TimeSeries(bin_width_ns=100)
        series.add(10, 1.5)
        series.add(500, 2.5)
        assert series.total == 4.0

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            TimeSeries(bin_width_ns=0)


class TestFlowMonitor:
    def test_goodput_accounting(self):
        sim = Simulator()
        monitor = FlowMonitor(sim)
        flow = FlowId(1, 2, 3, 4)
        sim.schedule(seconds(0.5), monitor.on_delivered, flow, 1000)
        sim.schedule(seconds(1.5), monitor.on_delivered, flow, 3000)
        sim.run()
        record = monitor.records[flow]
        assert record.delivered_bytes == 4000
        assert record.goodput_bps(seconds(2)) == pytest.approx(16_000)

    def test_series_binning(self):
        sim = Simulator()
        monitor = FlowMonitor(sim)
        flow = FlowId(1, 2, 3, 4)
        sim.schedule(seconds(0.5), monitor.on_delivered, flow, 1000)
        sim.schedule(seconds(1.5), monitor.on_delivered, flow, 1000)
        sim.run()
        series = monitor.goodput_series_bps(flow, seconds(2))
        assert series == [pytest.approx(8000), pytest.approx(8000)]

    def test_registered_flow_appears_with_zero(self):
        sim = Simulator()
        monitor = FlowMonitor(sim)
        flow = FlowId(1, 2, 3, 4)
        monitor.register(flow)
        assert monitor.goodputs_bps(seconds(1))[flow] == 0.0
