"""Tests for the Cebinae queue disc (data-plane half)."""

import pytest

from repro.core.lbf import FlowGroup
from repro.core.params import CebinaeParams
from repro.core.queue_disc import CebinaeQueueDisc
from repro.netsim.engine import MILLISECOND, Simulator
from repro.netsim.packet import EcnCodepoint, FlowId, Packet


def make_qdisc(rate_bps=8e6, buffer_bytes=90_000, dt_ms=100,
               ecn_marking=True, exact_cache=True):
    sim = Simulator()
    params = CebinaeParams(dt_ns=dt_ms * MILLISECOND,
                           vdt_ns=MILLISECOND, l_ns=MILLISECOND,
                           ecn_marking=ecn_marking,
                           use_exact_cache=exact_cache)
    qdisc = CebinaeQueueDisc(sim, params, rate_bps, buffer_bytes)
    return sim, qdisc


def make_packet(port=1, size=1500, ecn=EcnCodepoint.NOT_ECT):
    return Packet(flow=FlowId(1, 2, port, 80), size_bytes=size, ecn=ecn)


class TestConstruction:
    def test_equation_two_enforced(self):
        sim = Simulator()
        params = CebinaeParams(dt_ns=10 * MILLISECOND,
                               vdt_ns=MILLISECOND, l_ns=MILLISECOND)
        with pytest.raises(ValueError):
            # 90 kB at 8 Mbps needs dT >= 90 ms.
            CebinaeQueueDisc(sim, params, 8e6, 90_000)

    def test_starts_unsaturated(self):
        _, qdisc = make_qdisc()
        assert not qdisc.saturated
        assert qdisc.top_flows == set()


class TestUnsaturatedPhase:
    def test_passthrough_fifo_order(self):
        _, qdisc = make_qdisc()
        packets = [make_packet(port=i) for i in range(5)]
        for packet in packets:
            assert qdisc.enqueue(packet)
        assert [qdisc.dequeue() for _ in range(5)] == packets

    def test_physical_buffer_drops(self):
        _, qdisc = make_qdisc(buffer_bytes=90_000)
        accepted = sum(1 for _ in range(100)
                       if qdisc.enqueue(make_packet()))
        assert accepted == 60  # 90 kB / 1500 B.
        assert qdisc.buffer_drops == 40

    def test_aggregate_filter_eventually_drops_bursts(self):
        """Even unsaturated, a burst beyond two rounds of capacity is
        dropped by the total_bytes filter (drain-time guarantee)."""
        _, qdisc = make_qdisc(rate_bps=8e6, buffer_bytes=400_000,
                              dt_ms=500)
        results = [qdisc.enqueue(make_packet()) for _ in range(300)]
        assert not all(results)
        assert qdisc.lbf_drops + qdisc.buffer_drops > 0


class TestSaturatedPhase:
    def saturated_qdisc(self, top_rate=100_000, bottom_rate=900_000):
        sim, qdisc = make_qdisc()
        qdisc.set_membership({FlowId(1, 2, 1, 80)})
        qdisc.set_saturated(True, top_share=0.1, bottom_share=0.9)
        for queue_index in (0, 1):
            qdisc.lbf.rates[queue_index][FlowGroup.TOP] = top_rate
            qdisc.lbf.rates[queue_index][FlowGroup.BOTTOM] = bottom_rate
        return sim, qdisc

    def test_classification(self):
        """A top-set flow's packet bills the top group, any other flow's
        the bottom group; within allocation both land in headq."""
        _, qdisc = self.saturated_qdisc()
        lbf = qdisc.lbf
        top, bottom = make_packet(port=1), make_packet(port=9)
        assert qdisc.enqueue(top)
        assert lbf.bytes[FlowGroup.TOP] == pytest.approx(1500)
        assert lbf.bytes[FlowGroup.BOTTOM] == 0
        assert qdisc.enqueue(bottom)
        assert lbf.bytes[FlowGroup.TOP] == pytest.approx(1500)
        assert lbf.bytes[FlowGroup.BOTTOM] == pytest.approx(1500)
        assert list(qdisc._queues[lbf.headq]) == [top, bottom]
        assert not qdisc._queues[1 - lbf.headq]

    def test_top_flow_limited_bottom_flow_not(self):
        _, qdisc = self.saturated_qdisc()
        top_ok = sum(1 for _ in range(30)
                     if qdisc.enqueue(make_packet(port=1)))
        assert top_ok < 30  # Past 2 rounds of 10 kB: drops.
        assert qdisc.lbf_drops > 0
        bottom_ok = sum(1 for _ in range(30)
                        if qdisc.enqueue(make_packet(port=9)))
        assert bottom_ok == 30

    def test_delayed_packets_marked_ce(self):
        _, qdisc = self.saturated_qdisc()
        marked = 0
        for _ in range(12):
            packet = make_packet(port=1, ecn=EcnCodepoint.ECT0)
            if qdisc.enqueue(packet) and \
                    packet.ecn is EcnCodepoint.CE:
                marked += 1
        assert marked >= 1
        assert qdisc.ecn_marks == marked

    def test_not_ect_packets_never_marked(self):
        _, qdisc = self.saturated_qdisc()
        for _ in range(12):
            packet = make_packet(port=1, ecn=EcnCodepoint.NOT_ECT)
            qdisc.enqueue(packet)
            assert packet.ecn is EcnCodepoint.NOT_ECT

    def test_ecn_marking_disablable(self):
        sim, qdisc = make_qdisc(ecn_marking=False)
        qdisc.set_membership({FlowId(1, 2, 1, 80)})
        qdisc.set_saturated(True, top_share=0.1, bottom_share=0.9)
        for queue_index in (0, 1):
            qdisc.lbf.rates[queue_index][FlowGroup.TOP] = 100_000
        for _ in range(12):
            packet = make_packet(port=1, ecn=EcnCodepoint.ECT0)
            qdisc.enqueue(packet)
        assert qdisc.ecn_marks == 0


class TestPriorityService:
    def test_headq_served_before_tail(self):
        _, qdisc, tags = self._qdisc_with_split()
        order = []
        while True:
            packet = qdisc.dequeue()
            if packet is None:
                break
            order.append(tags[id(packet)])
        # All head packets come out before any tail packet.
        first_tail = order.index("tail") if "tail" in order else \
            len(order)
        assert all(tag == "tail" for tag in order[first_tail:])

    @staticmethod
    def _qdisc_with_split():
        """A split qdisc and each admitted packet's queue, by identity."""
        sim, qdisc = make_qdisc()
        qdisc.set_membership({FlowId(1, 2, 1, 80)})
        qdisc.set_saturated(True, top_share=0.5, bottom_share=0.5)
        for queue_index in (0, 1):
            qdisc.lbf.rates[queue_index][FlowGroup.TOP] = 100_000
            qdisc.lbf.rates[queue_index][FlowGroup.BOTTOM] = 900_000
        head = qdisc.lbf.headq
        tags = {}
        for _ in range(12):
            packet = make_packet(port=1)
            if qdisc.enqueue(packet):
                in_head = any(queued is packet
                              for queued in qdisc._queues[head])
                tags[id(packet)] = "head" if in_head else "tail"
        return sim, qdisc, tags

    def test_work_conserving_across_queues(self):
        """Tail packets are served when headq is empty (the statistical
        multiplexing the paper prizes)."""
        sim, qdisc, _ = self._qdisc_with_split()
        served = 0
        while qdisc.dequeue() is not None:
            served += 1
        assert served == len(qdisc._queues[0]) + \
            len(qdisc._queues[1]) + served  # Queue now empty.
        assert qdisc.dequeue() is None


class TestRotationAndEgress:
    def test_rotate_returns_retired_queue(self):
        sim, qdisc = make_qdisc()
        assert qdisc.rotate() == 0
        assert qdisc.lbf.headq == 1

    def test_rotation_residue_counted(self):
        sim, qdisc = make_qdisc()
        qdisc.enqueue(make_packet())
        qdisc.rotate()
        assert qdisc.rotation_residue == 1

    def test_on_transmit_updates_port_and_cache(self):
        sim, qdisc = make_qdisc()
        packet = make_packet(port=7, size=1000)
        qdisc.on_transmit(packet)
        assert qdisc.port_tx_bytes == 1000
        assert qdisc.cache.lookup(packet.flow) == 1000

    def test_phase_transitions_bootstrap_and_reset(self):
        sim, qdisc = make_qdisc()
        qdisc.lbf.total_bytes = 8000.0
        qdisc.set_saturated(True, top_share=0.25, bottom_share=0.75)
        assert qdisc.lbf.bytes[FlowGroup.TOP] == pytest.approx(2000)
        assert qdisc.lbf.bytes[FlowGroup.BOTTOM] == pytest.approx(6000)
        qdisc.set_saturated(False)
        assert qdisc.lbf.bytes[FlowGroup.TOP] == 0.0

    def test_byte_length_spans_both_queues(self):
        sim, qdisc = make_qdisc()
        qdisc.enqueue(make_packet(size=1000))
        qdisc.rotate()
        qdisc.enqueue(make_packet(size=500))
        assert qdisc.byte_length == 1500
        assert len(qdisc) == 2
