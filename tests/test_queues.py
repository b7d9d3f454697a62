"""Tests for the base queue disc and drop-tail FIFO."""

import pytest
from hypothesis import given, strategies as st

from repro.netsim.packet import MTU_BYTES, FlowId, Packet
from repro.netsim.queues import DropTailQueue


def make_packet(size=1500, port=1):
    return Packet(flow=FlowId(1, 2, port, 80), size_bytes=size)


class TestDropTailBasics:
    def test_fifo_order(self):
        queue = DropTailQueue(limit_packets=10)
        packets = [make_packet(port=i) for i in range(5)]
        for packet in packets:
            assert queue.enqueue(packet)
        assert [queue.dequeue() for _ in range(5)] == packets

    def test_dequeue_empty_returns_none(self):
        assert DropTailQueue().dequeue() is None

    def test_len_and_byte_length(self):
        queue = DropTailQueue(limit_packets=10)
        queue.enqueue(make_packet(size=1000))
        queue.enqueue(make_packet(size=500))
        assert len(queue) == 2
        assert queue.byte_length == 1500
        queue.dequeue()
        assert len(queue) == 1
        assert queue.byte_length == 500


class TestLimits:
    def test_packet_limit_drops_tail(self):
        queue = DropTailQueue(limit_packets=2)
        assert queue.enqueue(make_packet(port=1))
        assert queue.enqueue(make_packet(port=2))
        assert not queue.enqueue(make_packet(port=3))
        assert queue.dropped_packets == 1
        assert len(queue) == 2

    def test_byte_limit_drops_tail(self):
        queue = DropTailQueue(limit_bytes=2000)
        assert queue.enqueue(make_packet(size=1500))
        assert not queue.enqueue(make_packet(size=1500))
        assert queue.enqueue(make_packet(size=500))
        assert queue.dropped_bytes == 1500

    def test_from_mtu_count(self):
        queue = DropTailQueue.from_mtu_count(3)
        for _ in range(3):
            assert queue.enqueue(make_packet(size=MTU_BYTES))
        assert not queue.enqueue(make_packet(size=1))

    def test_stricter_limit_applies(self):
        queue = DropTailQueue(limit_packets=100, limit_bytes=1500)
        assert queue.enqueue(make_packet(size=1500))
        assert not queue.enqueue(make_packet(size=64))

    def test_default_limit_exists(self):
        queue = DropTailQueue()
        assert queue.limit_packets == 100


class TestConservationProperty:
    @given(st.lists(st.integers(min_value=64, max_value=9000),
                    min_size=1, max_size=100))
    def test_bytes_conserved(self, sizes):
        queue = DropTailQueue(limit_bytes=20_000)
        accepted = 0
        for size in sizes:
            if queue.enqueue(make_packet(size=size)):
                accepted += size
        drained = 0
        while True:
            packet = queue.dequeue()
            if packet is None:
                break
            drained += packet.size_bytes
        assert drained == accepted
        assert queue.dropped_bytes == sum(sizes) - accepted
