"""Tests for the count-min sketch and the AFQ baseline."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.heavyhitter.sketch import CountMinSketch
from repro.netsim.afq import AfqQueue
from repro.netsim.packet import FlowId, Packet


def make_packet(port, size=1500):
    return Packet(flow=FlowId(1, 2, port, 80), size_bytes=size)


class TestCountMinSketch:
    def test_single_key_exact(self):
        sketch = CountMinSketch(rows=2, columns=64)
        sketch.update("a", 100)
        sketch.update("a", 50)
        assert sketch.estimate("a") == 150

    def test_never_underestimates(self):
        sketch = CountMinSketch(rows=2, columns=4)
        truth = {}
        for index in range(40):
            key = index % 10
            sketch.update(key, 10)
            truth[key] = truth.get(key, 0) + 10
        for key, value in truth.items():
            assert sketch.estimate(key) >= value

    def test_collisions_overestimate(self):
        sketch = CountMinSketch(rows=1, columns=1)
        sketch.update("a", 100)
        sketch.update("b", 100)
        assert sketch.estimate("a") == 200  # Forced collision.

    def test_reset(self):
        sketch = CountMinSketch()
        sketch.update("a", 100)
        sketch.reset()
        assert sketch.estimate("a") == 0

    def test_total_added(self):
        sketch = CountMinSketch(rows=2, columns=16)
        sketch.update("a", 100)
        sketch.update("b", 50)
        assert sketch.total_added == 150

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            CountMinSketch(rows=0)

    @given(st.lists(st.tuples(st.integers(0, 20),
                              st.integers(1, 1000)),
                    min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_overestimate_property(self, updates):
        sketch = CountMinSketch(rows=2, columns=8)
        truth = {}
        for key, amount in updates:
            sketch.update(key, amount)
            truth[key] = truth.get(key, 0) + amount
        for key, value in truth.items():
            assert sketch.estimate(key) >= value


class TestAfqScheduling:
    def test_single_flow_fifo(self):
        queue = AfqQueue(num_queues=8, bytes_per_round=3000)
        packets = [make_packet(1) for _ in range(4)]
        for packet in packets:
            assert queue.enqueue(packet)
        assert [queue.dequeue() for _ in range(4)] == packets

    def test_two_flows_interleaved_fairly(self):
        """Byte-fair interleaving: flows alternate round by round."""
        queue = AfqQueue(num_queues=16, bytes_per_round=1500)
        for _ in range(4):
            queue.enqueue(make_packet(1))
        for _ in range(4):
            queue.enqueue(make_packet(2))
        order = [queue.dequeue().flow.src_port for _ in range(8)]
        # Each round serves one packet of each flow.
        for round_index in range(4):
            pair = order[2 * round_index: 2 * round_index + 2]
            assert sorted(pair) == [1, 2]

    def test_horizon_drop(self):
        """A flow burst past nQ rounds is dropped (Equation 1)."""
        queue = AfqQueue(num_queues=4, bytes_per_round=1500)
        results = [queue.enqueue(make_packet(1)) for _ in range(8)]
        assert results[:4] == [True] * 4
        assert not all(results[4:])
        assert queue.horizon_drops >= 1

    def test_more_queues_admit_bigger_bursts(self):
        small = AfqQueue(num_queues=4, bytes_per_round=1500)
        large = AfqQueue(num_queues=32, bytes_per_round=1500)
        small_ok = sum(1 for _ in range(40)
                       if small.enqueue(make_packet(1)))
        large_ok = sum(1 for _ in range(40)
                       if large.enqueue(make_packet(1)))
        assert large_ok > small_ok

    def test_idle_flow_rejoins_current_round(self):
        queue = AfqQueue(num_queues=8, bytes_per_round=1500)
        for _ in range(6):
            queue.enqueue(make_packet(1))
        for _ in range(6):
            assert queue.dequeue() is not None
        # current_round has advanced; a new flow starts fresh.
        assert queue.enqueue(make_packet(2))
        assert queue.dequeue().flow.src_port == 2

    def test_byte_limit(self):
        queue = AfqQueue(num_queues=8, bytes_per_round=3000,
                         limit_bytes=3000)
        assert queue.enqueue(make_packet(1))
        assert queue.enqueue(make_packet(1))
        assert not queue.enqueue(make_packet(1))
        assert queue.buffer_drops == 1

    def test_len_and_bytes(self):
        queue = AfqQueue()
        queue.enqueue(make_packet(1, size=700))
        queue.enqueue(make_packet(2, size=300))
        assert len(queue) == 2
        assert queue.byte_length == 1000

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            AfqQueue(num_queues=1)
        with pytest.raises(ValueError):
            AfqQueue(bytes_per_round=0)


class TestAfqFairness:
    def test_aggressive_flow_capped_by_calendar(self):
        """Offered 10:1, served ~1:1 — the fair-queuing property."""
        queue = AfqQueue(num_queues=8, bytes_per_round=1500)
        admitted = {1: 0, 2: 0}
        for round_index in range(20):
            for _ in range(10):
                if queue.enqueue(make_packet(1)):
                    admitted[1] += 1
            if queue.enqueue(make_packet(2)):
                admitted[2] += 1
            # Drain roughly two packets per iteration (a slow link).
            queue.dequeue()
            queue.dequeue()
        # The aggressive flow is admitted at most ~nQ ahead of fair.
        assert admitted[1] <= admitted[2] + queue.num_queues + 2
