"""Microbenchmarks of the per-event/per-packet hot path.

Not a paper artifact and not a gate: the place to zoom into one layer
that the performance ledger's traced rows (``benchmarks/ledger``) point
at.  Scheduler churn and backlog, cancellation storms, the link
transmit chain, packet construction, the tracing series, LBF admission
and flow-cache updates, under pytest-benchmark's normal repeated
timing.  No baseline, no verdict, no committed artifact.
"""

import pytest

from repro.core.lbf import FlowGroup, LeakyBucketFilter
from repro.core.params import CebinaeParams
from repro.heavyhitter.hashpipe import CebinaeFlowCache
from repro.netsim.engine import MICROSECOND, MILLISECOND, Simulator
from repro.netsim.fq_codel import FqCoDelQueue
from repro.netsim.link import Link
from repro.netsim.node import Host
from repro.netsim.packet import FlowId, MTU_BYTES, Packet
from repro.netsim.queues import DropTailQueue
from repro.netsim.tracing import TimeSeries


def _churn(events=10_000):
    """Self-rescheduling timer chain: the engine's minimal workload."""
    sim = Simulator()
    count = [0]

    def tick():
        count[0] += 1
        if count[0] < events:
            sim.schedule(1000, tick)

    sim.schedule(0, tick)
    sim.run()
    return count[0]


@pytest.mark.benchmark(group="hotpath-scheduler")
def test_heap_scheduler_churn(benchmark):
    assert benchmark(_churn) == 10_000


def _dense_backlog(pending=2_000, rounds=5):
    """Many concurrently pending timers."""
    sim = Simulator()
    fired = [0]

    def fire():
        fired[0] += 1

    for round_index in range(rounds):
        base = round_index * MICROSECOND * pending
        for i in range(pending):
            sim.schedule_at(base + i * MICROSECOND, fire)
    sim.run()
    return fired[0]


@pytest.mark.benchmark(group="hotpath-scheduler")
def test_heap_dense_backlog(benchmark):
    assert benchmark(_dense_backlog) == 10_000


@pytest.mark.benchmark(group="hotpath-scheduler")
def test_cancellation_storm(benchmark):
    """Retransmission-timer pattern: schedule far out, cancel, repeat."""
    def run():
        sim = Simulator()
        alive = [None]
        count = [0]

        def tick():
            if alive[0] is not None:
                alive[0].cancel()
            alive[0] = sim.schedule(1_000_000, lambda: None)
            count[0] += 1
            if count[0] < 5_000:
                sim.schedule(100, tick)

        sim.schedule(0, tick)
        sim.run()
        return count[0]

    assert benchmark(run) == 5_000


def _drive_link(sim, queue, packets=2_000):
    """Push a packet train through one link; count deliveries."""
    src = Host(sim, 0, "src")
    dst = Host(sim, 1, "dst")
    link = Link(sim, src, dst, rate_bps=1e9, delay_ns=1000, queue=queue)
    delivered = [0]

    def count(packet):
        delivered[0] += 1

    dst.set_default_handler(count)
    flow = FlowId(0, 1, 1, 80)
    for i in range(packets):
        link.send(Packet(flow=flow, size_bytes=MTU_BYTES, seq=i))
    sim.run()
    return delivered[0]


@pytest.mark.benchmark(group="hotpath-packet")
def test_link_droptail_transmit_chain(benchmark):
    def run():
        return _drive_link(Simulator(), DropTailQueue(limit_packets=4096))

    assert benchmark(run) == 2_000


@pytest.mark.benchmark(group="hotpath-packet")
def test_link_fq_codel_transmit_chain(benchmark):
    def run():
        sim = Simulator()
        return _drive_link(sim, FqCoDelQueue(sim, limit_packets=4096))

    assert benchmark(run) == 2_000


@pytest.mark.benchmark(group="hotpath-packet")
def test_packet_construction(benchmark):
    """Packet allocation cost: one generated ``__init__`` frame each."""
    flow = FlowId(0, 1, 1, 80)

    def make_1k():
        return [Packet(flow=flow, size_bytes=MTU_BYTES, seq=i)
                for i in range(1000)]

    packets = benchmark(make_1k)
    assert len(packets) == 1000
    assert packets[999].seq == 999 and packets[0].flow == flow
    assert packets[0].size_bytes == MTU_BYTES


@pytest.mark.benchmark(group="hotpath-tracing")
def test_timeseries_add(benchmark):
    series = TimeSeries(bin_width_ns=1_000_000)

    def add_10k():
        add = series.add
        for i in range(10_000):
            add(i * 997, 1.0)

    benchmark(add_10k)
    assert series.total > 0


@pytest.mark.benchmark(group="hotpath-cebinae")
def test_lbf_admission_throughput(benchmark):
    params = CebinaeParams(dt_ns=100 * MILLISECOND,
                           vdt_ns=MILLISECOND, l_ns=MILLISECOND)
    lbf = LeakyBucketFilter(params, 1e9)

    def admit_1k():
        for i in range(1000):
            lbf.admit(FlowGroup.TOP, 1500, i * 10_000)
        lbf.rotate(lbf.base_round_time_ns + params.dt_ns)

    benchmark(admit_1k)


@pytest.mark.benchmark(group="hotpath-cebinae")
def test_flow_cache_update_throughput(benchmark):
    cache = CebinaeFlowCache(stages=2, slots_per_stage=2048)

    def update_1k():
        for i in range(1000):
            cache.update(i % 3000, 1500)

    benchmark(update_1k)
