"""Microbenchmarks of the per-event/per-packet hot path.

``bench_simulator.py`` tracks the cost of the coarse building blocks;
this family zooms into the inner loop that PR 3 rebuilt: scheduler
churn and backlog, cancellation storms, the link transmit chain,
queue-disc enqueue/dequeue cycles, and the tracing sinks.  Run
with ``--benchmark-json=BENCH_hotpath.json`` (as the CI perf-smoke job
does) to track the trajectory per PR.
"""

import pytest

from repro.experiments.runner import Discipline, run_scenario
from repro.experiments.scenarios import ScalePolicy, ScenarioSpec
from repro.netsim.engine import MICROSECOND, Simulator
from repro.netsim.fq_codel import FqCoDelQueue
from repro.netsim.link import Link
from repro.netsim.node import Host
from repro.netsim.packet import FlowId, MTU_BYTES, Packet
from repro.netsim.queues import DropTailQueue
from repro.netsim.tracing import TimeSeries

from conftest import bench_duration_s, run_once


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
    """Packet allocation cost (meta dict is now lazy)."""
    flow = FlowId(0, 1, 1, 80)

    def make_1k():
        return [Packet(flow=flow, size_bytes=MTU_BYTES, seq=i)
                for i in range(1000)]

    packets = benchmark(make_1k)
    assert len(packets) == 1000 and not packets[0].has_meta


@pytest.mark.benchmark(group="hotpath-tracing")
def test_timeseries_add(benchmark):
    series = TimeSeries(bin_width_ns=1_000_000)

    def add_10k():
        add = series.add
        for i in range(10_000):
            add(i * 997, 1.0)

    benchmark(add_10k)
    assert series.total > 0


#: Packet-leg event counts, read by the hybrid leg of the same session
#: to report the event-count reduction (keyed by scenario name).
_BACKEND_EVENTS = {}


def _backend_scenario():
    """A warmup-plus-steady-state scenario where the hybrid backend
    has room to hand off: 30 simulated seconds against a ~9 s warmup
    (``CEBINAE_BENCH_DURATION=60`` doubles the fluid fraction and
    roughly doubles the reported reduction)."""
    spec = ScenarioSpec(name="bench-backend", rate_bps=5e6,
                        rtts_ms=(128.0, 256.0), buffer_mtus=40,
                        cca_mix=(("cubic", 4), ("cubic", 4)),
                        duration_s=bench_duration_s(30.0))
    return ScalePolicy().apply(spec)


@pytest.mark.benchmark(group="hotpath-backend")
def test_scenario_backend(benchmark, bench_backend):
    """One dumbbell scenario under the selected backend(s).

    ``extra_info`` carries the numbers BENCH_hybrid.json exists for:
    events, events/sec, sim/wall ratio, and (on the hybrid leg, when
    the packet leg ran in the same session) the event-count reduction.
    """
    scaled = _backend_scenario()
    result = run_once(benchmark, run_scenario, scaled, Discipline.FIFO,
                      backend=bench_backend)
    assert result.events > 0
    stats = getattr(benchmark, "stats", None)
    wall_s = stats.stats.median if stats is not None else 0.0
    benchmark.extra_info["backend"] = bench_backend
    benchmark.extra_info["events"] = result.events
    if wall_s > 0:
        benchmark.extra_info["events_per_sec"] = \
            round(result.events / wall_s)
        benchmark.extra_info["sim_wall_ratio"] = \
            round(result.duration_s / wall_s, 2)
    _BACKEND_EVENTS[scaled.spec.name] = \
        dict(_BACKEND_EVENTS.get(scaled.spec.name, {}),
             **{bench_backend: result.events})
    if bench_backend == "hybrid":
        summary = result.hybrid_summary or {}
        benchmark.extra_info["hybrid_mode"] = summary.get("mode", "")
        benchmark.extra_info["hybrid_reason"] = \
            summary.get("reason", "")
        assert summary.get("mode") == "fluid", \
            "scenario too short for a fluid handoff"
        packet_events = \
            _BACKEND_EVENTS[scaled.spec.name].get("packet")
        if packet_events:
            benchmark.extra_info["event_reduction_x"] = \
                round(packet_events / result.events, 2)
