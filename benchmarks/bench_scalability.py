"""The hybrid backend at the scale of the section 5.5 argument: packet
vs hybrid wall clock and event count on a >=10^4-flow heavy-tailed
dumbbell.  The section 5.5 contrast itself (Cebinae vs AFQ as RTT grows)
is ``cebinae-repro fidelity``'s ``scalability`` targets."""

import time

import pytest

from repro.experiments.runner import Discipline, run_scenario
from repro.experiments.scenarios import ScalePolicy, ScenarioSpec
from repro.netsim.fluid import HybridPolicy

from conftest import bench_duration_s, bench_flows, run_once


def _heavy_tailed_scenario(flows, duration_s):
    """A >=10^4-flow heavy-tailed dumbbell: most flows short-RTT, a
    long tail of progressively slower ones (80/15/4/1 percent split
    over a doubling RTT ladder).  The rate floor that keeps every
    flow above TCP's minimum operating point (~3 MSS/RTT) puts the
    bottleneck in the Gbps range, so this is the regime the paper's
    scalability argument — and the hybrid backend — are about."""
    ladder = ((256.0, 0.80), (384.0, 0.15), (512.0, 0.04),
              (768.0, 0.01))
    counts = [max(1, round(flows * fraction)) for _, fraction in ladder]
    counts[0] += flows - sum(counts)
    # 29000 paper MTUs scale to ~2 buffer packets per flow at every
    # CEBINAE_BENCH_FLOWS setting (the sim-rate floor grows linearly
    # with the flow count, and buffers scale with rate), keeping the
    # packet baseline out of RTO collapse — the fluid tier models
    # steady CCA operation, not loss-synchronised starvation.
    spec = ScenarioSpec(
        name=f"scale-hybrid-{flows}",
        rate_bps=2e9,
        rtts_ms=tuple(rtt for rtt, _ in ladder),
        buffer_mtus=29_000,
        cca_mix=tuple(("cubic", count) for count in counts),
        duration_s=duration_s)
    policy = ScalePolicy(max_flows=flows, max_rate_bps=2e9)
    return policy.apply(spec)


@pytest.mark.benchmark(group="scalability-hybrid")
def test_hybrid_backend_at_scale(benchmark):
    """The hybrid backend's headline claim: >=3x wall-clock speedup
    and >=5x event-count reduction over the packet backend on a
    >=10^4-flow heavy-tailed scenario.

    The packet leg runs untimed (plain ``perf_counter``) so
    pytest-benchmark's JSON records the hybrid leg; both walls and the
    derived ratios land in ``extra_info``.  At reduced scale
    (``CEBINAE_BENCH_FLOWS``) only the shape assertions apply.
    """
    flows = bench_flows()
    duration_s = bench_duration_s(75.0)
    scaled = _heavy_tailed_scenario(flows, duration_s)
    # settle_rtts=10 keeps the packet warmup proportionate to the
    # 768 ms RTT tail; the anchors average over thousands of flows per
    # class, so the shorter probe loses no fidelity here.
    policy = HybridPolicy(settle_rtts=10.0)

    started = time.perf_counter()  # simlint: allow[D103] wall timing
    packet = run_scenario(scaled, Discipline.FIFO)
    packet_wall_s = time.perf_counter() - started  # simlint: allow[D103] wall timing

    hybrid = run_once(benchmark, run_scenario, scaled, Discipline.FIFO,
                      backend="hybrid", hybrid_policy=policy)
    stats = getattr(benchmark, "stats", None)
    hybrid_wall_s = stats.stats.median if stats is not None else 0.0

    summary = hybrid.hybrid_summary or {}
    reduction = packet.events / hybrid.events
    benchmark.extra_info["flows"] = flows
    benchmark.extra_info["packet_events"] = packet.events
    benchmark.extra_info["hybrid_events"] = hybrid.events
    benchmark.extra_info["event_reduction_x"] = round(reduction, 2)
    benchmark.extra_info["packet_wall_s"] = round(packet_wall_s, 2)
    benchmark.extra_info["hybrid_mode"] = summary.get("mode", "")
    benchmark.extra_info["jfi_packet"] = round(packet.jfi, 4)
    benchmark.extra_info["jfi_hybrid"] = round(hybrid.jfi, 4)
    if hybrid_wall_s > 0:
        speedup = packet_wall_s / hybrid_wall_s
        benchmark.extra_info["hybrid_wall_s"] = round(hybrid_wall_s, 2)
        benchmark.extra_info["wall_speedup_x"] = round(speedup, 2)

    # Shape: the handoff happened and the fluid tier tracks fairness.
    # Heavy multiplexing (~2 buffer packets/flow) is the edge of the
    # fluid tier's contract — persistent within-class dispersion that
    # the packet engine slowly mixes stays frozen in the anchors — so
    # the tolerance here is wider than the steady-state 0.05 bound
    # asserted in tests/test_hybrid_backend.py, and the bias is
    # conservative: the hybrid run under-reports fairness (measured
    # 0.79 vs 0.88 at 10^4 flows) rather than idealising it.  See
    # DESIGN.md §14.5.
    assert summary.get("mode") == "fluid"
    assert reduction > 1.0
    assert abs(hybrid.jfi - packet.jfi) < 0.12
    assert hybrid.jfi <= packet.jfi + 0.02
    # Magnitude: the headline numbers, asserted at full scale only.
    if flows >= 10_000 and duration_s >= 75.0:
        assert reduction >= 5.0
        assert hybrid_wall_s > 0 and \
            packet_wall_s / hybrid_wall_s >= 3.0
