"""Per-figure experiment declarations (Figures 1, 7, 8, 9, 10, 11, 12).

Each ``figureN`` function returns the :class:`RunSpec` points the figure
plots and runs nothing; :func:`~repro.experiments.parallel.run_grid`
executes any such list and :mod:`~repro.experiments.report` prints it.
The ``figureN_spec`` builders are the scenarios the trace CLI and the
smoke tools share with the figures.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence

from ..fairness.maxmin import FlowSpec, water_filling
from .parallel import RunSpec, grid
from .runner import Discipline
from .scenarios import (DEFAULT_POLICY, ParkingLotSpec, ScalePolicy,
                        ScenarioSpec)

#: The two-way figures compare the status quo with Cebinae.
TWO_WAY = (Discipline.FIFO, Discipline.CEBINAE)

#: The JFIs the paper's text states, by scenario name.
PAPER_JFI = {
    "figure7": {Discipline.FIFO: 0.093, Discipline.CEBINAE: 0.985},
    "figure8a": {Discipline.FIFO: 0.774, Discipline.CEBINAE: 0.936},
    "figure8b": {Discipline.FIFO: 0.956, Discipline.CEBINAE: 0.964},
    "figure11": {Discipline.FIFO: 0.852, Discipline.CEBINAE: 0.978},
}


def figure1_spec(duration_s: float) -> ScenarioSpec:
    """Two NewReno flows with different RTTs."""
    return ScenarioSpec(name="figure1", rate_bps=100e6,
                        rtts_ms=(20.4, 40.0), buffer_mtus=350,
                        cca_mix=(("newreno", 1), ("newreno", 1)),
                        duration_s=duration_s)


def figure7_spec(duration_s: float) -> ScenarioSpec:
    """16 Vegas vs 1 NewReno (NewReno takes ~80% under FIFO)."""
    return ScenarioSpec(name="figure7", rate_bps=100e6, rtts_ms=(100,),
                        buffer_mtus=850,
                        cca_mix=(("vegas", 16), ("newreno", 1)),
                        duration_s=duration_s)


def figure9_spec(rtt_ms: float, duration_s: float) -> ScenarioSpec:
    """4 Cubic at 256 ms vs 4 Cubic at ``rtt_ms``, 3 MB buffer."""
    return ScenarioSpec(name=f"figure9_rtt{int(rtt_ms)}",
                        rate_bps=400e6, rtts_ms=(256.0, float(rtt_ms)),
                        buffer_mtus=2000,
                        cca_mix=(("cubic", 4), ("cubic", 4)),
                        duration_s=duration_s)


def figure11_spec(duration_s: float) -> ParkingLotSpec:
    """8 NewReno long flows vs Bic/Vegas/Cubic cross traffic on three
    100 Mbps bottlenecks (scaled 4x).

    Delays and buffer keep dT comparable to the long flows' RTT: at a
    naive scale dT dwarfs the base RTT, the three LBF hops inflate the
    long flows' RTT ~10x, and their AIMD growth — hence the whole
    convergence toward max-min — stalls (DESIGN.md, scaling law 4)."""
    return ParkingLotSpec(
        name="figure11", rate_bps=25e6, buffer_mtus=40, num_long=8,
        long_cca="newreno",
        cross_mix=(("bic", 2), ("vegas", 8), ("cubic", 4)),
        duration_s=duration_s, access_delay_ms=8.0,
        bottleneck_delay_ms=4.0, tau=0.06)


def parking_lot_ideal(spec: ParkingLotSpec) -> Dict[str, float]:
    """The max-min ideal rate per flow label, in the runner's flow order.

    Long flows cross every segment, cross group ``i`` only its own.
    """
    segments = range(len(spec.cross_mix))
    flows = [FlowSpec(flow_id=f"long{j}", path=tuple(segments))
             for j in range(spec.num_long)]
    for i, (cca, count) in enumerate(spec.cross_mix):
        flows.extend(FlowSpec(flow_id=f"{cca}{j}", path=(i,))
                     for j in range(count))
    ideal = water_filling({i: spec.rate_bps for i in segments}, flows)
    return {flow.flow_id: ideal[flow.flow_id] for flow in flows}


def figure1(policy: ScalePolicy = DEFAULT_POLICY,
            duration_s: float = 50.0) -> List[RunSpec]:
    """Goodput time series per flow under FIFO and Cebinae."""
    return grid([policy.apply(figure1_spec(duration_s))], TWO_WAY,
                collect_series=True, record_history=True)


def figure7(policy: ScalePolicy = DEFAULT_POLICY,
            duration_s: float = 60.0) -> List[RunSpec]:
    """Per-flow goodputs, 16 Vegas vs 1 NewReno."""
    return grid([policy.apply(figure7_spec(duration_s))], TWO_WAY)


def figure8(policy: ScalePolicy = DEFAULT_POLICY,
            duration_s: float = 60.0) -> List[RunSpec]:
    """Goodput CDFs over 1 Gbps: (a) 128 NewReno vs 2 BBR, then (b) 128
    NewReno vs 4 Vegas (starvation behind a high aggregate JFI)."""
    part_a = ScenarioSpec(name="figure8a", rate_bps=1000e6,
                          rtts_ms=(100,), buffer_mtus=8350,
                          cca_mix=(("newreno", 128), ("bbr", 2)),
                          duration_s=duration_s)
    part_b = ScenarioSpec(name="figure8b", rate_bps=1000e6,
                          rtts_ms=(64, 100), buffer_mtus=8500,
                          cca_mix=(("newreno", 128), ("vegas", 4)),
                          duration_s=duration_s)
    return grid([policy.apply(part_a), policy.apply(part_b)], TWO_WAY)


def figure9(rtts_ms: Sequence[float] = (16, 32, 64, 128, 256),
            policy: ScalePolicy = DEFAULT_POLICY,
            duration_s: float = 60.0) -> List[RunSpec]:
    """:func:`figure9_spec` at each swept RTT, three disciplines each."""
    return grid([policy.apply(figure9_spec(rtt, duration_s))
                 for rtt in rtts_ms])


def figure10(policy: ScalePolicy = DEFAULT_POLICY,
             duration_s: float = 50.0,
             num_vegas: int = 32) -> List[RunSpec]:
    """Per-second JFI under churn: Vegas flows reach steady state;
    NewReno joins at ~5 s and Cubic at ~25 s, degrading fairness that
    Cebinae restores."""
    spec = ScenarioSpec(name="figure10", rate_bps=100e6, rtts_ms=(50,),
                        buffer_mtus=420,
                        cca_mix=(("vegas", num_vegas), ("newreno", 1),
                                 ("cubic", 1)),
                        duration_s=duration_s,
                        start_times_s=tuple([0.0] * num_vegas
                                            + [5.0, 25.0]))
    return grid([policy.apply(spec)], collect_series=True)


def figure11(duration_s: float = 60.0) -> List[RunSpec]:
    """The parking lot under FIFO and Cebinae; the report sets the
    goodputs against :func:`parking_lot_ideal`."""
    return grid([figure11_spec(duration_s).scaled(DEFAULT_POLICY)],
                TWO_WAY)


def figure12(thresholds: Sequence[float] = (0.01, 0.02, 0.05, 0.1,
                                            0.2, 0.5, 1.0),
             policy: ScalePolicy = DEFAULT_POLICY,
             duration_s: float = 40.0) -> List[RunSpec]:
    """16 NewReno vs 1 Cubic: the FIFO and FQ baselines, then Cebinae
    at δp = δf = τ for each threshold.

    The sweep sets the thresholds directly (it *is* the paper's x-axis)
    rather than applying the scaling rule to them.
    """
    spec = ScenarioSpec(name="figure12", rate_bps=100e6, rtts_ms=(50,),
                        buffer_mtus=420,
                        cca_mix=(("newreno", 16), ("cubic", 1)),
                        duration_s=duration_s)
    scaled = policy.apply(spec)
    swept = [replace(scaled, cebinae=replace(
        scaled.cebinae, tau=threshold, delta_port=threshold,
        delta_flow=threshold, min_bottom_rate_fraction=0.0))
        for threshold in thresholds]
    return (grid([scaled], (Discipline.FIFO, Discipline.FQ))
            + grid(swept, (Discipline.CEBINAE,)))
