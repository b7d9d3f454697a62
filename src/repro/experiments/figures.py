"""Per-figure experiment definitions (Figures 1, 7, 8, 9, 10, 11, 12).

Each ``figureN`` function builds the paper's scenario, runs it under
the relevant disciplines, and returns a small result object holding the
series/values the figure plots, plus the paper's headline numbers where
the text states them.  The ``figureN_spec`` builders are the one place
those scenarios are typed; the trace CLI and the smoke tools import
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..fairness.maxmin import FlowSpec, water_filling
from ..fairness.metrics import normalized_jfi
from .parallel import RunSpec, require, run_many
from .runner import Discipline, ScenarioResult, run_comparison
from .scenarios import (DEFAULT_POLICY, ParkingLotSpec, ScalePolicy,
                        ScenarioSpec)


# --------------------------------------------------------------------------
# Figure 1: two NewReno flows with different RTTs, FIFO vs Cebinae.
# --------------------------------------------------------------------------

@dataclass
class Figure1Result:
    """Goodput time series per flow under FIFO and Cebinae."""

    fifo: ScenarioResult
    cebinae: ScenarioResult

    def series(self, discipline: Discipline) -> List[List[float]]:
        result = self.fifo if discipline is Discipline.FIFO \
            else self.cebinae
        return result.goodput_series_bps


def figure1_spec(duration_s: float) -> ScenarioSpec:
    return ScenarioSpec(name="figure1", rate_bps=100e6,
                        rtts_ms=(20.4, 40.0), buffer_mtus=350,
                        cca_mix=(("newreno", 1), ("newreno", 1)),
                        duration_s=duration_s)


def figure1(policy: ScalePolicy = DEFAULT_POLICY,
            duration_s: float = 50.0, workers: int = 1,
            cache_dir=None, use_cache: bool = True) -> Figure1Result:
    scaled = policy.apply(figure1_spec(duration_s))
    results = run_comparison(scaled,
                             disciplines=(Discipline.FIFO,
                                          Discipline.CEBINAE),
                             collect_series=True, record_history=True,
                             workers=workers, cache_dir=cache_dir,
                             use_cache=use_cache)
    return Figure1Result(fifo=results[Discipline.FIFO],
                         cebinae=results[Discipline.CEBINAE])


# --------------------------------------------------------------------------
# Figure 7: 16 Vegas vs 1 NewReno per-flow goodputs.
# Paper: FIFO JFI 0.093 (NewReno takes ~80%); Cebinae JFI 0.985.
# --------------------------------------------------------------------------

@dataclass
class BarFigureResult:
    """Per-flow goodputs under two disciplines (bar/CDF figures)."""

    fifo: ScenarioResult
    cebinae: ScenarioResult
    paper_jfi_fifo: float = 0.0
    paper_jfi_cebinae: float = 0.0

    def cdf_points(self, discipline: Discipline
                   ) -> List[Tuple[float, float]]:
        result = self.fifo if discipline is Discipline.FIFO \
            else self.cebinae
        ordered = sorted(result.goodputs_bps)
        count = len(ordered)
        return [(value, (index + 1) / count)
                for index, value in enumerate(ordered)]


def _two_way(spec: ScenarioSpec, policy: ScalePolicy,
             paper_fifo: float, paper_ceb: float, workers: int = 1,
             cache_dir=None, use_cache: bool = True) -> BarFigureResult:
    scaled = policy.apply(spec)
    results = run_comparison(scaled,
                             disciplines=(Discipline.FIFO,
                                          Discipline.CEBINAE),
                             workers=workers, cache_dir=cache_dir,
                             use_cache=use_cache)
    return BarFigureResult(fifo=results[Discipline.FIFO],
                           cebinae=results[Discipline.CEBINAE],
                           paper_jfi_fifo=paper_fifo,
                           paper_jfi_cebinae=paper_ceb)


def figure7_spec(duration_s: float) -> ScenarioSpec:
    return ScenarioSpec(name="figure7", rate_bps=100e6, rtts_ms=(100,),
                        buffer_mtus=850,
                        cca_mix=(("vegas", 16), ("newreno", 1)),
                        duration_s=duration_s)


def figure7(policy: ScalePolicy = DEFAULT_POLICY,
            duration_s: float = 60.0, workers: int = 1,
            cache_dir=None, use_cache: bool = True) -> BarFigureResult:
    return _two_way(figure7_spec(duration_s), policy,
                    paper_fifo=0.093, paper_ceb=0.985,
                    workers=workers, cache_dir=cache_dir,
                    use_cache=use_cache)


def figure8a(policy: ScalePolicy = DEFAULT_POLICY,
             duration_s: float = 60.0, workers: int = 1,
             cache_dir=None, use_cache: bool = True) -> BarFigureResult:
    """128 NewReno vs 2 BBR over 1 Gbps (paper JFI 0.774 -> 0.936)."""
    spec = ScenarioSpec(name="figure8a", rate_bps=1000e6,
                        rtts_ms=(100,), buffer_mtus=8350,
                        cca_mix=(("newreno", 128), ("bbr", 2)),
                        duration_s=duration_s)
    return _two_way(spec, policy, paper_fifo=0.774, paper_ceb=0.936,
                    workers=workers, cache_dir=cache_dir,
                    use_cache=use_cache)


def figure8b(policy: ScalePolicy = DEFAULT_POLICY,
             duration_s: float = 60.0, workers: int = 1,
             cache_dir=None, use_cache: bool = True) -> BarFigureResult:
    """128 NewReno vs 4 Vegas (starvation; paper JFI 0.956 -> 0.964)."""
    spec = ScenarioSpec(name="figure8b", rate_bps=1000e6,
                        rtts_ms=(64, 100), buffer_mtus=8500,
                        cca_mix=(("newreno", 128), ("vegas", 4)),
                        duration_s=duration_s)
    return _two_way(spec, policy, paper_fifo=0.956, paper_ceb=0.964,
                    workers=workers, cache_dir=cache_dir,
                    use_cache=use_cache)


# --------------------------------------------------------------------------
# Figure 9: RTT asymmetry sweep for Cubic over a 400 Mbps link.
# --------------------------------------------------------------------------

@dataclass
class Figure9Point:
    rtt_ms: float
    results: Dict[Discipline, ScenarioResult]

    def jfi(self, discipline: Discipline) -> float:
        return self.results[discipline].jfi

    def goodput_bps(self, discipline: Discipline) -> float:
        return self.results[discipline].total_goodput_bps


def figure9_spec(rtt_ms: float, duration_s: float) -> ScenarioSpec:
    """4 Cubic at 256 ms vs 4 Cubic at ``rtt_ms``, 3 MB buffer."""
    return ScenarioSpec(name=f"figure9_rtt{int(rtt_ms)}",
                        rate_bps=400e6, rtts_ms=(256.0, float(rtt_ms)),
                        buffer_mtus=2000,
                        cca_mix=(("cubic", 4), ("cubic", 4)),
                        duration_s=duration_s)


def figure9(rtts_ms: Sequence[float] = (16, 32, 64, 128, 256),
            policy: ScalePolicy = DEFAULT_POLICY,
            duration_s: float = 60.0, workers: int = 1,
            cache_dir=None, use_cache: bool = True
            ) -> List[Figure9Point]:
    """:func:`figure9_spec` at each swept RTT.

    The full (RTT x discipline) grid fans out over one pool so the
    sweep's wall clock is bounded by the slowest single point.
    """
    disciplines = (Discipline.FIFO, Discipline.FQ, Discipline.CEBINAE)
    specs = []
    for rtt in rtts_ms:
        scaled = policy.apply(figure9_spec(rtt, duration_s))
        specs.extend(RunSpec(scaled=scaled, discipline=discipline)
                     for discipline in disciplines)
    results = run_many(specs, workers=workers, cache_dir=cache_dir,
                       use_cache=use_cache)
    points = []
    for index, rtt in enumerate(rtts_ms):
        chunk = results[index * len(disciplines):
                        (index + 1) * len(disciplines)]
        points.append(Figure9Point(
            rtt_ms=float(rtt),
            results={discipline: require(result)
                     for discipline, result in zip(disciplines, chunk)}))
    return points


# --------------------------------------------------------------------------
# Figure 10: JFI time series under flow churn.
# --------------------------------------------------------------------------

@dataclass
class Figure10Result:
    results: Dict[Discipline, ScenarioResult]

    def jfi_series(self, discipline: Discipline) -> List[float]:
        return self.results[discipline].jfi_series()


def figure10(policy: ScalePolicy = DEFAULT_POLICY,
             duration_s: float = 50.0,
             num_vegas: int = 32, workers: int = 1,
             cache_dir=None, use_cache: bool = True) -> Figure10Result:
    """Vegas flows reach steady state; NewReno joins at ~5 s and Cubic
    at ~25 s, degrading fairness that Cebinae restores."""
    starts = tuple([0.0] * num_vegas + [5.0, 25.0])
    spec = ScenarioSpec(name="figure10", rate_bps=100e6, rtts_ms=(50,),
                        buffer_mtus=420,
                        cca_mix=(("vegas", num_vegas), ("newreno", 1),
                                 ("cubic", 1)),
                        duration_s=duration_s, start_times_s=starts)
    scaled = policy.apply(spec)
    return Figure10Result(results=run_comparison(
        scaled, collect_series=True, workers=workers,
        cache_dir=cache_dir, use_cache=use_cache))


# --------------------------------------------------------------------------
# Figure 11: the multi-bottleneck 'Parking Lot'.
# --------------------------------------------------------------------------

@dataclass
class Figure11Result:
    """Per-flow goodputs vs the ideal max-min allocation."""

    discipline: Discipline
    flow_labels: List[str]
    goodputs_bps: List[float]
    ideal_bps: List[float]
    duration_s: float

    @property
    def normalized_jfi(self) -> float:
        rates = {label: rate for label, rate
                 in zip(self.flow_labels, self.goodputs_bps)}
        ideal = {label: rate for label, rate
                 in zip(self.flow_labels, self.ideal_bps)}
        return normalized_jfi(rates, ideal)


#: Paper numbers for Figure 11: JFI 0.852 (FIFO) -> 0.978 (Cebinae).
FIGURE11_PAPER_JFI = {Discipline.FIFO: 0.852,
                      Discipline.CEBINAE: 0.978}


def figure11(disciplines: Sequence[Discipline] = (Discipline.FIFO,
                                                 Discipline.CEBINAE),
             rate_bps: float = 25e6, buffer_mtus: int = 40,
             duration_s: float = 60.0,
             num_long: int = 8,
             cross_counts: Tuple[int, ...] = (2, 8, 4),
             cross_ccas: Tuple[str, ...] = ("bic", "vegas", "cubic"),
             tau: float = 0.06,
             access_delay_ms: float = 8.0,
             bottleneck_delay_ms: float = 4.0, workers: int = 1,
             cache_dir=None, use_cache: bool = True
             ) -> List[Figure11Result]:
    """8 NewReno long flows vs Bic/Vegas/Cubic cross traffic on three
    100 Mbps bottlenecks (scaled 4x), one result per discipline.

    Delays and buffer keep dT comparable to the long flows' RTT: at a
    naive scale dT dwarfs the base RTT, the three LBF hops inflate the
    long flows' RTT ~10x, and their AIMD growth — hence the whole
    convergence toward max-min — stalls (DESIGN.md, scaling law 4)."""
    spec = ParkingLotSpec(
        name="figure11", rate_bps=rate_bps, buffer_mtus=buffer_mtus,
        num_long=num_long, long_cca="newreno",
        cross_mix=tuple(zip(cross_ccas, cross_counts)),
        duration_s=duration_s, access_delay_ms=access_delay_ms,
        bottleneck_delay_ms=bottleneck_delay_ms, tau=tau)
    scaled = spec.scaled(DEFAULT_POLICY)
    results = run_many([RunSpec(scaled=scaled, discipline=discipline)
                        for discipline in disciplines],
                       workers=workers, cache_dir=cache_dir,
                       use_cache=use_cache)
    # The ideal allocation: long flows cross every segment, cross group
    # i only its own; flows are listed in the runner's order.
    segments = range(len(spec.cross_mix))
    flows = [FlowSpec(flow_id=f"long{j}", path=tuple(segments))
             for j in range(num_long)]
    for i, (cca, count) in enumerate(spec.cross_mix):
        flows.extend(FlowSpec(flow_id=f"{cca}{j}", path=(i,))
                     for j in range(count))
    ideal = water_filling({i: rate_bps for i in segments}, flows)
    return [Figure11Result(
        discipline=discipline,
        flow_labels=[flow.flow_id for flow in flows],
        goodputs_bps=require(result).goodputs_bps,
        ideal_bps=[ideal[flow.flow_id] for flow in flows],
        duration_s=duration_s)
        for discipline, result in zip(disciplines, results)]


# --------------------------------------------------------------------------
# Figure 12: sensitivity to the thresholds δp, δf, τ.
# --------------------------------------------------------------------------

@dataclass
class Figure12Point:
    threshold: float
    jfi: float
    goodput_bps: float


@dataclass
class Figure12Result:
    cebinae_points: List[Figure12Point]
    fifo_jfi: float
    fifo_goodput_bps: float
    fq_jfi: float
    fq_goodput_bps: float


def figure12(thresholds: Sequence[float] = (0.01, 0.02, 0.05, 0.1,
                                            0.2, 0.5, 1.0),
             policy: ScalePolicy = DEFAULT_POLICY,
             duration_s: float = 40.0, workers: int = 1,
             cache_dir=None, use_cache: bool = True) -> Figure12Result:
    """JFI and goodput as δp = δf = τ sweep from 1% to 100%.

    The sweep sets the thresholds directly (it *is* the paper's x-axis)
    rather than applying the scaling rule to them.  The two baselines
    and every threshold point share one pool.
    """
    from dataclasses import replace

    spec = ScenarioSpec(name="figure12", rate_bps=100e6, rtts_ms=(50,),
                        buffer_mtus=420,
                        cca_mix=(("newreno", 16), ("cubic", 1)),
                        duration_s=duration_s)
    scaled = policy.apply(spec)
    specs = [RunSpec(scaled=scaled, discipline=Discipline.FIFO),
             RunSpec(scaled=scaled, discipline=Discipline.FQ)]
    for threshold in thresholds:
        params = replace(scaled.cebinae, tau=threshold,
                         delta_port=threshold, delta_flow=threshold,
                         min_bottom_rate_fraction=0.0)
        specs.append(RunSpec(scaled=replace(scaled, cebinae=params),
                             discipline=Discipline.CEBINAE))
    results = [require(result) for result
               in run_many(specs, workers=workers, cache_dir=cache_dir,
                           use_cache=use_cache)]
    points = []
    for threshold, result in zip(thresholds, results[2:]):
        points.append(Figure12Point(threshold=threshold, jfi=result.jfi,
                                    goodput_bps=result.
                                    total_goodput_bps))
    fifo = results[0]
    fq = results[1]
    return Figure12Result(cebinae_points=points,
                          fifo_jfi=fifo.jfi,
                          fifo_goodput_bps=fifo.total_goodput_bps,
                          fq_jfi=fq.jfi,
                          fq_goodput_bps=fq.total_goodput_bps)
