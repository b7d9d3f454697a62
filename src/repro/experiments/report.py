"""Plain-text report formatting for experiment results.

The harness prints the same rows/series the paper's tables and figures
report, side by side with the published numbers, in a form that drops
straight into EXPERIMENTS.md.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, List, Optional, Sequence, Tuple

from ..fairness.metrics import normalized_jfi
from ..heavyhitter.evaluation import DetectionResult
from ..netsim.engine import SECOND
from ..obs.events import ControlRound
from ..obs.metrics import MetricsRegistry
from ..suite.registry import paper_spec
from .figures import PAPER_JFI, parking_lot_ideal
from .parallel import THREE_WAY, Comparison
from .runner import Discipline
from .table2 import TABLE2_BY_NAME

#: The two-way figures' labels.
LABELS = {Discipline.FIFO: "FIFO", Discipline.CEBINAE: "Cebinae"}


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned monospace table."""
    materialised = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def line(cells):
        return "  ".join(cell.ljust(width)
                         for cell, width in zip(cells, widths)).rstrip()
    out = [line(headers), line(["-" * width for width in widths])]
    out.extend(line(row) for row in materialised)
    return "\n".join(out)


def mbps(value_bps: float) -> str:
    return f"{value_bps / 1e6:.2f}"


#: Two-sided 95 % critical values of Student's t for 1-30 degrees of
#: freedom (any statistics text's table); 1.960 beyond.
T_95 = (12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
        2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
        2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
        2.048, 2.045, 2.042)


def mean_half_width(samples: Sequence[float]) -> Tuple[float, float]:
    """The mean of ``samples`` and its 95 % Student-t half-width (0.0
    for one sample): how a repeated point's metric is quoted."""
    mean = statistics.fmean(samples)
    if len(samples) < 2:
        return mean, 0.0
    dof = len(samples) - 1
    quantile = T_95[dof - 1] if dof <= len(T_95) else 1.960
    return mean, (quantile * statistics.stdev(samples)
                  / math.sqrt(len(samples)))


def jfi_cell(comparison: Comparison, discipline: Discipline) -> str:
    """A discipline's JFI: the one run's, or ``mean ± half-width`` when
    the comparison holds more than one repeat."""
    jfis = [run.jfi for run in comparison.runs[discipline]]
    if len(jfis) == 1:
        return f"{jfis[0]:.3f}"
    mean, half_width = mean_half_width(jfis)
    return f"{mean:.3f} ± {half_width:.3f}"


def table2_summary_line(comparison: Comparison,
                        discipline: Discipline) -> str:
    """One measured-vs-paper line; ``tools/make_table2_md.py`` parses
    these out of ``results_table2.log``.  The goodput is repeat 0's."""
    spec = comparison.scaled.paper_spec
    measured = comparison.results[discipline]
    paper = TABLE2_BY_NAME[spec.name].paper(discipline)
    return (f"{spec.name} {discipline.value:>7}: "
            f"JFI {jfi_cell(comparison, discipline)} "
            f"(paper {paper.jfi:.3f})  "
            f"goodput {measured.total_goodput_bps / 1e6:.1f} Mbps "
            f"of {measured.sim_rate_bps / 1e6:.0f} "
            f"(paper {paper.goodput_mbps:.0f} of "
            f"{spec.rate_bps / 1e6:.0f})")


def table2_report(comparisons: Sequence[Comparison]) -> str:
    """The per-point summary lines, then the table (goodputs are
    repeat 0's)."""
    lines = [table2_summary_line(comparison, discipline)
             for comparison in comparisons
             for discipline in comparison.results]
    headers = ["row", "config", "scale",
               "JFI fifo (paper)", "JFI fq (paper)", "JFI ceb (paper)",
               "goodput ceb/fifo"]
    rows: List[List[str]] = []
    for comparison in comparisons:
        spec = comparison.scaled.paper_spec
        paper = TABLE2_BY_NAME[spec.name].paper
        mix = ",".join(f"{cca}:{count}" for cca, count in spec.cca_mix)
        fifo = comparison.results[Discipline.FIFO]
        ceb = comparison.results[Discipline.CEBINAE]
        rows.append(
            [spec.name.replace("table2_", ""),
             f"{spec.rate_bps / 1e6:.0f}M {mix}",
             f"{fifo.rate_scale:.0f}x/{fifo.flow_scale:.0f}x"]
            + [f"{jfi_cell(comparison, discipline)} "
               f"({paper(discipline).jfi:.3f})"
               for discipline in THREE_WAY]
            + [f"{ceb.total_goodput_bps / fifo.total_goodput_bps:.3f}"
               if fifo.total_goodput_bps > 0 else "-"])
    return "\n".join(lines + [format_table(headers, rows)])


def figure1_report(comparisons: Sequence[Comparison]) -> str:
    comparison, = comparisons
    lines = ["Figure 1: goodput [Mbps] per second "
             "(flow0 RTT 20.4 ms, flow1 RTT 40 ms)"]
    for discipline, run in comparison.results.items():
        lines.append(f"  {LABELS[discipline]}: JFI={run.jfi:.3f}")
        for flow_index, flow_series in enumerate(run.goodput_series_bps):
            samples = " ".join(f"{value / 1e6:5.1f}"
                               for value in flow_series[::5])
            lines.append(f"    flow{flow_index} (every 5 s): {samples}")
    return "\n".join(lines)


#: The bar/CDF figures' headings, by scenario name.
BAR_FIGURES = {"figure7": "Figure 7 (16 Vegas vs 1 NewReno)",
               "figure8a": "Figure 8a (128 NewReno vs 2 BBR)",
               "figure8b": "Figure 8b (128 NewReno vs 4 Vegas)"}


def bar_figure_report(comparisons: Sequence[Comparison]) -> str:
    """Per-flow goodputs under two disciplines (Figures 7, 8a, 8b)."""
    lines = []
    for comparison in comparisons:
        name = comparison.scaled.spec.name
        lines.append(f"{BAR_FIGURES[name]}: per-flow goodput [Mbps]")
        for discipline, run in comparison.results.items():
            ordered = sorted(run.goodputs_bps)
            lines.append(
                f"  {LABELS[discipline]}: JFI={run.jfi:.3f} "
                f"(paper {PAPER_JFI[name][discipline]:.3f}) "
                f"min={ordered[0] / 1e6:.2f} median="
                f"{ordered[len(ordered) // 2] / 1e6:.2f} "
                f"max={ordered[-1] / 1e6:.2f}")
    return "\n".join(lines)


def figure9_report(comparisons: Sequence[Comparison]) -> str:
    """One row per RTT; goodputs are repeat 0's."""
    headers = ["RTT ms", "JFI fifo", "JFI fq", "JFI ceb",
               "goodput fifo", "goodput fq", "goodput ceb"]
    rows = []
    for comparison in comparisons:
        runs = [comparison.results[discipline]
                for discipline in THREE_WAY]
        # The swept RTT is the second group's (the first stays 256 ms).
        rows.append([f"{comparison.scaled.paper_spec.rtts_ms[1]:.0f}"]
                    + [jfi_cell(comparison, discipline)
                       for discipline in THREE_WAY]
                    + [mbps(run.total_goodput_bps) for run in runs])
    return "Figure 9: RTT asymmetry sweep\n" + format_table(headers,
                                                            rows)


def figure10_report(comparisons: Sequence[Comparison]) -> str:
    comparison, = comparisons
    lines = ["Figure 10: per-second JFI (NewReno joins @5 s, "
             "Cubic @25 s)"]
    for discipline in THREE_WAY:
        series = comparison.results[discipline].jfi_series()
        samples = " ".join(f"{value:.2f}" for value in series[::5])
        lines.append(f"  {discipline.value:>7} (every 5 s): {samples}")
    return "\n".join(lines)


def parking_lot_jfi(comparison: Comparison, discipline: Discipline,
                    repeat: int = 0) -> float:
    """A parking-lot run's JFI normalised to the max-min ideal (the
    ``repeat``-th seed's)."""
    ideal = parking_lot_ideal(comparison.scaled.spec)
    rates = dict(zip(ideal,
                     comparison.runs[discipline][repeat].goodputs_bps))
    return normalized_jfi(rates, ideal)


def figure11_report(comparisons: Sequence[Comparison]) -> str:
    comparison, = comparisons
    ideal = parking_lot_ideal(comparison.scaled.spec)
    lines = ["Figure 11: parking lot, goodput vs ideal max-min"]
    for discipline, run in comparison.results.items():
        lines.append(f"  {discipline.value}: normalized "
                     f"JFI={parking_lot_jfi(comparison, discipline):.3f}")
        for label, rate in zip(ideal, run.goodputs_bps):
            lines.append(f"    {label:>8}: {rate / 1e6:6.2f} Mbps "
                         f"(ideal {ideal[label] / 1e6:6.2f})")
    return "\n".join(lines)


def figure12_report(comparisons: Sequence[Comparison]) -> str:
    """The baselines' comparison first, then one per threshold."""
    baselines, *swept = comparisons
    fifo = baselines.results[Discipline.FIFO]
    fq = baselines.results[Discipline.FQ]
    headers = ["threshold", "JFI", "goodput Mbps"]
    rows = []
    for comparison in swept:
        run = comparison.results[Discipline.CEBINAE]
        rows.append([f"{comparison.scaled.cebinae.tau:.0%}",
                     f"{run.jfi:.3f}", mbps(run.total_goodput_bps)])
    table = format_table(headers, rows)
    return ("Figure 12: threshold sensitivity (δp=δf=τ)\n"
            f"  FIFO baseline: JFI={fifo.jfi:.3f} "
            f"goodput={mbps(fifo.total_goodput_bps)} Mbps\n"
            f"  FQ baseline:   JFI={fq.jfi:.3f} "
            f"goodput={mbps(fq.total_goodput_bps)} Mbps\n" + table)


def scalability_report(comparisons: Sequence[Comparison]) -> str:
    lines = ["Cebinae vs AFQ under growing per-flow buffer requirements",
             f"{'mech':>8} {'flows':>5} {'rtt':>6} {'JFI':>6} "
             f"{'goodput':>9} {'horizon drops':>13}"]
    for comparison in comparisons:
        spec = comparison.scaled.spec
        for discipline, run in comparison.results.items():
            lines.append(
                f"{discipline.value:>8} {spec.total_flows:>5} "
                f"{spec.rtts_ms[0]:>4.0f}ms {run.jfi:>6.3f} "
                f"{run.total_goodput_bps / 1e6:>7.2f} M "
                f"{run.horizon_drops:>13}")
    return "\n".join(lines)


#: The fault-recovery sweep's documents (``paper/faults_*.json``) in run
#: order, with the intensity each one's row prints.
FAULT_INTENSITIES = {"faults_i0": "0", "faults_i05": "0.5",
                     "faults_i1": "1", "faults_i2": "2"}


def jfi_recovery_time_s(jfi_series: Sequence[float],
                        fault_end_s: float,
                        baseline_jfi: float,
                        tolerance: float = 0.05,
                        sustain_s: int = 3) -> Optional[float]:
    """Seconds after the faults clear until JFI is back, or None.

    "Back" means within ``tolerance`` of ``baseline_jfi`` for
    ``sustain_s`` consecutive one-second bins — a single lucky second
    during loss recovery must not count as convergence.  Returns the
    delay from ``fault_end_s`` to the start of the first sustained
    window, 0.0 if fairness never left the band, or None if the run
    ended before a sustained return.
    """
    target = baseline_jfi - tolerance
    first_bin = int(fault_end_s)
    run = 0
    for index in range(first_bin, len(jfi_series)):
        if jfi_series[index] >= target:
            run += 1
            if run >= sustain_s:
                start_s = float(index - sustain_s + 1)
                return max(0.0, start_s - fault_end_s)
        else:
            run = 0
    return None


def _fault_window_s() -> Tuple[float, float]:
    """The sweep's one fault schedule, (start, end) in seconds, read
    from the documents that inject faults."""
    windows = sorted({(spec.faults.start_ns, spec.faults.end_ns)
                      for spec in map(paper_spec, FAULT_INTENSITIES)
                      if spec.faults is not None and spec.faults.enabled})
    (start_ns, end_ns), = windows
    return start_ns / SECOND, end_ns / SECOND


def faults_report(comparisons: Sequence[Comparison]) -> str:
    """The fault-intensity sweep: degradation counters and recovery.

    Every row, the fault-free control's too, is measured against the
    sweep's schedule: the pre-fault JFI is the mean before it opens,
    and recovery counts from when it clears.
    """
    start_s, end_s = _fault_window_s()
    headers = ["intensity", "JFI", "recovery s", "CP misses",
               "failopen rounds", "lost pkts", "status"]
    rows: List[List[str]] = []
    for comparison in comparisons:
        result, = comparison.results.values()
        summary = result.fault_summary or {}
        cp = summary.get("control_plane", {})
        lost = sum(link.get("lost_packets", 0)
                   for link in summary.get("links", {}).values())
        series = result.jfi_series()
        pre_fault = series[:int(start_s)]
        recovery = None if not pre_fault else jfi_recovery_time_s(
            series, end_s, sum(pre_fault) / len(pre_fault))
        rows.append([FAULT_INTENSITIES[comparison.scaled.spec.name],
                     f"{result.jfi:.3f}",
                     "-" if recovery is None else f"{recovery:.0f}",
                     str(cp.get("deadline_misses", 0)),
                     str(cp.get("failopen_rounds", 0)), str(lost),
                     "ok"])
    intro = ("Fault-recovery sweep: CP outage + bottleneck loss "
             "during the middle of the run; 'recovery s' is the time "
             "after the faults clear for per-second JFI to return to "
             "its pre-fault level")
    return intro + "\n" + format_table(headers, rows)


def control_timeline_report(rounds: Sequence[ControlRound],
                            jfi_series: Optional[Sequence[float]] = None
                            ) -> str:
    """The per-``dT`` control-plane timeline, one row per round.

    ``rounds`` are a run's ``control``-topic records (a
    :class:`~repro.obs.sinks.MemorySink` subscribed to ``control``
    collects them); with a per-second ``jfi_series``
    (``ScenarioResult.jfi_series()``) each round also shows the
    fairness index of the second it landed in, so rate decisions read
    directly against their fairness effect.
    """
    headers = ["t s", "port", "round", "kind", "sat", "util",
               "top MB/s", "bottom MB/s", "|top|", "recomp"]
    if jfi_series is not None:
        headers.append("JFI")
    rows: List[List[str]] = []
    for record in rounds:
        seconds = record.time_ns / 1e9
        row = [f"{seconds:.3f}", record.port, str(record.round_index),
               record.kind, "y" if record.saturated else "n",
               f"{record.utilization:.2f}",
               f"{record.top_rate_bytes_per_sec / 1e6:.3f}",
               f"{record.bottom_rate_bytes_per_sec / 1e6:.3f}",
               str(len(record.top_flows)),
               "y" if record.recomputed else "n"]
        if jfi_series is not None:
            index = int(seconds)
            row.append(f"{jfi_series[index]:.3f}"
                       if 0 <= index < len(jfi_series) else "-")
        rows.append(row)
    fail_open = sum(1 for record in rounds
                    if record.kind == "fail_open")
    missed = sum(1 for record in rounds if record.kind == "missed")
    intro = (f"Control-plane timeline: {len(rounds)} rounds, "
             f"{fail_open} fail-open, {missed} missed")
    return intro + "\n" + format_table(headers, rows)


def profile_report(registry: MetricsRegistry) -> str:
    """The ``--profile`` report: what the engine folded into ``registry``.

    Totals over every in-process ``Simulator.run`` observed, then
    executed events per callback owner, largest first.
    """
    events = int(registry.counter("sim_events_total").value)
    runs = int(registry.counter("sim_runs_total").value)
    sim_s = registry.counter("sim_time_seconds_total").value
    wall_s = registry.wall_s
    events_per_sec = events / wall_s if wall_s > 0 else 0.0
    sim_wall_ratio = sim_s / wall_s if wall_s > 0 else 0.0
    lines = [
        "hot-path profile",
        f"  events          {events}",
        f"  simulator runs  {runs}",
        f"  wall time       {wall_s:.3f} s",
        f"  sim time        {sim_s:.3f} s",
        f"  events/sec      {events_per_sec:,.0f}",
        f"  sim/wall ratio  {sim_wall_ratio:.2f}x",
    ]
    components = registry.component_events
    if components:
        lines.append("  events by component:")
        width = max(len(name) for name in components)
        for name, count in sorted(components.items(),
                                  key=lambda item: (-item[1], item[0])):
            lines.append(f"    {name:<{width}}  {count:>10}"
                         f"  {count / events:6.1%}")
    return "\n".join(lines)


def figure13_report(results: Sequence[DetectionResult]) -> str:
    headers = ["stages", "slots", "interval ms", "FPR", "FNR"]
    rows = [[result.stages, result.slots_per_stage,
             f"{result.round_interval_ms:.0f}",
             f"{result.false_positive_rate:.2e}",
             f"{result.false_negative_rate:.4f}"]
            for result in results]
    return ("Figure 13: ⊤-flow detection accuracy\n"
            + format_table(headers, rows))
