"""Plain-text report formatting for experiment results.

The harness prints the same rows/series the paper's tables and figures
report, side by side with the published numbers, in a form that drops
straight into EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..heavyhitter.evaluation import DetectionResult
from ..obs.events import ControlRound
from ..obs.metrics import MetricsRegistry
from .figures import (Figure1Result, Figure9Point, Figure10Result,
                      Figure11Result, Figure12Result, BarFigureResult)
from .runner import Discipline
from .table2 import Table2Comparison


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


def table2_report(comparisons: Sequence[Table2Comparison]) -> str:
    headers = ["row", "config", "scale",
               "JFI fifo (paper)", "JFI fq (paper)", "JFI ceb (paper)",
               "goodput ceb/fifo"]
    rows: List[List[str]] = []
    for comparison in comparisons:
        spec = comparison.row.spec
        mix = ",".join(f"{cca}:{count}" for cca, count in spec.cca_mix)
        fifo = comparison.results[Discipline.FIFO]
        row = [spec.name.replace("table2_", ""),
               f"{spec.rate_bps / 1e6:.0f}M {mix}",
               f"{fifo.rate_scale:.0f}x/{fifo.flow_scale:.0f}x"]
        for discipline in (Discipline.FIFO, Discipline.FQ,
                           Discipline.CEBINAE):
            measured = comparison.results.get(discipline)
            paper = comparison.row.paper(discipline)
            row.append(f"{measured.jfi:.3f} ({paper.jfi:.3f})"
                       if measured else "-")
        ceb = comparison.results.get(Discipline.CEBINAE)
        if ceb is not None and fifo.total_goodput_bps > 0:
            row.append(f"{ceb.total_goodput_bps / fifo.total_goodput_bps:.3f}")
        else:
            row.append("-")
        rows.append(row)
    return format_table(headers, rows)


def figure1_report(result: Figure1Result) -> str:
    lines = ["Figure 1: goodput [Mbps] per second "
             "(flow0 RTT 20.4 ms, flow1 RTT 40 ms)"]
    for label, run in (("FIFO", result.fifo),
                       ("Cebinae", result.cebinae)):
        series = run.goodput_series_bps
        lines.append(f"  {label}: JFI={run.jfi:.3f}")
        for flow_index, flow_series in enumerate(series):
            samples = " ".join(f"{value / 1e6:5.1f}"
                               for value in flow_series[::5])
            lines.append(f"    flow{flow_index} (every 5 s): {samples}")
    return "\n".join(lines)


def bar_figure_report(name: str, result: BarFigureResult) -> str:
    lines = [f"{name}: per-flow goodput [Mbps]"]
    for label, run, paper in (
            ("FIFO", result.fifo, result.paper_jfi_fifo),
            ("Cebinae", result.cebinae, result.paper_jfi_cebinae)):
        ordered = sorted(run.goodputs_bps)
        lines.append(
            f"  {label}: JFI={run.jfi:.3f} (paper {paper:.3f}) "
            f"min={ordered[0] / 1e6:.2f} median="
            f"{ordered[len(ordered) // 2] / 1e6:.2f} "
            f"max={ordered[-1] / 1e6:.2f}")
    return "\n".join(lines)


def figure9_report(points: Sequence[Figure9Point]) -> str:
    headers = ["RTT ms", "JFI fifo", "JFI fq", "JFI ceb",
               "goodput fifo", "goodput fq", "goodput ceb"]
    rows = []
    for point in points:
        rows.append([f"{point.rtt_ms:.0f}"]
                    + [f"{point.jfi(d):.3f}" for d in
                       (Discipline.FIFO, Discipline.FQ,
                        Discipline.CEBINAE)]
                    + [mbps(point.goodput_bps(d)) for d in
                       (Discipline.FIFO, Discipline.FQ,
                        Discipline.CEBINAE)])
    return "Figure 9: RTT asymmetry sweep\n" + format_table(headers,
                                                            rows)


def figure10_report(result: Figure10Result) -> str:
    lines = ["Figure 10: per-second JFI (NewReno joins @5 s, "
             "Cubic @25 s)"]
    for discipline in (Discipline.FIFO, Discipline.FQ,
                       Discipline.CEBINAE):
        series = result.jfi_series(discipline)
        samples = " ".join(f"{value:.2f}" for value in series[::5])
        lines.append(f"  {discipline.value:>7} (every 5 s): {samples}")
    return "\n".join(lines)


def figure11_report(results: Sequence[Figure11Result]) -> str:
    lines = ["Figure 11: parking lot, goodput vs ideal max-min"]
    for result in results:
        lines.append(f"  {result.discipline.value}: normalized "
                     f"JFI={result.normalized_jfi:.3f}")
        for label, rate, ideal in zip(result.flow_labels,
                                      result.goodputs_bps,
                                      result.ideal_bps):
            lines.append(f"    {label:>8}: {rate / 1e6:6.2f} Mbps "
                         f"(ideal {ideal / 1e6:6.2f})")
    return "\n".join(lines)


def figure12_report(result: Figure12Result) -> str:
    headers = ["threshold", "JFI", "goodput Mbps"]
    rows = [[f"{point.threshold:.0%}", f"{point.jfi:.3f}",
             mbps(point.goodput_bps)]
            for point in result.cebinae_points]
    table = format_table(headers, rows)
    return ("Figure 12: threshold sensitivity (δp=δf=τ)\n"
            f"  FIFO baseline: JFI={result.fifo_jfi:.3f} "
            f"goodput={mbps(result.fifo_goodput_bps)} Mbps\n"
            f"  FQ baseline:   JFI={result.fq_jfi:.3f} "
            f"goodput={mbps(result.fq_goodput_bps)} Mbps\n" + table)


def faults_report(points: Sequence["FaultSweepPoint"]) -> str:
    """The fault-intensity sweep: degradation counters and recovery."""
    from .faults import FaultSweepPoint  # noqa: F401 - typing only
    headers = ["intensity", "JFI", "recovery s", "CP misses",
               "failopen rounds", "lost pkts", "status"]
    rows: List[List[str]] = []
    for point in points:
        if point.failed:
            failed = point.result
            status = "TIMED OUT" if failed.timed_out else "FAILED"
            rows.append([f"{point.intensity:g}", "-", "-", "-", "-",
                         "-", f"{status} ({failed.error})"])
            continue
        result = point.result
        summary = result.fault_summary or {}
        cp = summary.get("control_plane", {})
        lost = sum(link.get("lost_packets", 0)
                   for link in summary.get("links", {}).values())
        recovery = "-" if point.recovery_s is None \
            else f"{point.recovery_s:.0f}"
        rows.append([f"{point.intensity:g}", f"{result.jfi:.3f}",
                     recovery, str(cp.get("deadline_misses", 0)),
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

    ``rounds`` is what a
    :class:`~repro.obs.sinks.ControlTimelineSink` collected; with a
    per-second ``jfi_series`` (``ScenarioResult.jfi_series()``) each
    round also shows the fairness index of the second it landed in, so
    rate decisions read directly against their fairness effect.
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


def figure13_report(results: Sequence[DetectionResult],
                    variable: str = "round_interval_ms") -> str:
    headers = ["stages", "slots", "interval ms", "FPR", "FNR"]
    rows = [[result.stages, result.slots_per_stage,
             f"{result.round_interval_ms:.0f}",
             f"{result.false_positive_rate:.2e}",
             f"{result.false_negative_rate:.4f}"]
            for result in results]
    return ("Figure 13: ⊤-flow detection accuracy\n"
            + format_table(headers, rows))
