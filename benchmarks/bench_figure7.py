"""Figure 7: per-flow goodput, 16 Vegas vs 1 NewReno over 100 Mbps.

Paper: FIFO lets the single NewReno flow take ~80% of the link (JFI
0.093); Cebinae redistributes it (JFI 0.985)."""

import pytest

from repro.experiments.report import bar_figure_report
from repro.experiments.runner import Discipline

from conftest import bench_duration_s, paper_points, run_declared


@pytest.mark.benchmark(group="figure7")
def test_figure7_goodput_bars(benchmark):
    comparisons = run_declared(
        benchmark,
        paper_points("figure7", duration_s=bench_duration_s(30.0)))
    print()
    print(bar_figure_report(comparisons))
    fifo = comparisons[0].results[Discipline.FIFO]
    cebinae = comparisons[0].results[Discipline.CEBINAE]
    benchmark.extra_info["fifo_jfi"] = round(fifo.jfi, 3)
    benchmark.extra_info["cebinae_jfi"] = round(cebinae.jfi, 3)

    # Shape 1: FIFO lets NewReno (the last flow) dominate.
    fifo_reno = fifo.goodputs_bps[-1]
    fifo_vegas_avg = sum(fifo.goodputs_bps[:-1]) / 16
    assert fifo_reno > 3 * fifo_vegas_avg

    # Shape 2: Cebinae cuts the aggressor and lifts overall fairness.
    ceb_reno = cebinae.goodputs_bps[-1]
    assert ceb_reno < fifo_reno
    assert cebinae.jfi > fifo.jfi + 0.2

    # Shape 3: efficiency cost stays small.
    assert cebinae.total_goodput_bps > 0.8 * fifo.total_goodput_bps
