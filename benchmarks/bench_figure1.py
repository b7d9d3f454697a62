"""Figure 1: two NewReno flows with different RTTs, FIFO vs Cebinae.

The paper's opening figure: under FIFO the goodput gap between the
20.4 ms and 40 ms flows persists; Cebinae's taxation narrows it over
time.  The benchmark prints both goodput time series.
"""

import pytest

from repro.experiments.report import figure1_report
from repro.experiments.runner import Discipline
from repro.fairness.metrics import jain_fairness_index

from conftest import bench_duration_s, paper_points, run_declared


@pytest.mark.benchmark(group="figure1")
def test_figure1_time_series(benchmark):
    comparisons = run_declared(
        benchmark,
        paper_points("figure1", duration_s=bench_duration_s(30.0)))
    print()
    print(figure1_report(comparisons))
    fifo = comparisons[0].results[Discipline.FIFO]
    cebinae = comparisons[0].results[Discipline.CEBINAE]
    benchmark.extra_info["fifo_jfi"] = round(fifo.jfi, 3)
    benchmark.extra_info["cebinae_jfi"] = round(cebinae.jfi, 3)
    # Both runs keep the link efficient...
    for run in (fifo, cebinae):
        assert run.total_goodput_bps > 0.6 * run.sim_rate_bps
    # ...and the series cover the whole run for both flows.
    assert len(fifo.goodput_series_bps) == 2
    assert len(fifo.goodput_series_bps[0]) == int(fifo.duration_s)


@pytest.mark.benchmark(group="figure1")
def test_figure1_late_window_fairness(benchmark):
    """Convergence shape: over the last third of the run, Cebinae's
    per-second JFI should not be below FIFO's."""
    comparison, = run_declared(
        benchmark,
        paper_points("figure1", duration_s=bench_duration_s(30.0)))

    def late_jfi(run):
        series = run.goodput_series_bps
        tail = len(series[0]) // 3
        values = [jain_fairness_index([flow[i] for flow in series])
                  for i in range(len(series[0]) - tail,
                                 len(series[0]))]
        return sum(values) / len(values)

    fifo = late_jfi(comparison.results[Discipline.FIFO])
    cebinae = late_jfi(comparison.results[Discipline.CEBINAE])
    benchmark.extra_info["late_fifo_jfi"] = round(fifo, 3)
    benchmark.extra_info["late_cebinae_jfi"] = round(cebinae, 3)
    assert cebinae > fifo - 0.1
