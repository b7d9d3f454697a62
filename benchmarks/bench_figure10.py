"""Figure 10: JFI time series under flow churn.

A population of Vegas flows reaches steady state; a NewReno flow joins
at ~5 s and a Cubic flow at ~25 s, each dragging fairness down under
FIFO.  Paper shape: Cebinae's per-second JFI recovers after each
arrival instead of staying depressed."""

from dataclasses import replace

import pytest

from repro.experiments.report import figure10_report
from repro.experiments.runner import Discipline
from repro.suite.registry import paper_spec

from conftest import bench_duration_s, run_declared

#: The bench's Vegas population: half the document's 32.
NUM_VEGAS = 16


def _points(duration_s):
    """The figure10 document with 16 Vegas flows, at ``duration_s``."""
    spec = paper_spec("figure10")
    scenario = replace(
        spec.scenario,
        cca_mix=(("vegas", NUM_VEGAS),) + spec.scenario.cca_mix[1:],
        start_times_s=spec.scenario.start_times_s[-NUM_VEGAS - 2:],
        duration_s=duration_s)
    return [run.runspec
            for run in replace(spec, scenario=scenario).compile()]


@pytest.mark.benchmark(group="figure10")
def test_figure10_churn_series(benchmark):
    duration = max(bench_duration_s(50.0), 35.0)  # Cubic joins at 25 s.
    comparisons = run_declared(benchmark, _points(duration))
    print()
    print(figure10_report(comparisons))
    results = comparisons[0].results
    fifo_series = results[Discipline.FIFO].jfi_series()
    ceb_series = results[Discipline.CEBINAE].jfi_series()
    assert len(fifo_series) == int(duration)

    # Before any aggressor joins, everyone is fair everywhere.
    assert fifo_series[4] > 0.7
    assert ceb_series[4] > 0.7

    # After the joins settle, Cebinae's fairness should be no worse
    # than FIFO's (paper: dramatically better).
    tail = int(duration) - 3
    fifo_tail = sum(fifo_series[tail:]) / 3
    ceb_tail = sum(ceb_series[tail:]) / 3
    benchmark.extra_info["fifo_tail_jfi"] = round(fifo_tail, 3)
    benchmark.extra_info["cebinae_tail_jfi"] = round(ceb_tail, 3)
    assert ceb_tail > fifo_tail - 0.1
