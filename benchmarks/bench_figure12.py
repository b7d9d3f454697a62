"""Figure 12: sensitivity to the thresholds δp, δf and τ.

16 NewReno flows vs 1 Cubic flow while δp = δf = τ sweep from 1% to
100%.  Paper shape: JFI stays high across the sweep (Cebinae is robust
to its parameters), while goodput decays as the thresholds grow and
collapses at the degenerate 100% setting where every flow is always
taxed toward zero."""

import os

import pytest

from repro.experiments.report import figure12_report

from repro.experiments.runner import Discipline

from conftest import bench_duration_s, paper_points, run_declared

#: The document's thresholds this benchmark runs: a subset unless the
#: full-length env override is set.
THRESHOLDS = (0.01, 0.1, 0.5, 1.0) if "CEBINAE_BENCH_DURATION" not in \
    os.environ else (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)


@pytest.mark.benchmark(group="figure12")
def test_figure12_threshold_sweep(benchmark):
    # Baselines plus every threshold point share one pool and cache.
    specs = [spec for spec in paper_points(
                 "figure12", "figure12_tau",
                 duration_s=bench_duration_s(25.0))
             if spec.discipline is not Discipline.CEBINAE
             or spec.scaled.cebinae.tau in THRESHOLDS]
    comparisons = run_declared(benchmark, specs)
    print()
    print(figure12_report(comparisons))
    baselines, *swept = comparisons
    by_threshold = {comparison.scaled.cebinae.tau:
                    comparison.results[Discipline.CEBINAE]
                    for comparison in swept}
    for threshold, run in by_threshold.items():
        benchmark.extra_info[f"jfi_at_{threshold:.0%}"] = \
            round(run.jfi, 3)
        benchmark.extra_info[f"goodput_at_{threshold:.0%}"] = \
            round(run.total_goodput_bps / 1e6, 2)

    # Shape 1: goodput decays with aggressiveness; the degenerate 100%
    # setting loses most of the link (paper: drops sharply past the
    # flows' fair share).
    assert by_threshold[1.0].total_goodput_bps < \
        0.7 * by_threshold[0.01].total_goodput_bps
    # Shape 2: moderate thresholds keep fairness at least FIFO-grade.
    assert by_threshold[0.1].jfi > \
        baselines.results[Discipline.FIFO].jfi - 0.1
    # Shape 3: the FQ baseline is near-perfectly fair.
    assert baselines.results[Discipline.FQ].jfi > 0.9
