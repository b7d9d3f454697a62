"""Figure 11: the multi-bottleneck 'Parking Lot'.

8 NewReno flows cross three bottlenecks contending with 2 Bic, 8 Vegas
and 4 Cubic cross flows.  The metric is the JFI *normalised to the
ideal max-min allocation* (computed by water-filling): paper 0.852
(FIFO) -> 0.978 (Cebinae)."""

import pytest

from repro.experiments.figures import PAPER_JFI, parking_lot_ideal
from repro.experiments.report import figure11_report, parking_lot_jfi
from repro.experiments.runner import Discipline

from conftest import bench_duration_s, paper_points, run_declared


@pytest.mark.benchmark(group="figure11")
def test_figure11_parking_lot(benchmark):
    comparisons = run_declared(
        benchmark,
        paper_points("figure11", duration_s=bench_duration_s(30.0)))
    print()
    print(figure11_report(comparisons))
    comparison, = comparisons
    fifo = parking_lot_jfi(comparison, Discipline.FIFO)
    cebinae = parking_lot_jfi(comparison, Discipline.CEBINAE)
    benchmark.extra_info["fifo_njfi"] = round(fifo, 3)
    benchmark.extra_info["cebinae_njfi"] = round(cebinae, 3)
    benchmark.extra_info["paper_fifo_njfi"] = \
        PAPER_JFI["figure11"][Discipline.FIFO]
    benchmark.extra_info["paper_cebinae_njfi"] = \
        PAPER_JFI["figure11"][Discipline.CEBINAE]

    # Shape: Cebinae moves the network toward the max-min ideal.
    assert cebinae > fifo - 0.05

    # Sanity: the ideal allocation reflects the topology (long flows
    # bottlenecked at the most contended middle link).
    ideal = parking_lot_ideal(comparison.scaled.spec)
    assert ideal["long0"] == pytest.approx(ideal["vegas0"])
    assert ideal["bic0"] > ideal["long0"]


@pytest.mark.benchmark(group="figure11")
def test_figure11_long_flows_not_crushed(benchmark):
    """Long flows face three taxation points; Cebinae must still leave
    them a usable share (Definition 2 says only their *bottleneck* link
    should constrain them)."""
    cebinae_only = [spec for spec
                    in paper_points("figure11",
                                    duration_s=bench_duration_s(30.0))
                    if spec.discipline is Discipline.CEBINAE]
    comparison, = run_declared(benchmark, cebinae_only)
    ideal = parking_lot_ideal(comparison.scaled.spec)
    long_rates = [rate for label, rate in
                  zip(ideal, comparison.results[Discipline.CEBINAE]
                      .goodputs_bps)
                  if label.startswith("long")]
    ideal_long = ideal["long0"]
    benchmark.extra_info["long_avg_vs_ideal"] = round(
        sum(long_rates) / len(long_rates) / ideal_long, 3)
    assert sum(long_rates) / len(long_rates) > 0.3 * ideal_long
