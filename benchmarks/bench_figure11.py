"""Figure 11: the multi-bottleneck 'Parking Lot'.

8 NewReno flows cross three bottlenecks contending with 2 Bic, 8 Vegas
and 4 Cubic cross flows.  The metric is the JFI *normalised to the
ideal max-min allocation* (computed by water-filling): paper 0.852
(FIFO) -> 0.978 (Cebinae)."""

import pytest

from repro.experiments.figures import FIGURE11_PAPER_JFI, figure11
from repro.experiments.report import figure11_report
from repro.experiments.runner import Discipline

from conftest import bench_duration_s, run_once


@pytest.mark.benchmark(group="figure11")
def test_figure11_parking_lot(benchmark):
    results = run_once(benchmark, figure11,
                       duration_s=bench_duration_s(30.0))
    print()
    print(figure11_report(results))
    fifo, cebinae = results
    benchmark.extra_info["fifo_njfi"] = round(fifo.normalized_jfi, 3)
    benchmark.extra_info["cebinae_njfi"] = round(
        cebinae.normalized_jfi, 3)
    benchmark.extra_info["paper_fifo_njfi"] = \
        FIGURE11_PAPER_JFI[Discipline.FIFO]
    benchmark.extra_info["paper_cebinae_njfi"] = \
        FIGURE11_PAPER_JFI[Discipline.CEBINAE]

    # Shape: Cebinae moves the network toward the max-min ideal.
    assert cebinae.normalized_jfi > fifo.normalized_jfi - 0.05

    # Sanity: the ideal allocation reflects the topology (long flows
    # bottlenecked at the most contended middle link).
    ideal = dict(zip(cebinae.flow_labels, cebinae.ideal_bps))
    assert ideal["long0"] == pytest.approx(ideal["vegas0"])
    assert ideal["bic0"] > ideal["long0"]


@pytest.mark.benchmark(group="figure11")
def test_figure11_long_flows_not_crushed(benchmark):
    """Long flows face three taxation points; Cebinae must still leave
    them a usable share (Definition 2 says only their *bottleneck* link
    should constrain them)."""
    result, = run_once(benchmark, figure11,
                       disciplines=(Discipline.CEBINAE,),
                       duration_s=bench_duration_s(30.0))
    long_rates = [rate for label, rate in
                  zip(result.flow_labels, result.goodputs_bps)
                  if label.startswith("long")]
    ideal_long = result.ideal_bps[0]
    benchmark.extra_info["long_avg_vs_ideal"] = round(
        sum(long_rates) / len(long_rates) / ideal_long, 3)
    assert sum(long_rates) / len(long_rates) > 0.3 * ideal_long
