"""Table 2: the 25-row sweep of bandwidths, RTTs, buffers, and CCA
mixes under FIFO / FQ / Cebinae.

Each benchmark runs one representative slice of the table (grouped by
link class) and prints measured-vs-paper JFI per row.  Run the full
25-row sweep with ``cebinae-repro table2`` (results recorded in
EXPERIMENTS.md).
"""

import pytest

from repro.experiments.report import table2_report
from repro.experiments.runner import Discipline
from repro.experiments.table2 import TABLE2_BY_NAME

from conftest import bench_duration_s, paper_points, run_declared

#: Representative rows per link class (1-based row numbers): RTT
#: unfairness, intra-CCA, Vegas starvation, BBR aggression, 10G mix.
ROWS_100M = (1, 2, 7, 8)
ROWS_1G = (12, 15, 18, 23)
ROWS_10G = (24, 25)


def _run_rows(benchmark, row_numbers):
    documents = [f"table2_row{number:02d}" for number in row_numbers]
    comparisons = run_declared(
        benchmark,
        paper_points(*documents, duration_s=bench_duration_s()))
    print()
    print(table2_report(comparisons))
    return comparisons


def _check(benchmark, comparisons):
    for comparison in comparisons:
        name = comparison.scaled.spec.name
        for discipline, result in comparison.results.items():
            paper = TABLE2_BY_NAME[name].paper(discipline)
            key = f"{name}_{discipline.value}"
            benchmark.extra_info[key + "_jfi"] = round(result.jfi, 3)
            benchmark.extra_info[key + "_paper_jfi"] = paper.jfi
            assert 0.0 < result.jfi <= 1.0
            # Efficiency shape: every discipline keeps the link busy.
            assert result.total_goodput_bps > 0.5 * result.sim_rate_bps


@pytest.mark.benchmark(group="table2")
def test_table2_100mbps_rows(benchmark):
    comparisons = _run_rows(benchmark, ROWS_100M)
    _check(benchmark, comparisons)


@pytest.mark.benchmark(group="table2")
def test_table2_1gbps_rows(benchmark):
    comparisons = _run_rows(benchmark, ROWS_1G)
    _check(benchmark, comparisons)


@pytest.mark.benchmark(group="table2")
def test_table2_10gbps_rows(benchmark):
    comparisons = _run_rows(benchmark, ROWS_10G)
    _check(benchmark, comparisons)


@pytest.mark.benchmark(group="table2")
def test_table2_vegas_starvation_shape(benchmark):
    """Row 8's headline: Cebinae lifts JFI far above FIFO's."""
    comparisons = _run_rows(benchmark, (8,))
    results = comparisons[0].results
    fifo = results[Discipline.FIFO].jfi
    cebinae = results[Discipline.CEBINAE].jfi
    benchmark.extra_info["fifo_jfi"] = round(fifo, 3)
    benchmark.extra_info["cebinae_jfi"] = round(cebinae, 3)
    assert cebinae > fifo + 0.2, (
        f"Cebinae ({cebinae:.3f}) should clearly beat FIFO "
        f"({fifo:.3f}) on the Vegas-starvation row")
