"""Figure 13: FPR/FNR of ⊤-flow detection on backbone-scale traces.

Replays synthetic CAIDA-equivalent traces (Zipf rates, 400k flows/min,
10 Gbps) through the passive flow cache on the CLI's grids: (a) a sweep
of round intervals at 512 slots per stage and (b) a sweep of slot counts
from 128 up at 10 ms.  Paper shape: FPR is negligible (< 0.005%)
everywhere; FNR falls with more stages/slots and is low (< 10%) at the
default configuration."""

import os

import pytest

from repro.experiments.cli import FIGURE13_GRIDS
from repro.experiments.report import figure13_report
from repro.heavyhitter.evaluation import (sweep_round_interval,
                                          sweep_slot_count)

from conftest import bench_cache_dir, bench_workers, run_once

QUICK = "CEBINAE_BENCH_DURATION" not in os.environ
TRIALS = 1 if QUICK else 10
TRACE_S = 0.15 if QUICK else 0.5
FLOWS_PER_MINUTE = 400_000
INTERVALS_MS, SLOT_OPTIONS = FIGURE13_GRIDS[QUICK]


@pytest.mark.benchmark(group="figure13")
def test_figure13a_round_interval_sweep(benchmark):
    results = run_once(benchmark, sweep_round_interval,
                       intervals_ms=INTERVALS_MS,
                       stages_options=(1, 2, 4),
                       slots_per_stage=512, trials=TRIALS,
                       trace_duration_s=TRACE_S,
                       flows_per_minute=FLOWS_PER_MINUTE,
                       workers=bench_workers(),
                       cache_dir=bench_cache_dir())
    print()
    print(figure13_report(results))
    for result in results:
        key = f"s{result.stages}_i{result.round_interval_ms:.0f}"
        benchmark.extra_info[key + "_fpr"] = \
            result.false_positive_rate
        benchmark.extra_info[key + "_fnr"] = \
            round(result.false_negative_rate, 4)
        # Paper headline: negligible false positives everywhere.
        assert result.false_positive_rate < 1e-3


@pytest.mark.benchmark(group="figure13")
def test_figure13b_slot_sweep(benchmark):
    results = run_once(benchmark, sweep_slot_count,
                       slot_options=SLOT_OPTIONS, stages_options=(1, 2, 4),
                       round_interval_ms=10, trials=TRIALS,
                       trace_duration_s=TRACE_S,
                       flows_per_minute=FLOWS_PER_MINUTE,
                       workers=bench_workers(),
                       cache_dir=bench_cache_dir())
    print()
    print(figure13_report(results))
    for result in results:
        assert result.false_positive_rate < 1e-3
        # Bounded false negatives at the default 2 x 2048 cache.
        if result.stages >= 2 and result.slots_per_stage >= 2048:
            assert result.false_negative_rate < 0.25
    # Shape: the smallest cache misses ⊤ flows, and the largest misses
    # strictly fewer (a table of zeros fails this).
    smallest = min(results,
                   key=lambda r: r.stages * r.slots_per_stage)
    largest = max(results,
                  key=lambda r: r.stages * r.slots_per_stage)
    assert smallest.false_negative_rate > 0
    assert largest.false_negative_rate < smallest.false_negative_rate
    assert largest.false_positive_rate < 5e-4
