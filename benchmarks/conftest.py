"""Shared helpers for the benchmarks: ablations, the hot path and the
hybrid backend at scale (the paper's tables and figures are judged by
``cebinae-repro fidelity``).  Each stores its key numbers in
``benchmark.extra_info``, so they appear in pytest-benchmark's JSON."""

import os


def bench_duration_s(default: float = 12.0) -> float:
    """Simulated seconds per scenario (env-overridable)."""
    return float(os.environ.get("CEBINAE_BENCH_DURATION", default))


def bench_flows(default: int = 10_000) -> int:
    """Flow count for the scalability benchmarks (env-overridable).

    The headline hybrid-backend claim is measured at 10^4 flows; set
    ``CEBINAE_BENCH_FLOWS=500`` for a quick local pass (the shape
    assertions adapt, the magnitude assertions only apply at full
    scale).
    """
    return int(os.environ.get("CEBINAE_BENCH_FLOWS", default))


def run_once(benchmark, fn, *args, **kwargs):
    """Run an expensive scenario exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
