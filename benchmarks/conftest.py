"""Shared helpers for the benchmark harness.

Every paper table/figure has a benchmark module that regenerates its
rows/series.  Benchmarks run scaled-down (see
``repro.experiments.scenarios.ScalePolicy``) and short by default so
the whole harness completes in minutes; set
``CEBINAE_BENCH_DURATION=60`` (seconds) to reproduce the headline
numbers recorded in EXPERIMENTS.md, which were measured at 60 s.

Each benchmark prints the same rows/series the paper reports and stores
the key numbers in ``benchmark.extra_info`` so they appear in
pytest-benchmark's JSON output.
"""

import os

import pytest


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


def bench_workers(default: int = 2) -> int:
    """Process-pool size for sweep benchmarks (env-overridable).

    Independent (scenario, discipline) points fan out over this many
    workers via ``repro.experiments.parallel``; set
    ``CEBINAE_BENCH_WORKERS=1`` to force the serial path.
    """
    return int(os.environ.get("CEBINAE_BENCH_WORKERS", default))


def bench_cache_dir() -> "str | None":
    """Result-cache directory, or None to disable caching.

    Defaults to ``.cebinae-cache`` in the working directory so a
    repeated benchmark invocation replays cached points instead of
    re-simulating them (the progress lines report each hit).  Set
    ``CEBINAE_CACHE_DIR=`` (empty) or ``off`` to disable.
    """
    value = os.environ.get("CEBINAE_CACHE_DIR", ".cebinae-cache")
    return None if value in ("", "0", "off", "none") else value


def run_once(benchmark, fn, *args, **kwargs):
    """Run an expensive scenario exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


def paper_points(*documents, duration_s):
    """The ``RunSpec`` points of the paper's suite documents, in order,
    none longer than ``duration_s``."""
    from repro.suite.registry import paper_spec
    return [run.runspec for name in documents
            for run in paper_spec(name).with_duration_cap(duration_s)
            .compile()]


def run_declared(benchmark, specs):
    """Run an experiment's declared points once, over the benchmark
    pool and cache (``CEBINAE_BENCH_WORKERS``, ``CEBINAE_CACHE_DIR``)."""
    # Imported here: this conftest also loads for benchmarks/ledger,
    # which CI runs without the package on the path.
    from repro.experiments.parallel import run_grid
    return run_once(benchmark, run_grid, specs, workers=bench_workers(),
                    cache_dir=bench_cache_dir())


@pytest.fixture
def duration_s():
    return bench_duration_s()
