"""Hot-path profiling: per-component event counters and throughput.

The simulator's inner loop is the wall-clock floor of every sweep, so
this module gives it a flight recorder that is *free when off*: the
engine checks a module-level registration once per :meth:`Simulator.run`
and pays one dict increment per event only while a profiler is
installed.

A :class:`HotPathProfiler` aggregates across every :class:`Simulator`
that runs while it is installed (a sweep builds one simulator per
point), counting events per *component* — the class owning the fired
callback (``Link``, ``TcpSocket``, ``CebinaeControlPlane``, ...) — plus
events/second and the sim-time/wall-time ratio.

Use via the CLI (``cebinae-repro figure9 --profile``) or directly::

    from repro.netsim import profiling
    with profiling.profiled() as prof:
        run_scenario(...)
    print(prof.report().format_text())

Profiling is in-process: points farmed out to worker processes by the
parallel executor are not observed, so profile with ``--workers 1``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional

#: Nanoseconds per second (kept local: the engine imports this module).
_NS_PER_SEC = 1_000_000_000

#: Version of the profile/BENCH JSON layout.  Bump when a field is
#: renamed, retyped, or removed; CI artifacts stay comparable across
#: PRs only within one schema version.
SCHEMA_VERSION = 1


def component_of(callback: Callable[..., Any]) -> str:
    """The profile bucket for a callback: owning class or module."""
    owner = getattr(callback, "__self__", None)
    if owner is not None:
        return type(owner).__name__
    qualname = getattr(callback, "__qualname__", None)
    if qualname:
        return qualname.split(".")[0]
    return type(callback).__name__


@dataclass
class ProfileReport:
    """A finished profile: totals plus the per-component breakdown."""

    events: int
    wall_s: float
    sim_s: float
    runs: int
    component_events: Dict[str, int]

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def sim_wall_ratio(self) -> float:
        """Simulated seconds per wall second (>1 = faster than real time)."""
        return self.sim_s / self.wall_s if self.wall_s > 0 else 0.0

    def format_text(self) -> str:
        lines = [
            "hot-path profile",
            f"  events          {self.events}",
            f"  simulator runs  {self.runs}",
            f"  wall time       {self.wall_s:.3f} s",
            f"  sim time        {self.sim_s:.3f} s",
            f"  events/sec      {self.events_per_sec:,.0f}",
            f"  sim/wall ratio  {self.sim_wall_ratio:.2f}x",
        ]
        if self.component_events:
            lines.append("  events by component:")
            width = max(len(name) for name in self.component_events)
            for name, count in sorted(self.component_events.items(),
                                      key=lambda item: (-item[1], item[0])):
                share = count / self.events if self.events else 0.0
                lines.append(f"    {name:<{width}}  {count:>10}"
                             f"  {share:6.1%}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "events": self.events,
            "runs": self.runs,
            "wall_s": self.wall_s,
            "sim_s": self.sim_s,
            "events_per_sec": self.events_per_sec,
            "sim_wall_ratio": self.sim_wall_ratio,
            "component_events": dict(sorted(
                self.component_events.items())),
        }

    def to_bench_json(self, name: str) -> Dict[str, Any]:
        """The profile in the ``BENCH_*.json`` (pytest-benchmark) shape.

        Benchmark results in this repo are pytest-benchmark JSON files
        with the interesting numbers under ``benchmarks[*].extra_info``;
        the CLI's ``--profile-json`` emits the same envelope so one set
        of tooling reads both.
        """
        return {
            "benchmarks": [{
                "group": "profile",
                "name": name,
                "extra_info": self.to_dict(),
            }],
        }


class HotPathProfiler:
    """Aggregates event counts and timings across simulator runs."""

    def __init__(self) -> None:
        self.component_events: Dict[str, int] = {}
        self.events = 0
        self.wall_s = 0.0
        self.sim_ns = 0
        self.runs = 0

    def record(self, callback: Callable[..., Any]) -> None:
        """Count one fired event (called from the engine's run loop)."""
        key = component_of(callback)
        counts = self.component_events
        counts[key] = counts.get(key, 0) + 1
        self.events += 1

    def record_run(self, sim_advance_ns: int, wall_s: float) -> None:
        """Account one completed ``Simulator.run`` call."""
        self.runs += 1
        self.sim_ns += sim_advance_ns
        self.wall_s += wall_s

    def report(self) -> ProfileReport:
        return ProfileReport(
            events=self.events,
            wall_s=self.wall_s,
            sim_s=self.sim_ns / _NS_PER_SEC,
            runs=self.runs,
            component_events=dict(self.component_events),
        )


#: The installed profiler, observed by every Simulator.run in-process.
_ACTIVE: Optional[HotPathProfiler] = None


def enable() -> HotPathProfiler:
    """Install (and return) a fresh global profiler."""
    global _ACTIVE
    _ACTIVE = HotPathProfiler()
    return _ACTIVE


def disable() -> Optional[HotPathProfiler]:
    """Uninstall the global profiler, returning it for reporting."""
    global _ACTIVE
    profiler, _ACTIVE = _ACTIVE, None
    return profiler


def current() -> Optional[HotPathProfiler]:
    """The installed profiler, or None when profiling is off."""
    return _ACTIVE


@contextmanager
def profiled() -> Iterator[HotPathProfiler]:
    """Scope a profiler around a block of simulation code."""
    profiler = enable()
    try:
        yield profiler
    finally:
        disable()


def monotonic() -> float:
    """Wall-clock read for throughput reporting (never simulation time)."""
    return time.monotonic()  # simlint: allow[D103] profiler wall clock


def write_bench_json(path: str, name: str, report: ProfileReport) -> None:
    """Write a profile to ``path`` in the ``BENCH_*.json`` shape."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.to_bench_json(name), handle, indent=2,
                  sort_keys=True)
        handle.write("\n")


__all__ = [
    "HotPathProfiler", "ProfileReport", "SCHEMA_VERSION", "component_of",
    "current", "disable", "enable", "monotonic", "profiled",
    "write_bench_json",
]
