"""Hot-path profiling: which component owns each executed event.

The engine's aggregate observer is the metrics registry
(:mod:`repro.obs.metrics`): while one is installed, every
:meth:`Simulator.run` counts its events per *component*, the class
owning the fired callback (``Link``, ``Host``,
``CebinaeControlPlane``, ...), and folds them in with the run's
simulated and wall time.  This module keeps the bucket rule and the
scope the CLI's ``--profile`` and the benchmark harness use::

    from repro.netsim import profiling
    with profiling.profiled() as registry:
        run_scenario(...)
    print(registry.component_events)

Profiling is in-process: points farmed out to worker processes by the
parallel executor are not observed, so profile with ``--workers 1``.
"""

from __future__ import annotations

from typing import Any, Callable

from ..obs.metrics import collected as profiled


def component_of(callback: Callable[..., Any]) -> str:
    """The profile bucket for a callback: owning class or module."""
    owner = getattr(callback, "__self__", None)
    if owner is not None:
        return type(owner).__name__
    qualname = getattr(callback, "__qualname__", None)
    if qualname:
        return qualname.split(".")[0]
    return type(callback).__name__


__all__ = ["component_of", "profiled"]
