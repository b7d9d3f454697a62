"""The sweep worker: claim tasks, run them, stream results, survive.

A worker is one independent process (``cebinae-repro sweep work
<dir>``) holding no sweep state beyond the one task lock it holds.
Its loop:

1. walk the manifest in order for a runnable task (not done, not
   quarantined) and try to lock it
   (:class:`~repro.sweep.lease.LeaseStore`);
2. having won the lock, run the task in-process unless a peer
   finished it meanwhile, storing its result into the sweep's
   :class:`~repro.experiments.parallel.ResultCache` the moment it
   finishes (streaming: a crash loses at most the in-flight task);
3. the task goes through the executor's one lifecycle,
   :func:`~repro.experiments.parallel.settle` (attempt, seeded
   backoff, retry, store); a task it gives up on — retry budget
   spent, or a deterministic casualty — is **quarantined** instead of
   wedging the sweep;
4. release the lock and move on; exit when a full scan finds no
   runnable task anywhere.  A scan that claims nothing (every runnable
   task is locked by a live peer) idles before the next one, backing
   off geometrically from :data:`IDLE_FLOOR_S` up to ``poll_s``; any
   successful claim resets the back-off.

SIGTERM (converted by the executor's
:func:`~repro.experiments.parallel.sigterm_as_interrupt`) and SIGINT
raise ``KeyboardInterrupt`` at the next bytecode boundary: the worker
releases its lock, writes its metrics snapshot, and exits — every
completed result is on disk already.  SIGKILL skips all of that, and
needs none of it: the kernel drops a dead process's locks, so its
task is free to the next scan.

A worker id can run more than once over a sweep (every ``sweep
resume`` starts ``resume-w0`` ..): each run continues the id's previous
metrics snapshot rather than replacing it, so the fleet's counters
accumulate over every run of the sweep.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Union

from ..experiments.parallel import FailedRun, settle, sigterm_as_interrupt
from ..obs import spans as obs_spans
from ..obs.metrics import MetricsRegistry, load_snapshot, record_sweep
from .lease import LeaseStore
from .manifest import ManifestError, ManifestTask, SweepDir, SweepManifest

#: First idle delay after a scan that claimed nothing; each further
#: empty scan doubles it, up to ``WorkerConfig.poll_s``.  A few ms, so
#: the worker that runs out of claimable tasks first notices the end
#: of the sweep within about a task length of its peers finishing.
IDLE_FLOOR_S = 0.004


def worker_metrics(sweep: SweepDir, worker_id: str) -> MetricsRegistry:
    """``worker_id``'s metrics so far: its last snapshot, or empty.

    A missing, torn or foreign snapshot starts afresh (metrics are
    best-effort, as in :meth:`SweepWorker._write_metrics`).
    """
    try:
        with open(sweep.metrics_path(worker_id), "r",
                  encoding="utf-8") as handle:
            return load_snapshot(json.load(handle))
    except (OSError, ValueError, KeyError, TypeError):
        return MetricsRegistry()


@dataclass
class WorkerConfig:
    """Tunables of one worker process."""

    worker_id: str
    retries: int = 1
    backoff_base_s: float = 0.05
    #: Longest idle between scans when every runnable task is locked
    #: by a live peer (the cap of the geometric back-off).
    poll_s: float = 0.5
    #: Stop after completing this many tasks (None = run to the end);
    #: the chaos tests use it to park workers at exact progress points.
    max_tasks: Optional[int] = None


@dataclass
class WorkerReport:
    """What one worker run accomplished."""

    worker_id: str
    completed: int = 0
    quarantined: int = 0
    interrupted: bool = False


class SweepWorker:
    """One worker process's claim-run-stream loop."""

    def __init__(self, sweep: SweepDir, config: WorkerConfig,
                 progress: Optional[Callable[[str], None]] = None,
                 registry: Optional[MetricsRegistry] = None,
                 idle_sleep: Callable[[float], None] = time.sleep
                 ) -> None:
        self.sweep = sweep
        self.config = config
        self.progress = progress
        self.registry = registry or worker_metrics(sweep,
                                                   config.worker_id)
        #: Injectable so the idle back-off is testable without waiting.
        self._idle_sleep = idle_sleep

    # -- plumbing ----------------------------------------------------------
    def _emit(self, message: str) -> None:
        if self.progress is not None:
            self.progress(f"[{self.config.worker_id}] {message}")

    def _count(self, event: str, amount: float = 1) -> None:
        record_sweep(self.registry, event,
                     worker=self.config.worker_id, amount=amount)

    def _write_metrics(self) -> None:
        """Atomically publish this worker's live metrics snapshot.

        Called after every finished task (and at exit) so ``sweep
        watch`` always reads a current, whole document: the snapshot is
        staged to a worker-unique temp file and renamed into place, and
        stamped with ``captured_at`` so readers can judge staleness.
        """
        try:
            self.sweep.metrics_dir.mkdir(parents=True, exist_ok=True)
            path = self.sweep.metrics_path(self.config.worker_id)
            temp = path.with_name(path.name + f".tmp-{os.getpid()}")
            self.registry.write_json(
                str(temp),
                captured_at=time.monotonic())  # simlint: allow[D103] snapshot staleness stamp
            os.replace(temp, path)
        except OSError:
            pass    # Metrics are best-effort; never fail the sweep.

    # -- the loop ----------------------------------------------------------
    def run(self) -> WorkerReport:
        """Work until nothing runnable remains (or a signal stops us)."""
        report = WorkerReport(worker_id=self.config.worker_id)
        manifest = self.sweep.load_manifest()
        store = LeaseStore(self.sweep.lease_dir)
        cache = self.sweep.cache()
        # Host-level lifecycle span over the whole worker run (None
        # when no bus carries the span topic — the default).
        sweep_span = obs_spans.open_span("sweep", manifest.name,
                                         sim_clock=False)
        with sigterm_as_interrupt():
            try:
                self._loop(manifest, store, cache, report)
            except KeyboardInterrupt as exc:
                report.interrupted = True
                self._emit(f"shutdown ({type(exc).__name__}): lease "
                           f"released, {report.completed} completed "
                           f"result(s) already stored")
                self._count("interrupts")
            finally:
                if sweep_span is not None:
                    sweep_span.count = report.completed
                    obs_spans.close_span(
                        sweep_span,
                        status="error" if report.interrupted else "ok")
                self._write_metrics()
        return report

    def _loop(self, manifest: SweepManifest, store: LeaseStore,
              cache: Any, report: WorkerReport) -> None:
        idle_s = IDLE_FLOOR_S
        while True:
            claimed_any = False
            remaining = 0
            for task in manifest.tasks:
                if (self.sweep.is_done(task.fingerprint)
                        or self.sweep.is_quarantined(task.fingerprint)):
                    continue
                remaining += 1
                lease = store.claim(task.lease_key,
                                    self.config.worker_id)
                if lease is None:
                    continue
                claimed_any = True
                try:
                    # The lock's last holder may have finished it.
                    if not self.sweep.is_done(task.fingerprint):
                        self._run_task(manifest, task, cache, report)
                finally:
                    store.release(lease)
                if (self.config.max_tasks is not None
                        and report.completed >= self.config.max_tasks):
                    self._emit(f"max-tasks budget "
                               f"({self.config.max_tasks}) reached")
                    return
            if remaining == 0:
                return
            if claimed_any:
                idle_s = IDLE_FLOOR_S
            else:
                # Everything runnable is locked by live peers: idle,
                # then rescan (the sweep may finish, or a peer let go).
                self._idle_sleep(min(idle_s, self.config.poll_s))
                idle_s *= 2.0

    def _run_task(self, manifest: SweepManifest, mtask: ManifestTask,
                  cache: Any, report: WorkerReport) -> None:
        with obs_spans.span("task", mtask.label,
                            sim_clock=False) as task_span:
            outcome: Union[Dict[str, Any], FailedRun]
            try:
                task = manifest.task(mtask)
            except ManifestError as exc:
                # Never attempted: parked like a poison task, so one
                # damaged entry costs one task and not the sweep.
                outcome = FailedRun(label=mtask.label, error=str(exc),
                                    attempts=0)
            else:
                self._emit(f"start  {mtask.label}")
                outcome = settle(
                    task, cache=cache, retries=self.config.retries,
                    backoff_base_s=self.config.backoff_base_s,
                    progress=self._emit)
            if isinstance(outcome, FailedRun):
                self.sweep.quarantine(mtask, outcome,
                                      self.config.worker_id)
                report.quarantined += 1
                self._count("tasks_quarantined")
                self._write_metrics()
                self._emit(f"QUARANTINED {mtask.label} after "
                           f"{outcome.attempts} attempt(s): "
                           f"{outcome.error}")
                return
            report.completed += 1
            if task_span is not None:
                task_span.count = 1
            self._count("tasks_completed")
            self._count("last_task_index", mtask.index)
            self.registry.counter(
                "sweep_task_wall_seconds_total",
                worker=self.config.worker_id).inc(outcome["elapsed_s"])
            self._write_metrics()
            self._emit(f"done   {mtask.label}  "
                       f"wall {outcome['elapsed_s']:.2f}s")
