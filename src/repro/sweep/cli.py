"""``cebinae-repro sweep``: drive the crash-resumable sweep fabric.

Typical lifecycle::

    cebinae-repro sweep init  SWEEP --suite examples/suites/tier1
    cebinae-repro sweep work  SWEEP &         # repeat for N workers
    cebinae-repro sweep watch SWEEP           # live fleet view
    cebinae-repro sweep status SWEEP
    # ... a worker dies, the host reboots, CI cancels the job ...
    cebinae-repro sweep resume SWEEP --workers 4
    cebinae-repro sweep merge SWEEP --out results.json

``init`` compiles a directory of declarative suite specs into the
fsynced manifest; ``work`` runs one worker process against it;
``status`` reports per-shard progress computed from the sweep
directory alone; ``watch`` renders the cross-worker fleet view
(:func:`repro.obs.aggregate.fleet_view`) on a refresh loop, or — with
``--once --json`` — prints the one canonical aggregate document CI and
tests parse; ``resume`` counts the resume in the metrics and finishes
the remaining tasks with N fresh workers
(:func:`start_workers`: in-process when N=1, otherwise N
``multiprocessing`` processes started from this already-imported one,
each running the body of ``work``); ``merge`` writes the ordered,
canonical merged result document — byte-identical regardless of which
workers ran which tasks in which order, because every payload comes
from the fingerprint-keyed cache.

Exit codes: 0 success; 1 incomplete (pending tasks remain after
resume, or merge found a missing or quarantined task); 2 usage/spec
errors; 3 interrupted (SIGTERM/SIGINT reached a worker, which released
its shard lock first; its completed results were stored as each
finished).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import os
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from ..experiments.parallel import (positive_count, positive_seconds,
                                    print_progress as _print,
                                    sigterm_as_interrupt)
from ..experiments.runner import BACKENDS
from ..obs.metrics import record_sweep
from .manifest import (ManifestError, SweepDir, SweepManifest,
                       manifest_from_specs)
from .worker import SweepWorker, WorkerConfig, worker_metrics

#: Exit code when a worker was stopped by SIGTERM/SIGINT.
EXIT_INTERRUPTED = 3


def _compile_suite(directory: str, backend: Optional[str],
                   shard_size: int) -> SweepManifest:
    """Compile every suite spec in ``directory`` into one manifest."""
    from ..suite.registry import SuiteRegistry
    specs = [spec.with_backend(backend)
             for spec in SuiteRegistry.from_directory(directory)]
    return manifest_from_specs(Path(directory).name, specs, shard_size)


def _cmd_init(args: argparse.Namespace) -> int:
    from ..suite.spec import SpecError
    try:
        manifest = _compile_suite(args.suite, args.backend,
                                  args.shard_size)
        SweepDir(args.directory).initialise(manifest, force=args.force)
    except (SpecError, ManifestError) as exc:
        _print(f"error: {exc}")
        return 2
    shards = len(manifest.shards())
    _print(f"[sweep] initialised {args.directory}: "
           f"{len(manifest.tasks)} task(s) in {shards} shard(s)")
    return 0


def _worker_config(args: argparse.Namespace) -> WorkerConfig:
    worker_id = args.worker_id or f"w{os.getpid()}"
    return WorkerConfig(worker_id=worker_id, retries=args.retries,
                        max_tasks=args.max_tasks)


def run_worker(sweep: SweepDir, config: WorkerConfig,
               quiet: bool = False, spans: bool = False) -> int:
    """Run one worker to completion in this process; its exit code.

    The body of ``sweep work``, and what :func:`start_workers` runs,
    here or in every process it starts.
    """
    progress = None if quiet else _print
    worker = SweepWorker(sweep, config, progress=progress)
    bus = sink = None
    if spans:
        # Lifecycle spans for this worker: sweep → shard → task (and,
        # below the tasks, run/phase/engine spans from the runner).
        from ..obs import bus as obs_bus
        from ..obs.sinks import JsonlTraceSink
        sweep.metrics_dir.mkdir(parents=True, exist_ok=True)
        sink = JsonlTraceSink(str(
            sweep.metrics_dir / f"{config.worker_id}.spans.jsonl"))
        bus = obs_bus.install(obs_bus.TraceBus())
        bus.subscribe("span", sink)
    try:
        report = worker.run()
    except ManifestError as exc:
        _print(f"error: {exc}")
        return 2
    finally:
        if bus is not None:
            from ..obs import bus as obs_bus
            obs_bus.uninstall()
            sink.close()
    if progress is not None:
        progress(f"[sweep] worker {report.worker_id}: "
                 f"{report.completed} completed, "
                 f"{report.quarantined} quarantined")
    return EXIT_INTERRUPTED if report.interrupted else 0


def _cmd_work(args: argparse.Namespace) -> int:
    return run_worker(SweepDir(args.directory), _worker_config(args),
                      spans=args.spans)


def _cmd_status(args: argparse.Namespace) -> int:
    sweep = SweepDir(args.directory)
    try:
        status = sweep.status()
    except ManifestError as exc:
        _print(f"error: {exc}")
        return 2
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    counts = status["counts"]
    print(f"sweep {status['name']}: {status['total']} task(s)  "
          f"done={counts['done']} quarantined={counts['quarantined']} "
          f"leased={counts['leased']} pending={counts['pending']}")
    for shard, info in status["shards"].items():
        print(f"  shard {shard}: {info['done']}/{info['total']} done"
              + (f"  quarantined={info['quarantined']}"
                 if info["quarantined"] else "")
              + (f"  worker={info['worker']}" if info["worker"] else ""))
    for fingerprint, record in sorted(sweep.quarantined().items()):
        failed = record["failed"]
        print(f"  quarantined {record.get('label', fingerprint)}: "
              f"{failed.get('error', '?')} "
              f"(attempts={failed.get('attempts', '?')})")
    return 0


def _render_watch(doc: Dict[str, Any]) -> str:
    """The terminal rendering of one aggregate document."""
    counts = doc["counts"]
    lines = [f"sweep {doc['sweep']}: {counts['done']}/{doc['total']} "
             f"done  quarantined={counts['quarantined']} "
             f"leased={counts['leased']} pending={counts['pending']}"]
    summary = []
    if doc["cache_hit_ratio"] is not None:
        summary.append(f"cache hits {doc['cache_hit_ratio']:.0%}")
    if doc["eta_s"] is not None:
        summary.append("ETA done" if doc["eta_s"] == 0
                       else f"ETA ~{doc['eta_s']:.0f}s")
    if summary:
        lines.append("  " + "  ".join(summary))
    if doc["workers"]:
        lines.append(f"  {'worker':<14} {'shards':<18} "
                     f"{'done':>5} {'quar':>5} {'t/min':>6}  last task")
        for row in doc["workers"]:
            shards = ",".join(key.replace("shard-", "")
                              for key in row["shards"]) or "-"
            rate = (f"{row['tasks_per_min']:.1f}"
                    if row["tasks_per_min"] is not None else "-")
            last = (row["last_task"]["label"]
                    if row["last_task"] is not None else "-")
            lines.append(f"  {row['worker']:<14} {shards:<18} "
                         f"{row['completed']:>5} "
                         f"{row['quarantined']:>5} {rate:>6}  {last}")
    if doc["snapshot_errors"]:
        lines.append("  unreadable snapshot(s): "
                     + ", ".join(doc["snapshot_errors"]))
    integrity = doc["integrity"]
    lines.append(f"  integrity: missing={integrity['missing_results']} "
                 f"orphans={integrity['orphan_results']}")
    return "\n".join(lines)


def _cmd_watch(args: argparse.Namespace) -> int:
    from ..obs.aggregate import fleet_view
    if args.json and not args.once:
        _print("error: --json requires --once (one canonical "
               "document, not a stream)")
        return 2
    sweep = SweepDir(args.directory)
    while True:
        try:
            doc = fleet_view(sweep)
        except ManifestError as exc:
            _print(f"error: {exc}")
            return 2
        if args.json:
            print(json.dumps(doc, indent=2, sort_keys=True))
            return 0
        if not args.once and sys.stdout.isatty():
            print("\x1b[2J\x1b[H", end="")
        print(_render_watch(doc), flush=True)
        finished = (doc["counts"]["pending"] == 0
                    and doc["counts"]["leased"] == 0)
        if args.once or finished:
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def _worker_process(directory: str, config: WorkerConfig,
                    quiet: bool) -> None:
    """Entry point of one process started by :func:`start_workers`."""
    try:
        code = run_worker(SweepDir(directory), config, quiet=quiet)
    except KeyboardInterrupt:
        # SIGTERM landed outside SweepWorker.run's own handling, on
        # the conversion inherited from start_workers.
        code = EXIT_INTERRUPTED
    sys.exit(code)


def start_workers(directory: str, count: int, template: WorkerConfig,
                  quiet: bool = False) -> int:
    """Run up to ``count`` workers over the sweep and wait for them all.

    Returns 0, or the exit code of a worker that failed.  No more
    workers run than the sweep has unfinished (pending or leased)
    tasks, and never fewer than one.  One worker is ``template``
    itself, run in this process.  More are processes ``resume-w0`` ..
    ``resume-w<count-1>``, copies of ``template`` under those ids.
    They are started with
    ``multiprocessing.get_context()`` -- the start policy of
    ``experiments.parallel.run_tasks`` -- so where that forks they
    begin from this already-imported process instead of a cold
    interpreter.  This process starts no thread and opens no shard
    lock first (each worker opens its own), which is what makes
    forking it safe.  A worker that exits ``EXIT_INTERRUPTED`` released
    its lock on a signal of its own and is tolerated; any other
    non-zero exit is returned.  SIGTERM (converted to
    ``TerminateSweep``, as in ``run_tasks``) or ^C here terminates and
    joins every worker (each releases its lock on the way out), then
    re-raises.
    """
    sweep = SweepDir(directory)
    unfinished = sweep.status()["counts"]
    count = max(1, min(count, unfinished["pending"] + unfinished["leased"]))
    if count == 1:
        return run_worker(sweep, template, quiet=quiet)
    context = multiprocessing.get_context()
    procs = [context.Process(
        target=_worker_process, name=f"resume-w{index}",
        args=(directory, dataclasses.replace(
            template, worker_id=f"resume-w{index}"), quiet))
        for index in range(count)]
    exit_code = 0
    try:
        # SIGTERM is converted before the first start, so no signal
        # can find workers running and this process without a handler;
        # each worker replaces the conversion with its own in
        # SweepWorker.run.
        with sigterm_as_interrupt():
            for proc in procs:
                proc.start()
            for proc in procs:
                proc.join()
                if proc.exitcode not in (0, EXIT_INTERRUPTED):
                    exit_code = proc.exitcode or 1
    except KeyboardInterrupt:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            if proc.pid is not None:
                proc.join()
        raise
    return exit_code


def _cmd_resume(args: argparse.Namespace) -> int:
    sweep = SweepDir(args.directory)
    try:
        sweep.load_manifest()
    except ManifestError as exc:
        _print(f"error: {exc}")
        return 2
    # The resume is counted in the snapshot of resume-w0, the worker
    # every resume runs, which carries it on (see repro.sweep.worker).
    config = WorkerConfig(worker_id="resume-w0", retries=args.retries)
    registry = worker_metrics(sweep, config.worker_id)
    record_sweep(registry, "resumes", worker=config.worker_id)
    sweep.metrics_dir.mkdir(parents=True, exist_ok=True)
    registry.write_json(str(sweep.metrics_path(config.worker_id)))
    code = start_workers(args.directory, args.workers, config,
                         quiet=args.quiet)
    if code != 0:
        return code

    status = sweep.status()
    counts = status["counts"]
    _print(f"[sweep] resume finished: {counts['done']}/"
           f"{status['total']} done, "
           f"{counts['quarantined']} quarantined, "
           f"{counts['pending']} pending")
    if counts["quarantined"]:
        for entry in sweep.outcomes():
            if entry["status"] == "quarantined":
                _print(f"[sweep]   quarantined {entry['label']}: "
                       f"{entry['failed'].get('error', '?')}")
    return 0 if counts["pending"] == 0 and counts["leased"] == 0 else 1


def _cmd_merge(args: argparse.Namespace) -> int:
    sweep = SweepDir(args.directory)
    try:
        manifest = sweep.load_manifest()
    except ManifestError as exc:
        _print(f"error: {exc}")
        return 2
    entries = sweep.outcomes()
    missing = sum(entry["status"] == "missing" for entry in entries)
    quarantined = sum(entry["status"] == "quarantined"
                      for entry in entries)
    document = {"sweep": manifest.name, "results": entries}
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        _print(f"[sweep] merged {len(entries)} result(s) "
               f"({missing} missing, {quarantined} quarantined) "
               f"-> {args.out}")
    else:
        print(text, end="")
    return 1 if missing or quarantined else 0


def _cmd_run(args: argparse.Namespace) -> int:
    code = _cmd_init(args)
    if code != 0:
        return code
    return _cmd_resume(args)


def _add_worker_options(parser: argparse.ArgumentParser) -> None:
    defaults = WorkerConfig(worker_id="")
    parser.add_argument("--retries", type=int, default=defaults.retries,
                        help="per-task retry budget before a "
                             "deterministic failure is quarantined")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cebinae-repro sweep",
        description="Crash-resumable sweeps: manifest of "
                    "fingerprinted tasks, shard-locking workers, "
                    "quarantine for poison tasks, kill -9-safe resume.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_init = sub.add_parser(
        "init", help="compile suite specs into a sweep manifest")
    p_init.add_argument("directory")
    p_init.add_argument("--suite", required=True,
                        help="directory of declarative suite specs")
    p_init.add_argument("--backend", choices=list(BACKENDS),
                        help="override the simulation backend for "
                             "dumbbell specs")
    p_init.add_argument("--shard-size", type=int, default=1,
                        help="tasks per lease shard (default 1)")
    p_init.add_argument("--force", action="store_true",
                        help="overwrite a differing existing manifest")
    p_init.set_defaults(handler=_cmd_init)

    p_work = sub.add_parser(
        "work", help="run one worker process against a sweep")
    p_work.add_argument("directory")
    p_work.add_argument("--worker-id",
                        help="stable worker name (default: w<pid>)")
    p_work.add_argument("--max-tasks", type=int,
                        help="stop after completing this many tasks")
    p_work.add_argument("--spans", action="store_true",
                        help="record lifecycle spans to "
                             "metrics/<worker>.spans.jsonl")
    _add_worker_options(p_work)
    p_work.set_defaults(handler=_cmd_work)

    p_status = sub.add_parser(
        "status", help="per-shard progress from the sweep dir alone")
    p_status.add_argument("directory")
    p_status.add_argument("--json", action="store_true")
    p_status.set_defaults(handler=_cmd_status)

    p_watch = sub.add_parser(
        "watch", help="refresh-loop fleet view: per-worker progress, "
                      "held shards, throughput, ETA")
    p_watch.add_argument("directory")
    p_watch.add_argument("--interval", type=positive_seconds,
                         default=2.0,
                         help="seconds between refreshes (default 2)")
    p_watch.add_argument("--once", action="store_true",
                         help="print one view and exit")
    p_watch.add_argument("--json", action="store_true",
                         help="with --once: print the canonical "
                              "aggregate document as JSON")
    p_watch.set_defaults(handler=_cmd_watch)

    p_resume = sub.add_parser(
        "resume", help="finish the sweep's remaining tasks")
    p_resume.add_argument("directory")
    p_resume.add_argument("--workers", type=positive_count, default=1)
    p_resume.add_argument("--quiet", action="store_true")
    _add_worker_options(p_resume)
    p_resume.set_defaults(handler=_cmd_resume)

    p_merge = sub.add_parser(
        "merge", help="write the ordered merged result document")
    p_merge.add_argument("directory")
    p_merge.add_argument("--out", help="output path (default: stdout)")
    p_merge.set_defaults(handler=_cmd_merge)

    p_run = sub.add_parser(
        "run", help="init + resume in one command")
    p_run.add_argument("directory")
    p_run.add_argument("--suite", required=True)
    p_run.add_argument("--backend", choices=list(BACKENDS))
    p_run.add_argument("--shard-size", type=int, default=1)
    p_run.add_argument("--force", action="store_true")
    p_run.add_argument("--workers", type=positive_count, default=1)
    p_run.add_argument("--quiet", action="store_true")
    _add_worker_options(p_run)
    p_run.set_defaults(handler=_cmd_run)

    args = parser.parse_args(argv)
    handler = args.handler
    try:
        return int(handler(args))
    except KeyboardInterrupt:
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
