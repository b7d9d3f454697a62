"""Command-line entry point: ``cebinae-repro <experiment>``.

Runs any of the paper's experiments and prints the report that feeds
EXPERIMENTS.md.  A scenario experiment is its suite documents under
``repro/experiments/paper/``, compiled and run by ``run_grid``.
``--quick`` caps every point's duration for smoke runs, and
``--wall-limit`` bounds every point's wall clock.  ``fidelity`` judges
the paper's claims over five seeds (:mod:`repro.experiments.fidelity`)
and ``--out`` writes its document.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from contextlib import nullcontext
from typing import Any, ContextManager, List, Optional, Tuple

from ..core.resource_model import estimate_resources
from ..heavyhitter.evaluation import DetectionResult, \
    sweep_round_interval, sweep_slot_count
from ..suite.registry import paper_spec
from . import report
from .parallel import RunFailed, positive_count, positive_seconds, \
    run_grid
from .table2 import PAPER_TABLE2

#: Every experiment the CLI runs, in the order ``all`` runs them.
CHOICES = ("table2", "figure1", "figure7", "figure8", "figure9",
           "figure10", "figure11", "figure12", "figure13",
           "table3", "scalability", "faults", "fidelity", "all")

#: Experiments excluded from ``all`` (opt-in extras, not paper tables).
NOT_IN_ALL = ("all", "faults", "fidelity")

#: ``--quick``'s cap on every point's simulated seconds.
QUICK_DURATION_S = 15.0

#: The scenario experiments: per name, its paper documents in run order
#: and the report that prints their comparisons.
EXPERIMENTS = {
    "table2": (tuple(PAPER_TABLE2), report.table2_report),
    "figure1": (("figure1",), report.figure1_report),
    "figure7": (("figure7",), report.bar_figure_report),
    "figure8": (("figure8a", "figure8b"), report.bar_figure_report),
    "figure9": (("figure9",), report.figure9_report),
    "figure10": (("figure10",), report.figure10_report),
    "figure11": (("figure11",), report.figure11_report),
    "figure12": (("figure12", "figure12_tau"), report.figure12_report),
    "scalability": (("scalability",), report.scalability_report),
    "faults": (tuple(report.FAULT_INTENSITIES), report.faults_report),
}


#: Figure 13's grids, keyed by ``quick``: 13a's round intervals (ms) at
#: 512 slots per stage, then 13b's slots per stage at 10 ms rounds.  Both
#: reach the small caches that miss heavy hitters.
FIGURE13_GRIDS = {True: ((10, 50, 100), (128, 512, 2048)),
                  False: ((10, 20, 50, 100), (128, 256, 512, 1024, 2048))}


def figure13_results(quick: bool, **pool: Any) -> List[DetectionResult]:
    """Figure 13's detection grids, 13a then 13b, over ``pool``."""
    trials = 1 if quick else 10
    duration = 0.15 if quick else 0.5
    intervals_ms, slot_options = FIGURE13_GRIDS[quick]
    results = sweep_round_interval(
        intervals_ms=intervals_ms, slots_per_stage=512,
        trials=trials, trace_duration_s=duration, **pool)
    # 10, not 10.0: the same fingerprint as 13a's 10 ms cells, so
    # 13b's 512-slot cells replay from the cache.
    return results + sweep_slot_count(
        slot_options=slot_options, round_interval_ms=10,
        trials=trials, trace_duration_s=duration, **pool)


def _table2_documents(rows: Optional[List[int]]) -> Tuple[str, ...]:
    """The selected Table 2 row documents (1-based); all when none given."""
    documents, _ = EXPERIMENTS["table2"]
    if not rows:
        return documents
    bad = [row for row in rows if not 1 <= row <= len(documents)]
    if bad:
        raise ValueError(f"table2 rows are 1..{len(documents)}, "
                         f"got {bad}")
    repeated = sorted({row for row in rows if rows.count(row) > 1})
    if repeated:
        raise ValueError(f"table2 rows are each selected once, "
                         f"got {repeated} more than once")
    return tuple(documents[row - 1] for row in rows)


def run_experiment(name: str, quick: bool = False,
                   rows: Optional[List[int]] = None,
                   workers: int = 1,
                   cache_dir: Optional[str] = None,
                   use_cache: bool = True,
                   wall_limit_s: Optional[float] = None,
                   max_duration_s: Optional[float] = None) -> str:
    """Run one experiment by name and return its report text.

    ``workers``/``cache_dir``/``use_cache`` flow into the parallel
    executor: independent simulation points fan out over a process
    pool, and finished points are replayed from the on-disk cache.
    ``wall_limit_s`` bounds each point of a scenario experiment (its
    watchdog and the pool's timeout); a point that breaches it raises.
    ``max_duration_s`` caps a scenario experiment's points (``quick``
    caps them at :data:`QUICK_DURATION_S`).
    """
    pool = {"workers": workers, "cache_dir": cache_dir,
            "use_cache": use_cache}
    if name in EXPERIMENTS:
        documents, print_report = EXPERIMENTS[name]
        if name == "table2":
            documents = _table2_documents(rows)
        if max_duration_s is None and quick:
            max_duration_s = QUICK_DURATION_S
        points = [dataclasses.replace(run.runspec,
                                      wall_limit_s=wall_limit_s)
                  for document in documents
                  for run in paper_spec(document)
                  .with_duration_cap(max_duration_s).compile()]
        return print_report(run_grid(points, timeout_s=wall_limit_s,
                                     **pool))
    if name == "figure13":
        return report.figure13_report(figure13_results(quick, **pool))
    if name == "table3":
        lines = ["Table 3: Cebinae data plane resource usage"]
        for stages in (1, 2):
            usage = estimate_resources(cache_stages=stages)
            lines.append(
                f"  {stages}-stage: PHV={usage.phv_bits}b "
                f"SRAM={usage.sram_kb}KB TCAM={usage.tcam_kb}KB "
                f"VLIW={usage.vliw_instructions} "
                f"queues={usage.queues} "
                f"(max util {usage.max_utilization:.1%})")
        return "\n".join(lines)
    raise ValueError(f"unknown experiment {name!r}")


def _cache_main(argv: List[str]) -> int:
    """``cebinae-repro cache gc [--cache-dir DIR] [--json]``."""
    import json

    from .parallel import ResultCache
    parser = argparse.ArgumentParser(
        prog="cebinae-repro cache",
        description="Maintain the on-disk result cache.  'gc' detects "
                    "and removes corrupted, truncated, and "
                    "foreign-schema entries (the read path treats "
                    "them as misses, but they linger on disk forever) "
                    "plus temp files orphaned by crashed writers, and "
                    "reports the bytes reclaimed.")
    parser.add_argument("action", choices=("gc",))
    parser.add_argument("--cache-dir", default=".cebinae-cache",
                        help="cache directory (default .cebinae-cache)")
    parser.add_argument("--json", action="store_true",
                        help="print the report as JSON")
    args = parser.parse_args(argv)
    summary = ResultCache(args.cache_dir).prune()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(f"cache gc {args.cache_dir}: kept {summary['kept']} "
          f"entr(y/ies), removed {len(summary['removed'])}, "
          f"reclaimed {summary['reclaimed_bytes']} bytes")
    for name in summary["removed"]:
        print(f"  removed {name}")
    return 0


def _fidelity(args: argparse.Namespace, start: float) -> str:
    """Judge every target, write ``--out`` (with the wall clock since
    ``start``) and return the report."""
    from .fidelity import dump, fidelity, fidelity_report
    document = fidelity(workers=args.workers, cache_dir=args.cache_dir,
                        use_cache=not args.no_cache,
                        wall_limit_s=args.wall_limit)
    # Host-side wall clock, recorded beside the judged samples.
    document["wall_s"] = round(
        time.monotonic() - start, 1)  # simlint: allow[D103] CLI timer
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(dump(document))
    return fidelity_report(document)


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # ``cebinae-repro lint <paths>``: the simlint analyzer
        # (determinism / hygiene rules; see
        # repro.analysis.linter).  Shares exit-code semantics with
        # ``python tools/simlint.py``.
        from ..analysis.cli import main as lint_main
        return lint_main(argv[1:])
    if argv and argv[0] == "trace":
        # ``cebinae-repro trace <scenario> --events <topics> --out
        # <dir>``: run one scenario with the repro.obs trace bus on and
        # write deterministic JSONL/metrics artifacts.
        from ..obs.cli import main as trace_main
        return trace_main(argv[1:])
    if argv and argv[0] == "suite":
        # ``cebinae-repro suite <dir>``: run a directory of declarative
        # scenario specs through the parallel executor, with optional
        # golden-result conformance checking (see repro.suite).
        from ..suite.cli import main as suite_main
        return suite_main(argv[1:])
    if argv and argv[0] == "sweep":
        # ``cebinae-repro sweep init|work|watch|status|resume|merge|
        # run``: the crash-resumable distributed sweep fabric (see
        # repro.sweep): manifest of fingerprinted tasks, lease-claiming
        # workers, quarantine, kill -9-safe resume, live fleet watch.
        from ..sweep.cli import main as sweep_main
        return sweep_main(argv[1:])
    if argv and argv[0] == "cache":
        # ``cebinae-repro cache gc``: prune corrupted/truncated result
        # cache entries (silent misses that linger on disk forever).
        return _cache_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="cebinae-repro",
        description="Reproduce the Cebinae (SIGCOMM 2022) evaluation. "
                    "Also: 'cebinae-repro lint <paths>' runs the "
                    "simlint determinism/hygiene analyzer; "
                    "'cebinae-repro trace <scenario>' runs one "
                    "scenario with structured event tracing on; "
                    "'cebinae-repro suite <dir>' runs a directory of "
                    "declarative scenario specs with golden-result "
                    "conformance checking; 'cebinae-repro sweep ...' "
                    "drives the crash-resumable distributed sweep "
                    "fabric; 'cebinae-repro cache gc' prunes corrupt "
                    "result-cache entries.")
    parser.add_argument("experiment", choices=CHOICES)
    parser.add_argument("--quick", action="store_true",
                        help="cap every point at "
                             f"{QUICK_DURATION_S:g} s for smoke runs")
    parser.add_argument("--rows", type=int, nargs="*",
                        help="table2 only: 1-based row numbers")
    parser.add_argument("--workers", type=positive_count, default=1,
                        help="process-pool size for independent "
                             "simulation points (default 1: serial)")
    parser.add_argument("--cache-dir", default=".cebinae-cache",
                        help="directory for the on-disk result cache")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore cached results and re-simulate "
                             "every point")
    parser.add_argument("--wall-limit", type=positive_seconds,
                        metavar="SECONDS",
                        help="per-point wall-clock watchdog for the "
                             "scenario experiments; a wedged point "
                             "ends the run with an error instead of "
                             "hanging it")
    parser.add_argument("--profile", action="store_true",
                        help="profile the simulator hot path: "
                             "per-component event counts, events/sec "
                             "and the sim/wall ratio (in-process "
                             "runs only; use --workers 1 --no-cache)")
    parser.add_argument("--out", metavar="PATH",
                        help="fidelity only: write the judged document "
                             "(per-seed samples, verdicts) as JSON")
    args = parser.parse_args(argv)
    # Usage errors end here, in one line and exit 2, before anything
    # runs; run_experiment raises the same for bad rows.
    if args.wall_limit is not None and args.experiment in ("figure13",
                                                           "table3"):
        parser.error("--wall-limit applies to the scenario experiments, "
                     f"not {args.experiment!r}")
    if args.experiment == "fidelity" and args.quick:
        parser.error("--quick does not apply to 'fidelity': its targets "
                     "are defined at the documents' durations")
    if args.out is not None and args.experiment != "fidelity":
        parser.error(f"--out applies to 'fidelity', not "
                     f"{args.experiment!r}")
    if args.rows is not None and args.experiment not in ("table2", "all"):
        parser.error("--rows applies to 'table2' (or 'all'), not "
                     f"{args.experiment!r}")
    try:
        _table2_documents(args.rows)
    except ValueError as exc:
        parser.error(str(exc))
    names = [name for name in CHOICES if name not in NOT_IN_ALL] \
        if args.experiment == "all" else [args.experiment]
    profile_scope: ContextManager[Any] = nullcontext()
    if args.profile:
        from ..netsim import profiling
        profile_scope = profiling.profiled()
        if args.workers > 1 or not args.no_cache:
            print("note: --profile observes in-process simulations "
                  "only; points run by pool workers or replayed from "
                  "the cache are not counted (use --workers 1 "
                  "--no-cache for full coverage)")
    with profile_scope as registry:
        for name in names:
            # Host-side progress timing, not simulation time.
            # Monotonic, because time.time() can step backwards under
            # NTP and print a negative duration.
            start = time.monotonic()  # simlint: allow[D103] CLI timer
            print(f"=== {name} ===")
            try:
                if name == "fidelity":
                    text = _fidelity(args, start)
                else:
                    text = run_experiment(
                        name, quick=args.quick, rows=args.rows,
                        workers=args.workers, cache_dir=args.cache_dir,
                        use_cache=not args.no_cache,
                        wall_limit_s=args.wall_limit)
            except RunFailed as exc:
                # A point that failed for good (a watchdog abort, or a
                # crash after its retries): one line, exit 1.
                print(f"{parser.prog}: error: {exc}", file=sys.stderr)
                return 1
            print(text)
            elapsed = time.monotonic() - start  # simlint: allow[D103] CLI timer
            print(f"[{name}: {elapsed:.1f}s]\n")
    if registry is not None:
        print(report.profile_report(registry))
    return 0


if __name__ == "__main__":
    sys.exit(main())
