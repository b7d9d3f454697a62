"""``cebinae-repro suite <dir>``: run a directory of suite specs.

Loads every spec document in the directory, compiles them into the
parallel executor, prints a per-run report, and optionally checks or
regenerates the golden-conformance files::

    cebinae-repro suite examples/suites/tier1
    cebinae-repro suite examples/suites/tier1 --golden tests/golden
    cebinae-repro suite examples/suites/tier1 --update-golden tests/golden

``--golden`` compares the runs produced under the *current* debug
setting (``REPRO_DEBUG``) against the committed digests and exits 1 on
any mismatch; the CI ``suite-smoke`` job runs it with the gate on.
``--update-golden`` replays each spec with the debug gate off and on
in-process (refusing to write if the two disagree) and rewrites the
golden files.  ``cebinae-repro sweep run SWEEP --suite <dir>`` runs the
same directory crash-resumably, then ``sweep merge`` reads it back.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from ..experiments.parallel import positive_count
from ..experiments.runner import BACKENDS
from .golden import (check_golden, conformance_digests, result_digest,
                     run_compiled, write_golden)
from .registry import SuiteRegistry
from .spec import SpecError, SuiteSpec


def _format_run(label: str, result: Any) -> str:
    return (f"  {label:<40} JFI={result.jfi:6.3f} "
            f"goodput={result.total_goodput_bps / 1e6:7.2f} Mbps "
            f"events={result.events}")


def _describe_spec(spec: SuiteSpec) -> str:
    kind = "dumbbell" if spec.scenario is not None else "parking_lot"
    runs = len(spec.compile())
    parts = [f"{spec.name}: {kind}, {runs} run(s)"]
    if spec.grid:
        axes = ", ".join(f"{field}x{len(values)}"
                         for field, values in spec.grid)
        parts.append(f"grid[{axes}]")
    if spec.repeats > 1:
        parts.append(f"repeats={spec.repeats}")
    if spec.faults is not None and spec.faults.enabled:
        parts.append("faults")
    if spec.backend != "packet":
        parts.append(f"backend={spec.backend}")
    if spec.description:
        parts.append(f"— {spec.description}")
    return "  ".join(parts)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cebinae-repro suite",
        description="Run a directory of declarative scenario specs "
                    "through the parallel executor, with optional "
                    "golden-result conformance checking.")
    parser.add_argument("directory", help="suite directory of "
                        "*.json spec documents")
    parser.add_argument("--list", action="store_true",
                        help="list the specs and their compiled runs "
                             "without simulating")
    parser.add_argument("--workers", type=positive_count, default=1,
                        help="process-pool size (default 1: serial)")
    parser.add_argument("--cache-dir", default=".cebinae-cache",
                        help="directory for the on-disk result cache")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore cached results and re-simulate")
    parser.add_argument("--backend", choices=list(BACKENDS),
                        help="override the simulation backend for "
                             "every dumbbell spec in the directory "
                             "(parking-lot specs and specs that run "
                             "AFQ always run packet-level)")
    parser.add_argument("--golden", metavar="DIR",
                        help="check results against the golden files "
                             "in DIR; exit 1 on any mismatch")
    parser.add_argument("--update-golden", metavar="DIR",
                        help="replay each spec with the debug gate "
                             "off and on and rewrite its golden "
                             "file in DIR")
    parser.add_argument("--mismatch-out", metavar="PATH",
                        help="with --golden: also write a JSON "
                             "mismatch report to PATH (CI artifact)")
    args = parser.parse_args(argv)

    if args.golden and args.update_golden:
        parser.error("--golden and --update-golden are exclusive")
    if args.backend == "hybrid" and (args.golden or args.update_golden):
        # Golden digests pin the packet backend's byte-identical
        # contract; the hybrid tier is validated by tolerance, not
        # equality (see DESIGN.md §14).
        parser.error("--backend hybrid cannot be combined with "
                     "--golden/--update-golden")

    try:
        registry = SuiteRegistry.from_directory(args.directory)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    specs = [spec.with_backend(args.backend) for spec in registry]

    if args.list:
        for spec in specs:
            print(_describe_spec(spec))
            for run in spec.compile():
                print(f"  {run.label:<40} {run.fingerprint()}")
        return 0

    if args.update_golden:
        for spec in specs:
            print(f"=== {spec.name} (debug off|on replay) ===")
            digests = conformance_digests(spec)
            path = write_golden(args.update_golden, spec, digests)
            print(f"  wrote {path} ({len(digests)} run(s))")
        return 0

    mismatches: List[str] = []
    report: Dict[str, Any] = {}
    for spec in specs:
        print(f"=== {_describe_spec(spec)} ===")
        runs = spec.compile()
        results = run_compiled(
            runs, workers=args.workers,
            cache_dir=None if args.no_cache else args.cache_dir,
            use_cache=not args.no_cache)
        digests = {}
        for run, result in zip(runs, results):
            print(_format_run(run.label, result))
            entry = {"fingerprint": run.fingerprint()}
            entry.update(result_digest(result))
            digests[run.label] = entry
        if args.golden:
            found = check_golden(args.golden, spec, digests)
            mismatches.extend(found)
            report[spec.name] = {"mismatches": found,
                                 "digests": digests}
            status = "ok" if not found else \
                f"MISMATCH ({len(found)})"
            print(f"  golden: {status}")

    if args.golden:
        if args.mismatch_out:
            with open(args.mismatch_out, "w",
                      encoding="utf-8") as handle:
                json.dump({"mismatches": mismatches,
                           "specs": report}, handle, indent=2,
                          sort_keys=True)
                handle.write("\n")
        if mismatches:
            print(f"{len(mismatches)} golden mismatch(es):",
                  file=sys.stderr)
            for line in mismatches:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"golden conformance: all {len(registry)} spec(s) ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
