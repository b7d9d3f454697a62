#!/usr/bin/env python3
"""Compare two ledger documents under the bounds of BENCHMARK.json.

    python3 benchmarks/ledger/compare.py A.json B.json

A and B are documents written by ``run.py --all --out``; A is the
base.  One row is printed per (workload, end-to-end metric) with both
values, the ratio B/A and whether B is worse than A by more than the
metric's bound; operations that failed in B but not in A are a breach
too.  Exit code 1 on any breach, 0 otherwise.

Exact counters of the traced runs (``sim.*``, ``events.*``,
``*.calls``) and the per-run result digests are compared separately:
a speed-only change must leave them identical, so every difference is
listed -- but a change that fixes behaviour may move them, so they
never affect the exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]


def breach(base: float, new: float, better: str, bound: float) -> bool:
    """Whether ``new`` is worse than ``base`` by more than ``bound``.

    ``bound`` is a share of the base value, in the metric's bad
    direction: +bound for lower-is-better, -bound for higher-is-better.
    """
    if better == "lower":
        return new > base * (1.0 + bound)
    return new < base * (1.0 - bound)


def is_exact_counter(name: str) -> bool:
    return (name.startswith(("sim.", "events."))
            or name.endswith(".calls"))


def _value(run: Optional[Dict[str, Any]], metric: str) -> Optional[float]:
    if run is None or metric not in run.get("metrics", {}):
        return None
    return float(run["metrics"][metric]["value"])


def compare(spec: Dict[str, Any], base: Dict[str, Any],
            new: Dict[str, Any]) -> Tuple[List[str], List[str], bool]:
    """(end-to-end rows, exact-counter differences, any breach)."""
    rows: List[str] = []
    differences: List[str] = []
    breached = False
    for workload in (w["name"] for w in spec["workloads"]):
        a_runs = base.get("runs", {}).get(workload, {})
        b_runs = new.get("runs", {}).get(workload, {})
        a_run, b_run = a_runs.get("untraced"), b_runs.get("untraced")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = _value(a_run, name), _value(b_run, name)
            if a is None or b is None:
                rows.append(f"{workload:20s} {name:18s} missing "
                            f"(A={a} B={b})  BREACH")
                breached = True
                continue
            bad = breach(a, b, metric["better"], metric["bound"])
            breached = breached or bad
            sign = "+" if metric["better"] == "lower" else "-"
            rows.append(
                f"{workload:20s} {name:18s} A={a:<12.6g} B={b:<12.6g} "
                f"B/A={b / a:6.3f} (base A, bound {sign}"
                f"{metric['bound']:.0%}, {metric['better']} is better)"
                f"{'  BREACH' if bad else ''}")
        if a_run is not None and b_run is not None:
            a_share = a_run["failed"] / a_run["attempted"]
            b_share = b_run["failed"] / b_run["attempted"]
            bad = b_share > a_share
            breached = breached or bad
            rows.append(f"{workload:20s} {'failed_share':18s} "
                        f"A={a_share:<12.6g} B={b_share:<12.6g} "
                        f"(no increase allowed)"
                        f"{'  BREACH' if bad else ''}")
        differences.extend(_exact_differences(
            workload, a_runs.get("traced"), b_runs.get("traced")))
        differences.extend(_digest_differences(workload, a_runs, b_runs))
    return rows, differences, breached


def _exact_differences(workload: str, a_run: Optional[Dict[str, Any]],
                       b_run: Optional[Dict[str, Any]]) -> List[str]:
    if a_run is None or b_run is None:
        return []
    out = []
    for name in a_run["metrics"]:
        if not is_exact_counter(name):
            continue
        a, b = _value(a_run, name), _value(b_run, name)
        if a != b:
            out.append(f"{workload:20s} {name:32s} A={a} B={b}")
    return out


def _digest_differences(workload: str, a_runs: Dict[str, Any],
                        b_runs: Dict[str, Any]) -> List[str]:
    def digests(runs: Dict[str, Any]) -> Dict[str, str]:
        run = runs.get("untraced") or runs.get("traced") or {}
        return {row["label"]: row["result_sha256"]
                for row in run.get("simulated", [])}
    a, b = digests(a_runs), digests(b_runs)
    return [f"{workload:20s} digest {label}"
            for label in sorted(set(a) & set(b)) if a[label] != b[label]]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="ledger document A (the base)")
    parser.add_argument("new", help="ledger document B")
    args = parser.parse_args(argv)
    documents = []
    for path in (ROOT / "BENCHMARK.json", args.base, args.new):
        with open(path, "r", encoding="utf-8") as handle:
            documents.append(json.load(handle))
    rows, differences, breached = compare(*documents)
    print("\n".join(rows))
    print(f"\nexact counters and digests that differ: {len(differences)}")
    print("\n".join(differences))
    if breached:
        print("\nBREACH: B is worse than A beyond a bound", file=sys.stderr)
    return 1 if breached else 0


if __name__ == "__main__":
    sys.exit(main())
