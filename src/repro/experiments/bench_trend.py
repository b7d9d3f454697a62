"""Benchmark trend folding: many ``BENCH_*.json`` files, one table.

This module is the home of the normalised-ratio logic the CI
perf-smoke gate uses (``tools/bench_trend.py --gate``), plus the trend
layer above it: fold several benchmark artifacts — the hotpath and
hybrid pytest-benchmark runs, the obs-overhead smoke document — into
one per-metric table with regression flagging, rendered as JSON
(``BENCH_trend.json``) and markdown (``BENCH_trend.md``) for the CI
artifact upload.

Two artifact shapes are understood:

* pytest-benchmark output (a ``benchmarks`` list) — each entry's
  ``stats.median`` becomes a timing row, and numeric ``extra_info``
  entries become auxiliary metrics named ``<bench>.<key>``;
* baseline documents written by ``write_baseline`` (a ``medians``
  mapping under :data:`BASELINE_SCHEMA_VERSION`).

Benchmarks without ``stats`` (the obs-overhead smoke emits
``extra_info`` only) contribute metrics but no timing row, and never
fail the load.

Normalisation (unchanged from the CI gate): medians are divided by the
geometric mean over the benchmarks common to current and baseline, so
a machine-speed factor cancels and only *relative* movement — one code
path slowing against its peers — registers as a regression.

Everything here is fully typed: the regression gate runs under
``mypy --strict`` and calls straight into this module.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Baseline document version; bump on layout changes.
BASELINE_SCHEMA_VERSION = 1

#: Trend document version; bump on layout changes.
TREND_SCHEMA_VERSION = 1


def load_medians(path: str) -> Dict[str, float]:
    """Per-benchmark median seconds from either file format.

    Accepts a raw pytest-benchmark JSON document (``benchmarks`` list)
    or a baseline written by :func:`write_baseline` (``medians``
    mapping).
    """
    document = load_bench_document(path)
    if not document["medians"]:
        raise ValueError(f"{path}: no benchmarks found")
    return dict(document["medians"])


def load_bench_document(path: str) -> Dict[str, Dict[str, float]]:
    """``{"medians": ..., "metrics": ...}`` from one benchmark file.

    The tolerant reader behind :func:`load_medians` and the trend
    table: stats-less benchmarks yield no median (instead of raising),
    and numeric non-bool ``extra_info`` values surface as metrics
    named ``<bench>.<key>``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    medians: Dict[str, float] = {}
    metrics: Dict[str, float] = {}
    if "medians" in data:
        version = data.get("schema_version")
        if version != BASELINE_SCHEMA_VERSION:
            raise ValueError(
                f"{path}: baseline schema_version {version!r} is not "
                f"{BASELINE_SCHEMA_VERSION}")
        for name, value in data["medians"].items():
            medians[str(name)] = float(value)
        return {"medians": medians, "metrics": metrics}
    for bench in data.get("benchmarks", ()):
        name = str(bench.get("name", "?"))
        stats = bench.get("stats")
        if isinstance(stats, dict) and "median" in stats:
            medians[name] = float(stats["median"])
        extra = bench.get("extra_info")
        if isinstance(extra, dict):
            for key in sorted(extra):
                value = extra[key]
                if isinstance(value, bool) or \
                        not isinstance(value, (int, float)):
                    continue
                metrics[f"{name}.{key}"] = float(value)
    return {"medians": medians, "metrics": metrics}


def write_baseline(path: str, medians: Dict[str, float]) -> None:
    document = {
        "schema_version": BASELINE_SCHEMA_VERSION,
        "note": "normalised-ratio baseline for tools/bench_trend.py "
                "--gate; regenerate with tools/bench_trend.py "
                "BENCH_hotpath.json --write-baseline THIS_FILE after "
                "intentional perf changes",
        "medians": {name: medians[name] for name in sorted(medians)},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def normalised(medians: Dict[str, float],
               names: List[str]) -> Dict[str, float]:
    """Each median divided by the geomean over ``names``."""
    logs = [math.log(medians[name]) for name in names
            if medians[name] > 0]
    if not logs:
        raise ValueError("no positive medians to normalise against")
    geomean = math.exp(sum(logs) / len(logs))
    return {name: medians[name] / geomean for name in names}


# -- the trend table ----------------------------------------------------

def _ratios(medians: Dict[str, float],
            baseline: Optional[Dict[str, float]],
            threshold: float) -> Dict[str, Tuple[Optional[float], str]]:
    """name → (normalised ratio vs baseline, flag) for timing rows."""
    out: Dict[str, Tuple[Optional[float], str]] = {
        name: (None, "unbaselined") for name in medians}
    if baseline is None:
        return out
    common = sorted(set(medians) & set(baseline))
    if not common:
        return out
    current_norm = normalised(medians, common)
    baseline_norm = normalised(baseline, common)
    for name in common:
        ratio = current_norm[name] / baseline_norm[name]
        flag = "REGRESSION" if ratio > 1.0 + threshold else "ok"
        out[name] = (ratio, flag)
    return out


def build_trend(paths: Sequence[str],
                baseline_path: Optional[str] = None,
                threshold: float = 0.10) -> Dict[str, Any]:
    """Fold benchmark artifacts into the one trend document.

    Timing rows from every artifact are pooled (names are unique per
    suite by construction) and flagged against ``baseline_path`` with
    the same normalised-ratio rule as the CI gate; auxiliary metrics
    ride along unflagged.  Missing artifact files are recorded under
    ``missing`` rather than raising — a partial CI run still gets a
    report, with the gap named instead of silently absent.
    """
    medians: Dict[str, float] = {}
    source_of: Dict[str, str] = {}
    metrics: List[Dict[str, Any]] = []
    sources: List[str] = []
    missing: List[str] = []
    for path in paths:
        base = os.path.basename(path)
        try:
            document = load_bench_document(path)
        except (OSError, ValueError):
            missing.append(base)
            continue
        sources.append(base)
        for name, value in document["medians"].items():
            medians[name] = value
            source_of[name] = base
        for name in sorted(document["metrics"]):
            metrics.append({"name": name,
                            "value": document["metrics"][name],
                            "source": base})
    baseline: Optional[Dict[str, float]] = None
    if baseline_path is not None:
        try:
            baseline = load_medians(baseline_path)
        except (OSError, ValueError):
            missing.append(os.path.basename(baseline_path))
    flags = _ratios(medians, baseline, threshold)
    rows: List[Dict[str, Any]] = []
    for name in sorted(medians):
        ratio, flag = flags[name]
        rows.append({
            "name": name,
            "median_s": medians[name],
            "source": source_of[name],
            "normalised_ratio":
                None if ratio is None else round(ratio, 4),
            "flag": flag,
        })
    return {
        "trend_version": TREND_SCHEMA_VERSION,
        "threshold": threshold,
        "sources": sources,
        "missing": missing,
        "rows": rows,
        "metrics": metrics,
        "regressions": [row["name"] for row in rows
                        if row["flag"] == "REGRESSION"],
    }


def format_trend(document: Dict[str, Any]) -> str:
    """The markdown rendering of one trend document."""
    lines = ["# Benchmark trend", ""]
    lines.append("| benchmark | median (s) | vs baseline | flag |")
    lines.append("|---|---:|---:|---|")
    for row in document["rows"]:
        ratio = row["normalised_ratio"]
        rendered = "-" if ratio is None else f"x{ratio:.2f}"
        lines.append(f"| {row['name']} | {row['median_s']:.6f} "
                     f"| {rendered} | {row['flag']} |")
    if document["metrics"]:
        lines.extend(["", "| metric | value | source |", "|---|---:|---|"])
        for metric in document["metrics"]:
            lines.append(f"| {metric['name']} | {metric['value']:g} "
                         f"| {metric['source']} |")
    if document["missing"]:
        lines.extend(["", "Missing artifacts: "
                      + ", ".join(document["missing"])])
    if document["regressions"]:
        lines.extend(["", "**"
                      + f"{len(document['regressions'])} regression(s): "
                      + ", ".join(document["regressions"]) + "**"])
    return "\n".join(lines) + "\n"


def report_main(argv: Optional[List[str]] = None) -> int:
    """``cebinae-repro bench report`` / ``tools/bench_trend.py``."""
    parser = argparse.ArgumentParser(
        prog="cebinae-repro bench report",
        description="Fold BENCH_*.json artifacts into one per-metric "
                    "trend table with normalised-ratio regression "
                    "flagging.")
    parser.add_argument("artifacts", nargs="+",
                        help="benchmark JSON files (pytest-benchmark "
                             "output or baseline documents)")
    parser.add_argument("--baseline",
                        help="baseline to flag regressions against")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="allowed normalised-cost growth "
                             "(default 0.10 = +10%%)")
    parser.add_argument("--out", help="write the JSON document here")
    parser.add_argument("--markdown",
                        help="write the markdown table here")
    parser.add_argument("--gate", action="store_true",
                        help="exit 1 on any flagged regression "
                             "(default: informational, exit 0)")
    parser.add_argument("--write-baseline", metavar="PATH",
                        help="write the artifacts' medians as the new "
                             "baseline (after an intentional perf "
                             "change moved the geomean)")
    args = parser.parse_args(argv)
    document = build_trend(args.artifacts, baseline_path=args.baseline,
                           threshold=args.threshold)
    if args.write_baseline:
        write_baseline(args.write_baseline,
                       {row["name"]: row["median_s"]
                        for row in document["rows"]})
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as handle:
            handle.write(format_trend(document))
    if not args.out and not args.markdown:
        print(format_trend(document), end="")
    else:
        print(f"bench trend: {len(document['rows'])} timing row(s), "
              f"{len(document['metrics'])} metric(s), "
              f"{len(document['regressions'])} regression(s)"
              + (f", missing: {', '.join(document['missing'])}"
                 if document["missing"] else ""))
    if args.gate and document["regressions"]:
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Dispatcher for ``cebinae-repro bench <action>``."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if not arguments or arguments[0] != "report":
        print("usage: cebinae-repro bench report ARTIFACT [ARTIFACT...]"
              " [--baseline B] [--out J] [--markdown M] [--gate]",
              file=sys.stderr)
        return 2
    return report_main(arguments[1:])


__all__ = [
    "BASELINE_SCHEMA_VERSION", "TREND_SCHEMA_VERSION", "build_trend",
    "format_trend", "load_bench_document", "load_medians",
    "main", "normalised", "report_main", "write_baseline",
]
