"""``cebinae-repro trace <scenario>``: run one scenario with tracing on.

The one place in :mod:`repro.obs` allowed to import the experiments
layer (see the package docstring).  It takes the base point of one of
the paper's suite documents (``repro/experiments/paper/``), with the
document's fault schedule and seed, installs a
:class:`~repro.obs.bus.TraceBus` with file sinks *before* the topology
is constructed (the binding contract of the bus), runs the scenario,
and writes a deterministic artifact directory::

    <out>/result.json    the ScenarioResult payload
    <out>/trace.jsonl    one record per line, event order (every
                         selected topic but span)
    <out>/spans.jsonl    lifecycle spans alone (span topic)
    <out>/metrics.json   registry snapshot (--metrics-json)

Each record is written once: the control rounds are the ``control``
lines of ``trace.jsonl``, and the timeline printed at the end reads
them from memory.  Every file is byte-identical across repeated runs
with the same arguments — that is what the CI ``obs-smoke`` job
replays.  Spans live in their own file because each
:class:`~repro.obs.events.SpanEvent` carries the schema's one
wall-clock field (``wall_s``): ``trace.jsonl`` keeps the raw
byte-identity guarantee, and ``spans.jsonl`` is byte-identical after
:func:`~repro.obs.events.canonical_dict` strips the wall readings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from typing import ContextManager, List, Optional

from ..experiments.parallel import positive_seconds
from ..experiments.runner import Discipline, run_scenario
from ..suite.registry import paper_names, paper_spec
from . import bus as obs_bus
from . import metrics as obs_metrics
from .events import TOPICS, ControlRound
from .sinks import _JSON_KWARGS, JsonlTraceSink, MemorySink


def parse_topics(spec: str) -> List[str]:
    """``--events`` parser: comma-separated topics, or ``all``."""
    if spec == "all":
        return list(TOPICS)
    topics = [token.strip() for token in spec.split(",") if token.strip()]
    for topic in topics:
        if topic not in TOPICS:
            raise argparse.ArgumentTypeError(
                f"unknown topic {topic!r}; choose from "
                f"{', '.join(TOPICS)} or 'all'")
    if not topics:
        raise argparse.ArgumentTypeError("no topics given")
    return topics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cebinae-repro trace",
        description="Run one scenario with structured tracing enabled "
                    "and write deterministic JSONL/metrics artifacts.")
    parser.add_argument("scenario", choices=paper_names(),
                        metavar="DOCUMENT",
                        help="a paper document (figure1, figure9, "
                             "table2_row08, faults_i1, ...); its base "
                             "point runs, with its faults and seed")
    parser.add_argument("--discipline", default="cebinae",
                        choices=[d.value for d in Discipline])
    parser.add_argument("--events", type=parse_topics, default="all",
                        help="comma-separated trace topics "
                             f"({', '.join(TOPICS)}) or 'all'")
    parser.add_argument("--out", default="trace-out", metavar="DIR",
                        help="artifact directory (created if missing)")
    parser.add_argument("--metrics-json", action="store_true",
                        help="also snapshot the metrics registry to "
                             "<out>/metrics.json")
    parser.add_argument("--duration", type=positive_seconds,
                        default=10.0, metavar="SECONDS")
    parser.add_argument("--seed", type=int,
                        help="override the document's base_seed")
    args = parser.parse_args(argv)

    topics = args.events if isinstance(args.events, list) \
        else parse_topics(args.events)
    point = paper_spec(args.scenario).base_point(
        args.duration, Discipline(args.discipline))
    os.makedirs(args.out, exist_ok=True)

    bus = obs_bus.TraceBus()
    # Spans go to their own file (wall_s is nondeterministic by
    # design); everything else keeps trace.jsonl raw byte identity.
    trace_topics = [topic for topic in topics if topic != "span"]
    if trace_topics:
        bus.subscribe(trace_topics, JsonlTraceSink(
            os.path.join(args.out, "trace.jsonl")))
    if "span" in topics:
        bus.subscribe("span", JsonlTraceSink(
            os.path.join(args.out, "spans.jsonl")))
    timeline = MemorySink()
    if "control" in topics:
        bus.subscribe("control", timeline)

    # A registry counts every executed event, so it is installed only
    # when its snapshot was asked for.
    metrics_scope: ContextManager[Optional[obs_metrics.MetricsRegistry]] \
        = obs_metrics.collected() if args.metrics_json else nullcontext()
    try:
        with metrics_scope as registry, obs_bus.tracing(bus):
            result = run_scenario(
                point.scaled, point.discipline, collect_series=True,
                record_history=True,
                seed=point.seed if args.seed is None else args.seed,
                faults=point.faults, backend=point.backend)
    finally:
        bus.close()

    with open(os.path.join(args.out, "result.json"), "w",
              encoding="utf-8") as handle:
        json.dump(result.to_dict(), handle, **_JSON_KWARGS)
        handle.write("\n")
    if registry is not None:
        registry.write_json(os.path.join(args.out, "metrics.json"))

    print(f"{result.name} [{result.discipline.value}] "
          f"JFI={result.jfi:.3f} "
          f"throughput={result.throughput_bps / 1e6:.2f} Mbps "
          f"events={result.events}")
    delivered = ", ".join(f"{topic}={bus.counts[topic]}"
                          for topic in TOPICS if topic in bus.counts)
    print(f"trace records: {delivered or 'none'}")
    rounds = [record for record in timeline.records
              if isinstance(record, ControlRound)]
    if rounds:
        from ..experiments.report import control_timeline_report
        print(control_timeline_report(rounds,
                                      jfi_series=result.jfi_series()))
    print(f"[artifacts in {args.out}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
