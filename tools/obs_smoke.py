#!/usr/bin/env python3
"""CI smoke test for the repro.obs subsystem (the ``obs-smoke`` job).

Replays the observability contract on the base point of the paper's
``figure9`` document (its 64 ms RTT):

1. **Off-path purity** — running with the trace bus installed produces
   a ``ScenarioResult`` JSON byte-identical to a run without it, also
   with ``REPRO_DEBUG`` invariants on: tracing observes the
   simulation, never perturbs it.
2. **Trace determinism** — with tracing on, repeated runs emit
   byte-identical JSONL streams, after
   :func:`repro.obs.events.canonical_dict` strips the schema's one
   sanctioned wall-clock field (``SpanEvent.wall_s``).
3. **Schema validity** — every emitted line round-trips through
   :func:`repro.obs.events.validate_record`.
4. **Span structure** — the emitted spans form a valid tree
   (:func:`repro.obs.spans.span_tree`) with exactly one ``run`` root
   whose direct ``phase`` children account for the run's wall time to
   within 5%.
5. **Overhead accounting** — wall-clock for the plain, bus-installed
   (all topics), and metrics-enabled runs lands in
   ``BENCH_obs_overhead.json`` (timings in ``extra_info``) so the
   disabled-path ≤2% budget is reviewable per PR.
6. **A fault run** — the base point of ``faults_i1`` at 14 s, whose
   control-plane outage opens at 12 s: tracing every topic but
   ``packet`` (which would hold ~10^5 records in memory) and ``span``
   leaves the result JSON byte-identical, two traced runs emit
   byte-identical JSONL, and the ``fault`` and ``control`` topics carry
   records, at least one of them a ``fail_open`` round.

Exit status 0 on success; any contract violation raises.

Usage: PYTHONPATH=src python tools/obs_smoke.py [--duration 2.0]
                                                [--out BENCH_obs_overhead.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Sequence, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis import invariants
from repro.experiments.runner import Discipline, run_scenario
from repro.obs import bus as obs_bus
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.obs.events import TOPICS, canonical_dict, validate_record
from repro.obs.sinks import MemorySink, encode_record
from repro.suite.registry import paper_spec

#: The fault leg: a document whose outage opens at 12 s, run past it.
FAULT_DOCUMENT = "faults_i1"
FAULT_DURATION_S = 14.0


def run_once(duration_s: float, traced: bool, document: str = "figure9",
             topics: Sequence[str] = TOPICS
             ) -> Tuple[str, List[str], float]:
    """One run of ``document``'s base point under Cebinae, with its
    faults and seed: (result JSON, JSONL lines, wall seconds)."""
    point = paper_spec(document).base_point(duration_s, Discipline.CEBINAE)

    def run():
        return run_scenario(point.scaled, point.discipline,
                            seed=point.seed, faults=point.faults)

    sink = MemorySink()
    start = time.perf_counter()  # simlint: allow[D103] host-side wall timing of the smoke harness; feeds stdout only, never simulation state
    if traced:
        bus = obs_bus.TraceBus()
        bus.subscribe(topics, sink)
        with obs_bus.tracing(bus):
            result = run()
        bus.close()
    else:
        result = run()
    wall_s = time.perf_counter() - start  # simlint: allow[D103] host-side wall timing of the smoke harness; feeds stdout only, never simulation state
    payload = json.dumps(result.to_dict(), sort_keys=True,
                         separators=(",", ":"))
    return payload, [encode_record(r) for r in sink.records], wall_s


def canonical(lines: List[str]) -> List[str]:
    """Trace lines minus their sanctioned wall-clock fields."""
    return [json.dumps(canonical_dict(json.loads(line)),
                       sort_keys=True, separators=(",", ":"))
            for line in lines]


def check_span_tree(lines: List[str]) -> int:
    """Validate span structure; returns the number of span records."""
    records = [json.loads(line) for line in lines]
    spans = [data for data in records if data.get("type") == "SpanEvent"]
    assert spans, "tracing on but no span records"
    tree = obs_spans.span_tree(spans)    # raises on structural defects
    roots = [tree["nodes"][root_id] for root_id in tree["roots"]]
    run_roots = [node for node in roots if node["kind"] == "run"]
    assert len(run_roots) == 1, \
        f"expected exactly one run root, got {len(run_roots)}"
    run = run_roots[0]
    assert run["status"] == "ok" and run["count"] > 0
    phases = [tree["nodes"][child] for child in run["children"]
              if tree["nodes"][child]["kind"] == "phase"]
    assert phases, "run root has no phase children"
    phase_wall = sum(node["wall_s"] for node in phases)
    # The run's wall time is its phases plus negligible glue between
    # them; 5% is the contract's slack for that glue.
    assert phase_wall <= run["wall_s"] * 1.0001, \
        "phase wall-times exceed the run's"
    assert phase_wall >= run["wall_s"] * 0.95, \
        (f"phase wall-times ({phase_wall:.4f}s) cover less than 95% "
         f"of the run ({run['wall_s']:.4f}s)")
    engines = [node for node in tree["nodes"].values()
               if node["kind"] == "engine"]
    assert engines and all(node["name"] == "events" for node in engines), \
        "engine spans must be named 'events'"
    return len(spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=2.0)
    parser.add_argument("--out", default="BENCH_obs_overhead.json")
    args = parser.parse_args(argv)
    duration = args.duration

    # 1. Off-path purity: bus installed vs not.
    plain, lines, wall_plain = run_once(duration, traced=False)
    assert not lines
    traced, trace_lines, wall_traced = run_once(duration, traced=True)
    assert traced == plain, "tracing perturbed the ScenarioResult"
    assert trace_lines, "tracing on but no records"

    # 1b. The same purity with REPRO_DEBUG invariants active: debug
    # checks and tracing may not interact (the instruction streams are
    # independent by construction; this replays it).
    previous_debug = invariants.set_debug(True)
    try:
        debug_plain, _, _ = run_once(duration, traced=False)
        debug_traced, debug_lines, _ = run_once(duration, traced=True)
    finally:
        invariants.set_debug(previous_debug)
    assert debug_traced == debug_plain, \
        "tracing perturbed the REPRO_DEBUG run's ScenarioResult"
    assert canonical(debug_lines) == canonical(trace_lines), \
        "trace JSONL differs between debug and non-debug runs"

    # 2. Trace determinism: rerun identity, after stripping the
    # sanctioned wall-clock field (SpanEvent.wall_s).
    rerun, rerun_lines, _ = run_once(duration, traced=True)
    assert rerun == traced
    assert canonical(rerun_lines) == canonical(trace_lines), \
        "trace JSONL differs between identical runs"

    # 3. Schema validity of every emitted line.
    for line in trace_lines:
        validate_record(json.loads(line))

    # 3b. Span structure: valid tree, one run root, phases cover ≥95%
    # of the run's wall time.
    span_records = check_span_tree(trace_lines)

    # 4. Metrics-enabled run: registry populated, snapshot round-trips.
    registry = obs_metrics.enable()
    try:
        metered, _, wall_metered = run_once(duration, traced=False)
    finally:
        obs_metrics.disable()
    assert metered == plain, "metrics perturbed the run"
    snapshot = registry.snapshot()
    reloaded = obs_metrics.load_snapshot(snapshot)
    assert reloaded.snapshot() == snapshot, \
        "metrics snapshot does not round-trip"
    assert registry.counter("sim_runs_total").value >= 1

    # 5. A fault run: purity, rerun identity, and the fault and control
    # topics populated through a fail-open outage.
    fault_topics = [topic for topic in TOPICS
                    if topic not in ("packet", "span")]
    fault_plain, _, _ = run_once(FAULT_DURATION_S, False, FAULT_DOCUMENT)
    fault_traced, fault_lines, _ = run_once(
        FAULT_DURATION_S, True, FAULT_DOCUMENT, fault_topics)
    assert fault_traced == fault_plain, \
        "tracing perturbed the fault run's ScenarioResult"
    _, fault_rerun_lines, _ = run_once(
        FAULT_DURATION_S, True, FAULT_DOCUMENT, fault_topics)
    assert fault_rerun_lines == fault_lines, \
        "the fault run's trace JSONL differs between identical runs"
    fault_records = [json.loads(line) for line in fault_lines]
    by_topic = {topic: [record for record in fault_records
                        if record["topic"] == topic]
                for topic in ("fault", "control")}
    assert all(by_topic.values()), \
        f"empty topic in the fault run: { {t: len(r) for t, r in by_topic.items()} }"
    fail_open = sum(1 for record in by_topic["control"]
                    if record.get("kind") == "fail_open")
    assert fail_open, "the fault run traced no fail_open round"

    bench = {"benchmarks": [{
        "group": "obs",
        "name": f"obs_smoke_figure9_{duration:g}s",
        "extra_info": {
            "duration_s": duration,
            "records": len(trace_lines),
            "span_records": span_records,
            "wall_plain_s": wall_plain,
            "wall_traced_s": wall_traced,
            "wall_metered_s": wall_metered,
            "traced_overhead_ratio": wall_traced / wall_plain,
        },
    }]}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(bench, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"obs smoke OK: {len(trace_lines)} records "
          f"({span_records} spans), result JSON byte-identical off/on "
          f"and under REPRO_DEBUG; {FAULT_DOCUMENT} at "
          f"{FAULT_DURATION_S:g} s: {len(fault_lines)} records, "
          f"{len(by_topic['fault'])} fault, {fail_open} fail-open "
          f"rounds; overhead written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
