#!/usr/bin/env python3
"""Performance ledger: one workload, end to end or layer by layer.

    python3 benchmarks/ledger/run.py --workload dumbbell_cebinae \\
        --seed 1 --seconds 15 --trace 0

``--trace 0`` sets up three times, then repeats the workload's body
for ``--seconds`` of host time with all tracing off and prints the
end-to-end metrics of BENCHMARK.json (medians over the bodies).
``--trace 1`` is a separate run that spends one body each under
``cProfile``, a ``span``-topic subscriber and ``HotPathProfiler`` and
prints the per-layer metrics.  Durations are in reference-host seconds
(hostclock.py).  Either way the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, and the exit code is
1 when an output check failed or an operation failed.  ``--out FILE``
also writes the full document (env block, every check, raw and
calibrated timings, the per-run ``simulated`` block); ``--all`` runs
every workload both ways in child processes and writes them as one
ledger document, the input of compare.py.

The harness measures strictly from outside: public functions of
``repro.*``, ``cProfile``, and a subscriber on the existing span topic.
It must not run under pytest, which arms ``invariants.DEBUG``.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()  # simlint: allow[D103] host timing

import argparse  # noqa: E402
import cProfile  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
import hostclock  # noqa: E402

SCHEMA = 1

#: Set-ups per untraced run; `setup_s` is their median.
SETUP_REPS = 3
#: Timed bodies per untraced run, however short `--seconds` is.
MIN_BODIES = 3
#: Untraced reference bodies in a traced run (base of trace.overhead_x).
REFERENCE_BODIES = 2
#: Timers the sweep_fabric body keeps; 0 on the other workloads.
FABRIC_TIMERS = ("suite.compile_s", "parallel.cold_s", "parallel.warm_s",
                 "parallel.cache_hits", "sweep.init_s", "sweep.work_s",
                 "sweep.merge_s", "sweep.quarantined",
                 "parallel.overhead_ms_per_task",
                 "sweep.overhead_ms_per_task")
#: Environment that changes what the simulator executes.
_SCRUBBED_PREFIXES = ("REPRO_", "CEBINAE_")
_SCRUBBED_NAMES = ("PYTEST_CURRENT_TEST",)


def load_benchmark_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def scrub_environment() -> List[str]:
    """Remove every variable that selects simulator behaviour."""
    removed = sorted(
        name for name in os.environ
        if name.startswith(_SCRUBBED_PREFIXES) or name in _SCRUBBED_NAMES)
    for name in removed:
        del os.environ[name]
    return removed


def default_sigterm_in_forked_children() -> None:
    """Make ``Pool.terminate()`` able to kill the pool's workers.

    ``run_tasks`` turns SIGTERM into a ``TerminateSweep`` exception for
    the length of the call, and the fork-started pool workers inherit
    that handler.  ``Pool.__exit__`` stops idle workers with SIGTERM and
    joins them without a timeout; a worker that takes the signal between
    two bytecodes, just before it blocks on the pool's queue lock, only
    gets a flag set, never runs the handler, and the join waits for
    ever (on an unmodified checkout a loop of ``run_tasks(workers=2)``
    hung at its 249th pool; a ``sweep_fabric`` run makes about eight).
    The defect is the program's and a later PR's to fix; the ledger
    resets SIGTERM to its default in every child it forks, which is
    what the workers would have without the inherited handler (6000
    pools without a hang).
    """
    os.register_at_fork(after_in_child=lambda: signal.signal(
        signal.SIGTERM, signal.SIG_DFL))


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0    # Linux reports KiB.


def _git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


class Ledger:
    """One run of one workload: bodies, checks, and the metric maths."""

    def __init__(self, args: argparse.Namespace, work_root: Path,
                 import_raw_s: float) -> None:
        from workloads import WORKLOADS
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.work_root = work_root
        self.clock = hostclock.HostClock()
        #: Process start -> everything imported, raw and calibrated by
        #: the clock's first kernel sample.
        self.import_raw_s = import_raw_s
        self.import_s = import_raw_s * self.clock.factor_now()
        #: Output checks: {"name", "ok", "detail"} rows.
        self.checks: List[Dict[str, Any]] = []
        self.attempted = 0
        self.failed = 0
        #: label -> result digest, from the first body that ran.
        self.reference_digests: Dict[str, str] = {}
        self.simulated: List[Dict[str, Any]] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok),
                            "detail": detail})

    @property
    def correct(self) -> bool:
        """What decides the exit code: no failed check, no failed op."""
        return self.failed == 0 and all(row["ok"] for row in self.checks)

    # -- running bodies and checking what they return ----------------------
    def make_inputs(self) -> Any:
        return self.workload.make_inputs(self.args.seed, self.args.quick,
                                         self.work_root)

    def account(self, outcome: Any, where: str) -> None:
        """Count operations and check one body's outputs."""
        from repro.suite.golden import result_digest
        first = not self.reference_digests and not self.simulated
        digests: Dict[str, str] = {}
        for op in outcome.ops:
            self.attempted += 1
            if op.result is None:
                self.failed += 1
                self.check("op_completed", False,
                           f"{where}: {op.label}: {op.error}")
                continue
            result = op.result
            digest = result_digest(result)
            digests[op.label] = digest["result_sha256"]
            rate = result.sim_rate_bps
            fits = (max(result.goodputs_bps) <= rate * (1 + 1e-9)
                    and result.total_goodput_bps
                    <= result.throughput_bps * (1 + 1e-9))
            if not fits:
                self.failed += 1
                self.check(
                    "goodput_within_link_rate", False,
                    f"{where}: {op.label}: goodput "
                    f"{result.total_goodput_bps:.0f} bps, throughput "
                    f"{result.throughput_bps:.0f}, rate {rate:.0f}")
            if first:
                row: Dict[str, Any] = {
                    "label": op.label, "jfi": result.jfi,
                    "goodput_bps": result.total_goodput_bps,
                    "events": result.events,
                    "result_sha256": digest["result_sha256"]}
                if op.paper_jfi is not None:
                    row["paper_jfi"] = op.paper_jfi
                    row["jfi_abs_error"] = abs(result.jfi - op.paper_jfi)
                self.simulated.append(row)
        for name, ok, detail in outcome.checks:
            if not ok:
                self.failed += 1
            self.check(name, ok,
                       f"{where}: {detail}" if detail else where)
        self.compare_digests(digests, where)

    def compare_digests(self, digests: Dict[str, str], where: str) -> None:
        """Simulated output must not depend on repetition or tracing."""
        if not self.reference_digests:
            self.reference_digests = digests
            return
        differing = sorted(
            label for label, digest in digests.items()
            if self.reference_digests.get(label, digest) != digest)
        if differing:
            self.failed += len(differing)
        self.check("digests_repeat", not differing,
                   f"{where}: differs from the first body on "
                   f"{differing[:3]}" if differing else where)

    # -- the untraced run --------------------------------------------------
    def run_untraced(self) -> Dict[str, float]:
        """Set up SETUP_REPS times, then time bodies for --seconds.

        A body's time is the sum over its public calls, each in
        reference-host seconds (hostclock.py); `self.timings` keeps
        the raw host seconds beside them.
        """
        workload, args, clock = self.workload, self.args, self.clock
        setups: List[Tuple[float, float]] = []
        inputs = None
        for index in range(1 if args.quick else SETUP_REPS):
            inputs, raw, factor = clock.time(self.make_inputs)
            outcome = workload.body(inputs, args.workers, clock)
            setups.append((raw + outcome.raw_s,
                           raw * factor + outcome.wall_s))
            self.account(outcome, f"warm-up {index}")

        samples: Dict[str, List[Tuple[float, float]]] = {
            name: [] for name in ("wall_s", "cpu_s", "events_per_s",
                                  "sim_s_per_wall_s")}
        loop_started = hostclock.now()
        min_bodies = 1 if args.quick else MIN_BODIES
        while (len(samples["wall_s"]) < min_bodies
               or hostclock.now() - loop_started < args.seconds):
            outcome = workload.body(inputs, args.workers, clock)
            raw, wall = outcome.raw_s, outcome.wall_s
            events, sim_s = _work_done(outcome)
            samples["wall_s"].append((raw, wall))
            samples["cpu_s"].append((outcome.cpu_raw_s, outcome.cpu_s))
            samples["events_per_s"].append((events / raw, events / wall))
            samples["sim_s_per_wall_s"].append((sim_s / raw, sim_s / wall))
            self.account(outcome, f"body {len(samples['wall_s'])}")
        samples["setup_s"] = [
            (self.import_raw_s + raw, self.import_s + calibrated)
            for raw, calibrated in setups]
        self.timings = {
            name: {"median": statistics.median(c for _, c in pairs),
                   "min": min(c for _, c in pairs),
                   "max": max(c for _, c in pairs),
                   "raw_median": statistics.median(r for r, _ in pairs),
                   "n": len(pairs)}
            for name, pairs in samples.items()}
        metrics = {name: timing["median"]
                   for name, timing in self.timings.items()}
        metrics["peak_rss_mb"] = _peak_rss_mb()
        return metrics

    # -- the traced run ----------------------------------------------------
    def run_traced(self) -> Dict[str, float]:
        """One body per instrument; durations in reference-host seconds."""
        import layers
        from repro.netsim import profiling
        from repro.obs import bus as obs_bus
        from repro.obs.sinks import MemorySink
        workload, args, clock = self.workload, self.args, self.clock
        metrics: Dict[str, float] = dict.fromkeys(FABRIC_TIMERS, 0.0)
        metrics["setup.import_s"] = self.import_s

        inputs, raw, factor = clock.time(self.make_inputs)
        metrics["setup.inputs_s"] = raw * factor
        outcome = workload.body(inputs, args.workers, clock)
        metrics["setup.warmup_rep_s"] = outcome.wall_s
        self.account(outcome, "warm-up")

        # Untraced reference bodies: the base of the overhead ratio and
        # the source of the timers the body keeps around public calls.
        reference_walls: List[float] = []
        timers: Dict[str, List[float]] = {}
        for index in range(1 if args.quick else REFERENCE_BODIES):
            outcome = workload.body(inputs, args.workers, clock)
            reference_walls.append(outcome.wall_s)
            self.account(outcome, f"reference {index}")
            for name, value in outcome.timers.items():
                timers.setdefault(name, []).append(value)
        for name, sample in timers.items():
            metrics[name] = statistics.median(sample)
        reference_results = [op.result for op in outcome.ops
                             if op.result is not None and op.executed]
        metrics.update(_simulated_counters(reference_results))

        # The instruments must not see the calibration kernel, so the
        # bodies below take no kernel samples themselves: each pass is
        # calibrated as a whole, by the samples on either side of it.
        raw_clock = hostclock.RawClock()

        # Pass 1: cProfile over one body, every task in this process.
        profiler = cProfile.Profile()

        def profiled_body() -> Any:
            profiler.enable()
            try:
                return workload.body(inputs, 1, raw_clock)
            finally:
                profiler.disable()

        outcome, raw, factor = clock.time(profiled_body)
        self.account(outcome, "cProfile body")
        table = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
        folded = layers.fold_profile(table)
        total_self = sum(row["self_s"] for row in folded.values())
        for layer, row in folded.items():
            metrics[f"{layer}.self_s"] = row["self_s"] * factor
            metrics[f"{layer}.calls"] = row["calls"]
        metrics["trace.overhead_x"] = (
            outcome.raw_s * factor / statistics.median(reference_walls))
        metrics["trace.unattributed_share"] = (
            folded[layers.OTHER]["self_s"] / total_self)
        self.check(
            "profile_sums_to_wall", abs(total_self - raw) <= 0.01 * raw,
            f"layers {total_self:.4f} s, profiled wall {raw:.4f} s")

        def with_span_sink(fn: Any, *fn_args: Any) -> Any:
            sink = MemorySink()
            bus = obs_bus.TraceBus()
            bus.subscribe("span", sink)
            with obs_bus.tracing(bus):
                outcome = fn(*fn_args)
            return outcome, [record.to_dict() for record in sink.records]

        def scaled(values: Dict[str, float], factor: float) -> None:
            metrics.update({
                name: value if name == "control.rounds"
                else value * factor for name, value in values.items()})

        # Pass 2: spans, around directly timed public calls.
        (outcome, spans), raw, factor = clock.time(
            with_span_sink, workload.direct, inputs, raw_clock)
        self.account(outcome, "span pass")
        scaled(layers.fold_spans(spans, outcome.raw_s), factor)

        # Pass 3: exact per-component event counts.
        with profiling.profiled() as hot_path:
            outcome = workload.body(inputs, 1, raw_clock)
        self.account(outcome, "event-count pass")
        metrics.update(layers.fold_events(hot_path.component_events))

        # Fabric overhead per task (sweep_fabric only): one more
        # in-process body, this time with the span sink listening.
        if workload.pooled is not None:
            (outcome, spans), raw, factor = clock.time(
                with_span_sink, workload.body, inputs, 1, raw_clock)
            self.account(outcome, "in-process span body")
            scaled(layers.fold_fabric_overheads(
                spans, outcome.timers["parallel.cold_s"],
                outcome.timers["sweep.work_s"]), factor)

        micro, raw, factor = clock.time(self.micro_timers, inputs,
                                        reference_results)
        scaled(micro, factor)
        return metrics

    def micro_timers(self, inputs: Any, results: Sequence[Any]
                     ) -> Dict[str, float]:
        """Per-call cost of the executor's building blocks, timed on
        the body's own specs and results (medians, raw host time)."""
        from repro.experiments.parallel import ResultCache
        from workloads import fingerprintable
        now = hostclock.now
        samples: Dict[str, List[float]] = {
            "parallel.fingerprint_us": [], "parallel.cache_store_ms": [],
            "parallel.cache_load_ms": [], "runner.result_json_ms": []}
        specs = fingerprintable(inputs)
        with tempfile.TemporaryDirectory(prefix="micro-",
                                         dir=self.work_root) as tmp:
            cache = ResultCache(tmp)
            for _ in range(5):
                for spec in specs:
                    started = now()
                    spec.fingerprint()
                    samples["parallel.fingerprint_us"].append(
                        (now() - started) * 1e6)
                for index, result in enumerate(results):
                    started = now()
                    payload = result.to_dict()
                    json.dumps(payload)
                    samples["runner.result_json_ms"].append(
                        (now() - started) * 1e3)
                    key = f"micro{index:04d}"
                    started = now()
                    cache.store(key, "ScenarioResult", key, payload)
                    samples["parallel.cache_store_ms"].append(
                        (now() - started) * 1e3)
                    started = now()
                    loaded = cache.load(key)
                    samples["parallel.cache_load_ms"].append(
                        (now() - started) * 1e3)
                    if loaded != payload:
                        self.check("cache_round_trip", False, key)
        return {name: statistics.median(sample) if sample else 0.0
                for name, sample in samples.items()}


def _work_done(outcome: Any) -> Tuple[int, float]:
    """(events executed, simulated seconds) of one body."""
    done = [op.result for op in outcome.ops
            if op.result is not None and op.executed]
    return (sum(result.events for result in done),
            sum(result.duration_s for result in done))


def _simulated_counters(results: Sequence[Any]) -> Dict[str, float]:
    """Exact simulated counters; a speed-only change leaves them be."""
    return {
        "sim.events": sum(r.events for r in results),
        "sim.lbf_drops": sum(r.lbf_drops for r in results),
        "sim.lbf_delays": sum(r.lbf_delays for r in results),
        "sim.buffer_drops": sum(r.buffer_drops for r in results),
        "sim.fluid_epochs": sum((r.hybrid_summary or {}).get("epochs", 0)
                                for r in results),
    }


def environment_block(removed: List[str]) -> Dict[str, Any]:
    from repro.netsim.engine import Simulator
    probe = Simulator()
    return {"python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "scheduler": type(probe.scheduler).__name__,
            "batch": probe.batched,
            "git_commit": _git_commit(),
            "scrubbed_env": removed}


def run_one(args: argparse.Namespace) -> int:
    spec = load_benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT}/src/repro not found: the ledger measures the "
              f"program in its own checkout", file=sys.stderr)
        return 2
    removed = scrub_environment()
    default_sigterm_in_forked_children()
    sys.path.insert(0, str(ROOT / "src"))
    # Pool and sweep workers are fresh interpreters: they import the
    # same checkout and keep their temp files inside it.
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    work_parent = ROOT / ".ledger-work"
    work_parent.mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                      dir=work_parent))
    os.environ["TMPDIR"] = str(work_root)
    tempfile.tempdir = str(work_root)
    try:
        import workloads  # noqa: F401 - imports every repro layer used.
        from repro.analysis import invariants
        import_raw_s = hostclock.now() - _PROCESS_START
        if invariants.DEBUG or "pytest" in sys.modules:
            print("invariants.DEBUG is armed: run the ledger outside "
                  "pytest", file=sys.stderr)
            return 2
        ledger = Ledger(args, work_root, import_raw_s)
        if args.trace:
            values = ledger.run_traced()
            listed = spec["per_layer"]
        else:
            values = ledger.run_untraced()
            listed = spec["end_to_end"]
        env = environment_block(removed)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_parent.rmdir()
        except OSError:
            pass    # Another ledger run is still using it.

    missing = [m["name"] for m in listed if m["name"] not in values]
    ledger.check("all_listed_metrics_emitted", not missing,
                 f"missing {missing}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in listed}
    correct = ledger.correct
    result = {"correct": correct, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    for row in ledger.checks:
        if not row["ok"]:
            print(f"CHECK FAILED {row['name']}: {row['detail']}",
                  file=sys.stderr)
    if args.out:
        document = dict(result)
        document.update({
            "schema": SCHEMA, "workload": args.workload,
            "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "quick": args.quick, "env": env,
            "checks": _summarise_checks(ledger.checks),
            "simulated": ledger.simulated})
        if not args.trace:
            document["timings"] = ledger.timings
        _write_json(Path(args.out), document)
    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


def _summarise_checks(rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """One row per check name: how often it ran, which runs failed."""
    summary: Dict[str, Dict[str, Any]] = {}
    for row in rows:
        entry = summary.setdefault(
            row["name"], {"name": row["name"], "ran": 0, "failures": []})
        entry["ran"] += 1
        if not row["ok"]:
            entry["failures"].append(row["detail"])
    return list(summary.values())


def _write_json(path: Path, document: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each in its own process."""
    if not args.out:
        print("--all needs --out FILE", file=sys.stderr)
        return 2
    spec = load_benchmark_spec()
    runs: Dict[str, Dict[str, Any]] = {}
    exit_code = 0
    with tempfile.TemporaryDirectory(prefix="ledger-all-",
                                     dir=Path(args.out).resolve().parent
                                     ) as tmp:
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, key in ((0, "untraced"), (1, "traced")):
                part = Path(tmp) / f"{workload}-{key}.json"
                command = [sys.executable, str(HERE / "run.py"),
                           "--workload", workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(trace), "--out", str(part)]
                if args.quick:
                    command.append("--quick")
                print(f"[ledger] {workload} {key}", file=sys.stderr,
                      flush=True)
                done = subprocess.run(command, stdout=subprocess.DEVNULL)
                if done.returncode != 0:
                    exit_code = 1
                if part.exists():
                    with open(part, "r", encoding="utf-8") as handle:
                        runs.setdefault(workload, {})[key] = \
                            json.load(handle)
    _write_json(Path(args.out), {"schema": SCHEMA, "seed": args.seed,
                                 "seconds": args.seconds,
                                 "quick": args.quick, "runs": runs})
    return exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="host seconds of timed bodies (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke sizes: a tenth of the work, one "
                             "set-up, one body")
    parser.add_argument("--out", help="also write the full document")
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced and traced, "
                             "into one ledger document at --out")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.quick else float(
            load_benchmark_spec()["run_seconds"])
    #: Worker processes for sweep_fabric: min(2, nproc).
    args.workers = min(2, os.cpu_count() or 1)
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("--workload is required (or --all)")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
