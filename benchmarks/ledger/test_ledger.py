"""Tests of the ledger harness itself (not tier-1).

    python -m pytest benchmarks/ledger

The folding arithmetic is tested on synthetic tables; the harness as a
whole by a ``--quick`` smoke of every workload in child processes
(run.py refuses to measure inside pytest, which arms the simulator's
debug checks).
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for _path in (str(HERE), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import compare  # noqa: E402
import hostclock  # noqa: E402
import layers  # noqa: E402
import run as ledger_run  # noqa: E402

SRC = "/checkout/src/repro"
ENGINE = (f"{SRC}/netsim/engine.py", 10, "run")
SOCKET = (f"{SRC}/tcp/socket.py", 20, "on_ack")
CUBIC = (f"{SRC}/tcp/cubic.py", 5, "on_ack")
PARAMS = (f"{SRC}/core/params.py", 7, "dt")           # No listed layer.
HEAPPOP = ("~", 0, "<built-in method _heapq.heappop>")
SORTED = ("~", 0, "<built-in method builtins.sorted>")
LEN = ("~", 0, "<built-in method builtins.len>")
RANDINT = ("/usr/lib/python3.11/random.py", 358, "randint")
HARNESS = (str(HERE / "run.py"), 1, "body")
EXEC = ("~", 0, "<built-in method builtins.exec>")


def _table():
    """A pstats-shaped table: func -> (cc, nc, tt, ct, callers)."""
    return {
        HARNESS: (1, 1, 0.5, 10.0, {}),
        ENGINE: (1, 1, 3.0, 9.5, {HARNESS: (1, 1, 3.0, 9.5)}),
        SOCKET: (100, 100, 2.0, 4.0, {ENGINE: (100, 100, 2.0, 4.0)}),
        CUBIC: (50, 50, 1.0, 1.0, {SOCKET: (50, 50, 1.0, 1.0)}),
        PARAMS: (10, 10, 0.25, 0.25, {ENGINE: (10, 10, 0.25, 0.25)}),
        # A builtin with two callers: time splits 3:1, calls 30:10.
        HEAPPOP: (40, 40, 0.8, 0.8, {ENGINE: (30, 30, 0.6, 0.6),
                                     SOCKET: (10, 10, 0.2, 0.2)}),
        # Stdlib Python called from a layer, calling a builtin itself.
        RANDINT: (20, 20, 0.4, 0.5, {SOCKET: (20, 20, 0.4, 0.5)}),
        LEN: (20, 20, 0.1, 0.1, {RANDINT: (20, 20, 0.1, 0.1)}),
        # A builtin too fast for the clock: falls back to call counts.
        SORTED: (4, 4, 0.0, 0.0, {ENGINE: (3, 3, 0.0, 0.0),
                                  SOCKET: (1, 1, 0.0, 0.0)}),
        # A root builtin: nobody to charge.
        EXEC: (1, 1, 0.05, 10.0, {}),
    }


class TestFoldProfile:
    def test_layer_sums_equal_profile_total(self):
        table = _table()
        folded = layers.fold_profile(table)
        total = sum(entry[2] for entry in table.values())
        assert sum(row["self_s"] for row in folded.values()) == \
            pytest.approx(total, rel=1e-12)
        assert sum(row["calls"] for row in folded.values()) == \
            pytest.approx(sum(entry[1] for entry in table.values()))

    def test_builtin_is_charged_to_its_callers(self):
        folded = layers.fold_profile(_table())
        # engine: own 3.0 + heappop 0.6; sorted adds calls only.
        assert folded["netsim.engine"]["self_s"] == pytest.approx(3.6)
        assert folded["netsim.engine"]["calls"] == 1 + 30 + 3
        # socket: own 2.0 + heappop 0.2 + randint 0.4 + len (via
        # randint) 0.1.
        assert folded["tcp.socket"]["self_s"] == pytest.approx(2.7)
        assert folded["tcp.socket"]["calls"] == 100 + 10 + 20 + 20 + 1

    def test_cca_modules_share_one_layer(self):
        assert layers.fold_profile(_table())["tcp.cca"]["self_s"] == \
            pytest.approx(1.0)

    def test_unlisted_repro_roots_and_harness_are_other(self):
        folded = layers.fold_profile(_table())
        assert folded[layers.OTHER]["self_s"] == \
            pytest.approx(0.25 + 0.05 + 0.5)

    def test_foreign_cycle_terminates_and_conserves_time(self):
        encode = ("/usr/lib/python3.11/json/encoder.py", 1, "encode")
        iterate = ("/usr/lib/python3.11/json/encoder.py", 2, "_iter")
        runner = (f"{SRC}/experiments/runner.py", 1, "to_json")
        table = {
            runner: (1, 1, 1.0, 3.0, {}),
            encode: (5, 1, 1.0, 2.0, {runner: (1, 1, 0.5, 2.0),
                                      iterate: (4, 0, 0.5, 1.0)}),
            iterate: (4, 4, 1.0, 1.5, {encode: (4, 4, 1.0, 1.5)}),
        }
        folded = layers.fold_profile(table)
        assert sum(row["self_s"] for row in folded.values()) == \
            pytest.approx(3.0)
        assert folded["experiments.runner"]["self_s"] > 1.0

    def test_owner_of(self):
        assert layers.owner_of(f"{SRC}/netsim/fq_codel.py") == \
            "netsim.fq_codel"
        assert layers.owner_of(f"{SRC}/tcp/bbr.py") == "tcp.cca"
        assert layers.owner_of(f"{SRC}/sweep/worker.py") == "sweep"
        assert layers.owner_of(f"{SRC}/obs/__init__.py") == "obs"
        assert layers.owner_of(f"{SRC}/core/units.py") == layers.OTHER
        assert layers.owner_of("~") is None
        assert layers.owner_of("<string>") is None
        assert layers.owner_of("/usr/lib/python3.11/heapq.py") is None


def _span(kind, name, wall_s, span_id="", parent_id=""):
    return {"kind": kind, "name": name, "wall_s": wall_s,
            "span_id": span_id, "parent_id": parent_id}


class TestFoldSpans:
    def test_hybrid_phase_arithmetic(self):
        spans = [
            _span("engine", "events", 3.9, "e1", "w"),
            _span("phase", "warmup", 4.0, "w", "r"),
            _span("phase", "stability-probe", 1.0, "p1", "r"),
            _span("phase", "stability-probe", 1.0, "p2", "r"),
            _span("phase", "fluid-epoch", 0.5, "f", "r"),
            _span("round", "control-round", 0.01, "c1", "w"),
            _span("round", "control-round", 0.02, "c2", "w"),
            _span("run", "scenario", 7.0, "r", ""),
        ]
        out = layers.fold_spans(spans, ops_wall_s=7.5)
        assert out["phase.warmup_s"] == 4.0
        assert out["phase.stability_probe_s"] == 2.0
        assert out["phase.fluid_epoch_s"] == 0.5
        assert out["phase.drain_s"] == 0.0
        assert out["phase.build_s"] == pytest.approx(0.5)    # 7.5 - 7.0
        assert out["phase.collect_s"] == pytest.approx(0.5)  # 7.0 - 6.5
        assert out["control.rounds"] == 2
        assert out["control.round_s"] == pytest.approx(0.03)

    def test_root_engine_span_is_a_whole_run(self):
        """A parking-lot run opens an engine span and no run span."""
        out = layers.fold_spans([_span("engine", "events", 2.0, "e")],
                                ops_wall_s=2.25)
        assert out["phase.drain_s"] == 2.0
        assert out["phase.build_s"] == pytest.approx(0.25)
        assert out["phase.collect_s"] == 0.0

    def test_fabric_overheads_come_from_one_pass(self):
        spans = [
            # Pool pass: two root runs inside a 1.0 s pass.
            _span("run", "a", 0.4, "r1"),
            _span("engine", "events", 0.5, "e1"),        # Parking lot.
            # Fabric pass: the same two under task spans, 1.3 s.
            _span("run", "a", 0.4, "r2", "t1"),
            _span("task", "a", 0.45, "t1", "s"),
            _span("engine", "events", 0.5, "e2", "t2"),
            _span("task", "b", 0.55, "t2", "s"),
            _span("sweep", "x", 1.25, "s"),
        ]
        out = layers.fold_fabric_overheads(spans, cold_s=1.0, work_s=1.3)
        assert out["parallel.overhead_ms_per_task"] == pytest.approx(50.0)
        assert out["sweep.overhead_ms_per_task"] == pytest.approx(200.0)

    def test_fold_events(self):
        out = layers.fold_events({"Link": 5, "Host": 3, "FaultSchedule": 2,
                                  "WallClockWatchdog": 1})
        assert out["events.Link"] == 5
        assert out["events.Router"] == 0
        assert out["events.other"] == 3


class TestHostClock:
    def test_factor_is_reference_over_mean_of_neighbouring_samples(self):
        reference = hostclock.REFERENCE_KERNEL_S
        samples = iter([reference, 3 * reference, reference])
        clock = hostclock.HostClock(kernel_fn=lambda: next(samples))
        # The kernel took 1x the reference before the call and 3x
        # after: the host ran at half speed on average, so the call's
        # seconds count half.
        result, raw, factor = clock.time(lambda x: x + 1, 41)
        assert result == 42 and raw >= 0.0
        assert factor == pytest.approx(0.5)
        # The sample after one call is the sample before the next.
        _, _, factor = clock.time(lambda: None)
        assert factor == pytest.approx(0.5)
        assert clock.factor_now() == pytest.approx(1.0)

    def test_busy_workers_are_calibrated_by_concurrent_kernels(self):
        clock = hostclock.HostClock(kernel_fn=lambda: 0.06)
        assert clock.for_workers(1) is clock
        busy = clock.for_workers(2)
        assert busy is clock.for_workers(2) and busy is not clock
        _, _, factor = busy.time(lambda: None)
        assert 0.0 < factor < 10.0
        raw = hostclock.RawClock()
        assert raw.for_workers(2) is raw

    def test_raw_clock_takes_no_samples(self):
        result, raw, factor = hostclock.RawClock().time(lambda: "x")
        assert result == "x" and raw >= 0.0 and factor == 1.0

    def test_kernel_is_the_unit_and_must_not_change(self):
        assert hostclock.kernel() > 0.0
        assert (hostclock._KERNEL_EVENTS, hostclock._KERNEL_NODES,
                hostclock._KERNEL_FLOWS) == (60_000, 48, 600)
        assert hostclock.REFERENCE_KERNEL_S == 0.06


def _document(wall_s, events=100, digest="aa", failed=0):
    def run(metrics):
        return {"attempted": 10, "failed": failed,
                "metrics": {name: {"value": value, "unit": "x"}
                            for name, value in metrics.items()},
                "simulated": [{"label": "row/fifo",
                               "result_sha256": digest}]}
    return {"runs": {"w": {
        "untraced": run({"wall_s": wall_s, "events_per_s": 1000 / wall_s}),
        "traced": run({"sim.events": events, "tcp.socket.calls": 7,
                       "tcp.socket.self_s": wall_s / 2})}}}


_SPEC = {"workloads": [{"name": "w", "why": ""}],
         "end_to_end": [
             {"name": "wall_s", "unit": "s", "better": "lower",
              "bound": 0.1},
             {"name": "events_per_s", "unit": "1/s", "better": "higher",
              "bound": 0.1}]}


class TestCompare:
    def test_breach_directions(self):
        assert not compare.breach(10.0, 10.9, "lower", 0.1)
        assert compare.breach(10.0, 11.1, "lower", 0.1)
        assert not compare.breach(10.0, 9.1, "higher", 0.1)
        assert compare.breach(10.0, 8.9, "higher", 0.1)
        assert not compare.breach(10.0, 5.0, "lower", 0.1)    # Better.

    def test_within_bounds_passes(self):
        rows, differences, breached = compare.compare(
            _SPEC, _document(2.0), _document(2.1))
        assert not breached and not differences
        assert any("B/A= 1.050 (base A" in row for row in rows)

    def test_slower_beyond_bound_breaches(self):
        _, _, breached = compare.compare(
            _SPEC, _document(2.0), _document(2.5))
        assert breached

    def test_new_failures_breach(self):
        _, _, breached = compare.compare(
            _SPEC, _document(2.0), _document(2.0, failed=1))
        assert breached

    def test_missing_metric_breaches(self):
        new = _document(2.0)
        del new["runs"]["w"]["untraced"]["metrics"]["wall_s"]
        _, _, breached = compare.compare(_SPEC, _document(2.0), new)
        assert breached

    def test_exact_counters_are_flagged_but_never_breach(self):
        _, differences, breached = compare.compare(
            _SPEC, _document(2.0), _document(2.0, events=101, digest="bb"))
        assert not breached
        assert len(differences) == 2
        assert any("sim.events" in row for row in differences)
        assert any("digest row/fifo" in row for row in differences)

    def test_self_time_is_not_an_exact_counter(self):
        assert compare.is_exact_counter("tcp.socket.calls")
        assert compare.is_exact_counter("events.Link")
        assert not compare.is_exact_counter("tcp.socket.self_s")

    def test_cli_exit_codes(self, tmp_path):
        spec = ledger_run.load_benchmark_spec()
        workload = spec["workloads"][0]["name"]

        def write(name, wall_s):
            document = _document(wall_s)
            document["runs"] = {workload: document["runs"]["w"]}
            for metric in spec["end_to_end"]:
                document["runs"][workload]["untraced"]["metrics"][
                    metric["name"]] = {"value": wall_s, "unit": "x"}
            path = tmp_path / name
            path.write_text(json.dumps(document))
            return str(path)

        base = write("a.json", 2.0)
        assert compare.main([base, base]) == 1    # Other workloads absent.
        for other in spec["workloads"][1:]:
            document = json.loads(Path(base).read_text())
            document["runs"][other["name"]] = document["runs"][workload]
            Path(base).write_text(json.dumps(document))
        assert compare.main([base, base]) == 0


class TestOutputChecks:
    def _ledger(self):
        args = argparse.Namespace(workload="dumbbell_cebinae", seed=1,
                                  quick=True, trace=0)
        return ledger_run.Ledger(args, work_root=ROOT, import_raw_s=0.0)

    def test_repeating_digests_are_correct(self):
        ledger = self._ledger()
        ledger.compare_digests({"row/fifo": "aa"}, "warm-up")
        ledger.compare_digests({"row/fifo": "aa"}, "body 1")
        assert ledger.correct

    def test_mismatching_digest_fails_the_run(self):
        ledger = self._ledger()
        ledger.compare_digests({"row/fifo": "aa"}, "warm-up")
        ledger.compare_digests({"row/fifo": "bb"}, "body 1")
        assert not ledger.correct
        assert ledger.failed == 1

    def test_scrub_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULER", "calendar")
        monkeypatch.setenv("CEBINAE_BENCH_FLOWS", "5")
        monkeypatch.setenv("HOME_SWEET", "kept")
        removed = ledger_run.scrub_environment()
        assert {"REPRO_SCHEDULER", "CEBINAE_BENCH_FLOWS",
                "PYTEST_CURRENT_TEST"} <= set(removed)
        import os
        assert os.environ["HOME_SWEET"] == "kept"
        assert "REPRO_SCHEDULER" not in os.environ


def test_forked_children_get_the_default_sigterm():
    """A Python SIGTERM handler installed before a fork (what
    `run_tasks` does around its pool) must not reach the child."""
    script = (
        "import os, signal, sys\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "import run\n"
        "run.default_sigterm_in_forked_children()\n"
        "signal.signal(signal.SIGTERM, lambda *_: None)\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    default = signal.getsignal(signal.SIGTERM) == signal.SIG_DFL\n"
        "    os._exit(0 if default else 1)\n"
        "inherited = signal.getsignal(signal.SIGTERM) != signal.SIG_DFL\n"
        "child = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])\n"
        "sys.exit(child or (0 if inherited else 2))\n")
    done = subprocess.run([sys.executable, "-c", script], timeout=60)
    assert done.returncode == 0


def _benchmark_names(kind):
    return [metric["name"]
            for metric in ledger_run.load_benchmark_spec()[kind]]


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"),
                                        (1, "per_layer")])
@pytest.mark.parametrize("workload", [
    w["name"] for w in ledger_run.load_benchmark_spec()["workloads"]])
def test_quick_smoke_emits_every_listed_metric(workload, trace, kind):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == _benchmark_names(kind)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}, name
        assert isinstance(metric["value"], (int, float)), name


def test_refuses_to_run_outside_a_checkout(tmp_path):
    """With only BENCHMARK.json and the ledger directory present there
    is no program to measure: non-zero exit, no result line."""
    (tmp_path / "benchmarks").mkdir()
    target = tmp_path / "benchmarks" / "ledger"
    target.mkdir()
    for source in HERE.glob("*.py"):
        (target / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(target / "run.py"), "--workload",
         "dumbbell_cebinae", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
