"""Tests for the discrete-event engine."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import repro
from repro.netsim.engine import (MILLISECOND, SECOND, SimulationError,
                                 Simulator, seconds, to_seconds)


class TestTimeConversions:
    def test_seconds_to_ns(self):
        assert seconds(1.5) == 1_500_000_000

    def test_seconds_rounds_to_nearest(self):
        assert seconds(1e-9) == 1
        assert seconds(0.25e-9) == 0

    def test_to_seconds_roundtrip(self):
        assert to_seconds(seconds(2.5)) == pytest.approx(2.5)

    def test_constants_are_consistent(self):
        assert SECOND == 1000 * MILLISECOND


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(30, order.append, "c")
        sim.schedule(10, order.append, "a")
        sim.schedule(20, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        sim = Simulator()
        order = []
        for label in "abcde":
            sim.schedule(5, order.append, label)
        sim.run()
        assert order == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(42, lambda: seen.append(sim.now_ns))
        sim.run()
        assert seen == [42]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(50, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulator()
        times = []

        def outer():
            times.append(sim.now_ns)
            sim.schedule(10, inner)

        def inner():
            times.append(sim.now_ns)

        sim.schedule(5, outer)
        sim.run()
        assert times == [5, 15]

    def test_args_are_passed(self):
        sim = Simulator()
        got = []
        sim.schedule(1, lambda a, b: got.append((a, b)), 1, "x")
        sim.run()
        assert got == [(1, "x")]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(10, fired.append, 1)
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(10, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()


class TestRunSemantics:
    def test_run_until_executes_events_at_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule(100, fired.append, "at")
        sim.schedule(101, fired.append, "after")
        sim.run(until_ns=100)
        assert fired == ["at"]

    def test_run_until_advances_clock_to_deadline(self):
        sim = Simulator()
        sim.run(until_ns=500)
        assert sim.now_ns == 500

    def test_remaining_events_survive_run_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(100, fired.append, 1)
        sim.run(until_ns=50)
        sim.run(until_ns=150)
        assert fired == [1]

    def test_max_events_guard(self):
        sim = Simulator()

        def forever():
            sim.schedule(1, forever)

        sim.schedule(1, forever)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_run_is_not_reentrant(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1, reenter)
        sim.run()
        assert len(errors) == 1

    def test_processed_events_counter(self):
        sim = Simulator()
        for _ in range(7):
            sim.schedule(1, lambda: None)
        sim.run()
        assert sim.processed_events == 7


class TestPropertyBased:
    @given(st.lists(st.integers(min_value=0, max_value=10**9),
                    min_size=1, max_size=200))
    def test_execution_order_is_sorted(self, delays):
        sim = Simulator()
        executed = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: executed.append(d))
        sim.run()
        assert executed == sorted(delays)
        assert len(executed) == len(delays)

    @given(st.lists(st.integers(min_value=0, max_value=10**6),
                    min_size=1, max_size=50),
           st.integers(min_value=0, max_value=10**6))
    def test_run_until_partitions_events(self, delays, cutoff):
        sim = Simulator()
        executed = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: executed.append(d))
        sim.run(until_ns=cutoff)
        assert executed == sorted(d for d in delays if d <= cutoff)


def _now_ns_writes(tree):
    """Lines of ``tree`` that assign to an attribute named ``now_ns``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name)
              and node.func.id == "setattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)
              and node.args[1].value == "now_ns"):
            lines.append(node.lineno)
            continue
        else:
            continue
        while targets:
            target = targets.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                targets.extend(target.elts)
            elif isinstance(target, ast.Starred):
                targets.append(target.value)
            elif (isinstance(target, ast.Attribute)
                  and target.attr == "now_ns"):
                lines.append(node.lineno)
    return lines


class TestClockOwnership:
    """``Simulator.now_ns`` is a plain attribute that only the engine
    writes: the read-only guard a property gave it, as a static check."""

    SRC = Path(repro.__file__).resolve().parent

    def test_only_the_engine_assigns_now_ns(self):
        writers = {}
        for path in sorted(self.SRC.rglob("*.py")):
            lines = _now_ns_writes(ast.parse(path.read_text(),
                                             str(path)))
            if lines:
                writers[path.relative_to(self.SRC).as_posix()] = lines
        assert list(writers) == ["netsim/engine.py"]

    @pytest.mark.parametrize("source", [
        "sim.now_ns = 5", "sim.now_ns += 1", "self.now_ns: int = 0",
        "a, (b.now_ns, c) = x", "setattr(sim, 'now_ns', 3)"])
    def test_the_scan_sees_each_form_of_write(self, source):
        assert _now_ns_writes(ast.parse(source)) == [1]

    def test_reads_are_not_writes(self):
        source = "t = sim.now_ns\nctx = Ctx(now_ns=sim.now_ns)"
        assert _now_ns_writes(ast.parse(source)) == []


def _touches_heap(tree):
    """Whether ``tree`` reaches for an attribute named ``_heap``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "_heap":
            return True
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "getattr" and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value == "_heap"):
            return True
    return False


def _direct_pushers(root):
    """Modules under ``root``, but the engine, that touch ``_heap``."""
    return [path.relative_to(root).as_posix()
            for path in sorted(root.rglob("*.py"))
            if path.relative_to(root).as_posix() != "netsim/engine.py"
            and _touches_heap(ast.parse(path.read_text(), str(path)))]


class TestHeapPushers:
    """Outside the engine, only the per-packet modules its docstring
    names push onto ``Simulator._heap`` themselves; everything else
    goes through ``post``/``post_at``/``schedule``/``schedule_at``."""

    SRC = Path(repro.__file__).resolve().parent
    PUSHERS = ["netsim/link.py", "netsim/node.py", "tcp/socket.py"]

    def test_the_direct_pushers_are_the_documented_three(self):
        assert _direct_pushers(self.SRC) == self.PUSHERS
        engine_doc = (self.SRC / "netsim/engine.py").read_text()
        for name in self.PUSHERS:
            module = name[:-len(".py")].replace("/", ".")
            assert f":mod:`~repro.{module}`" in engine_doc

    def test_a_new_pusher_is_caught(self, tmp_path):
        for name, body in [
                ("netsim/engine.py", "heappush(self._heap, entry)\n"),
                ("netsim/link.py", "heappush(sim._heap, entry)\n"),
                ("core/alias.py", "heap = self.sim._heap\n"
                                  "heappush(heap, entry)\n"),
                ("core/dotted.py",
                 "heapq.heappush(self.sim._heap, entry)\n"),
                ("core/named.py",
                 "heappush(getattr(sim, '_heap'), entry)\n"),
                ("core/polite.py", "self.sim.post(1, self.tick)\n"),
                ("core/own_heap.py", "heappush(self.heap, entry)\n")]:
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(body)
        assert _direct_pushers(tmp_path) == [
            "core/alias.py", "core/dotted.py", "core/named.py",
            "netsim/link.py"]
