"""Property-based tests of the engine's event-ordering invariant.

Deterministic replay — and with it the parallel executor's
serial-equals-parallel guarantee — rests on the engine firing events
in nondecreasing time order with FIFO tie-breaking by insertion
sequence, under cancellations, events scheduled mid-run, zero-delay
reschedules, and scheduling interleaved with peeks and bounded runs.
Hypothesis searches for programs that violate it, judged by an oracle
that shares no code with the engine (a stable sort); scenario-level
tests then pin down that the ``REPRO_DEBUG`` gate never changes a
``ScenarioResult``.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import invariants
from repro.experiments.runner import Discipline, run_scenario
from repro.experiments.scenarios import ScalePolicy, ScenarioSpec
from repro.netsim.engine import SimulationError, Simulator

# Small time range to force plenty of same-timestamp ties.
EVENT_BATCH = st.lists(
    st.tuples(st.integers(min_value=0, max_value=40),  # time_ns
              st.booleans()),                          # cancelled?
    min_size=0, max_size=120)


def stable_order(live):
    """Indices of ``(time_ns, index)`` pairs in time-then-FIFO order."""
    return [index for _, index in sorted(live, key=lambda pair: pair[0])]


@settings(deadline=None, max_examples=200)
@given(batch=EVENT_BATCH)
def test_events_fire_in_time_then_fifo_order(batch):
    sim = Simulator()
    fired = []
    events = []
    for index, (time_ns, cancel) in enumerate(batch):
        events.append((sim.schedule_at(time_ns, fired.append, index),
                       time_ns, cancel))
    for event, _, cancel in events:
        if cancel:
            event.cancel()

    sim.run()

    # Nondecreasing time, FIFO among equal timestamps: exactly a
    # stable sort of the surviving batch by timestamp.
    expected = stable_order(
        (time_ns, index) for index, (_, time_ns, cancel)
        in enumerate(events) if not cancel)
    assert fired == expected
    assert sim.processed_events == len(expected)


@settings(deadline=None, max_examples=100)
@given(batch=EVENT_BATCH, delay=st.integers(min_value=0, max_value=10))
def test_ordering_holds_for_events_scheduled_mid_run(batch, delay):
    """Events scheduled from inside callbacks obey the same order.

    ``delay`` 0 is the zero-delay reschedule: the child receives a
    fresh, larger seq and so lands behind every already-pending event
    of its own timestamp.
    """
    sim = Simulator()
    firings = []   # (clock at firing, tag)
    scheduled = []  # (time_ns, tag) in schedule-call order == seq order

    def chain(tag):
        firings.append((sim.now_ns, tag))
        if len(tag) < 3:  # Original events spawn two generations.
            child = tag + (0,)
            scheduled.append((sim.now_ns + delay, child))
            sim.schedule(delay, chain, child)

    for index, (time_ns, cancel) in enumerate(batch):
        event = sim.schedule_at(time_ns, chain, (index,))
        if cancel:
            event.cancel()
        else:
            scheduled.append((time_ns, (index,)))
    sim.run()

    # Every schedule call, in call order, stably sorted by its time.
    assert firings == sorted(scheduled, key=lambda pair: pair[0])
    live = sum(1 for _, cancel in batch if not cancel)
    assert sim.processed_events == len(firings) == 3 * live


@settings(deadline=None, max_examples=100)
@given(times=st.lists(st.integers(min_value=0, max_value=40),
                      min_size=0, max_size=80),
       rng=st.randoms(use_true_random=False))
def test_cancellation_is_exact(times, rng):
    """Exactly the non-cancelled events fire, in stable-sort order."""
    sim = Simulator()
    fired = []
    events = [sim.schedule_at(t, fired.append, i)
              for i, t in enumerate(times)]
    cancelled = {i for i in range(len(events)) if rng.random() < 0.5}
    for i in cancelled:
        events[i].cancel()
    sim.run()
    assert fired == stable_order((t, i) for i, t in enumerate(times)
                                 if i not in cancelled)


@settings(deadline=None, max_examples=100)
@given(batch=EVENT_BATCH, chunk_ns=st.integers(min_value=1, max_value=60))
def test_ordering_holds_under_chunked_runs_and_peeks(batch, chunk_ns):
    """Scheduling interleaved with peeks and bounded runs stays ordered.

    The ``until_ns`` push-back in ``run`` pops the next entry and
    re-pushes it; a later schedule may then legally land *before* the
    pushed-back entry and must still fire first.
    """
    sim = Simulator()
    trace = []
    scheduled = []  # (time_ns, tag) of live events, in seq order

    def fire(tag):
        trace.append((sim.now_ns, tag))

    for chunk_start in range(0, len(batch), 5):
        base = sim.now_ns
        for tag, (time_ns, cancel) in enumerate(
                batch[chunk_start:chunk_start + 5], chunk_start):
            event = sim.schedule_at(base + time_ns, fire, tag)
            if cancel:
                event.cancel()
            else:
                scheduled.append((base + time_ns, tag))
        fired = set(trace)
        pending = [time_ns for time_ns, tag in scheduled
                   if (time_ns, tag) not in fired]
        assert sim.peek_time_ns() == (min(pending) if pending else None)
        sim.run(until_ns=base + chunk_ns)
        assert sim.now_ns == base + chunk_ns
    sim.run()
    assert trace == sorted(scheduled, key=lambda pair: pair[0])


class TestTies:
    def test_zero_delay_reschedule_lands_behind_pending_ties(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule(0, fired.append, "rescheduled")

        sim.schedule_at(10, first)
        sim.schedule_at(10, fired.append, "second")
        sim.schedule_at(10, fired.append, "third")
        sim.run()
        assert fired == ["first", "second", "third", "rescheduled"]
        assert sim.now_ns == 10

    def test_cancelled_tie_is_skipped(self):
        sim = Simulator()
        fired = []
        handles = {}

        def first():
            fired.append("first")
            handles["second"].cancel()

        sim.schedule_at(10, first)
        handles["second"] = sim.schedule_at(10, fired.append, "second")
        sim.schedule_at(10, fired.append, "third")
        sim.run()
        assert fired == ["first", "third"]
        assert sim.processed_events == 2


class TestScheduleAfterPushBack:
    """Scheduling ahead of an entry the engine popped and pushed back."""

    def test_schedule_after_peek(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(640_000, fired.append, "late")
        assert sim.peek_time_ns() == 640_000
        sim.schedule_at(5_000, fired.append, "early")
        sim.run()
        assert fired == ["early", "late"]
        assert sim.now_ns == 640_000

    def test_schedule_between_bounded_runs(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(640_000, fired.append, "late")
        # Pops the 640us event and pushes it back past the bound.
        sim.run(until_ns=10_000)
        assert sim.now_ns == 10_000
        sim.schedule_at(20_000, fired.append, "early")
        sim.run()
        assert fired == ["early", "late"]
        assert sim.now_ns == 640_000

    def test_schedule_after_max_events_push_back(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1_000, fired.append, "first")
        sim.schedule_at(640_000, fired.append, "late")
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=1)
        sim.schedule_at(5_000, fired.append, "early")
        sim.run()
        assert fired == ["first", "early", "late"]


class TestDebugGate:
    def test_pytest_arms_debug_by_default(self):
        # The suite must always exercise the validated path.
        assert invariants.DEBUG

    def test_set_debug_returns_previous(self):
        previous = invariants.set_debug(False)
        try:
            assert previous is True
            assert invariants.set_debug(True) is False
        finally:
            invariants.set_debug(previous)

    def test_engine_validates_when_armed(self):
        sim = Simulator()
        with pytest.raises(invariants.InvariantViolation):
            sim.schedule(1.5, lambda: None)

    def test_engine_skips_validation_when_released(self, monkeypatch):
        # Release runs pay zero per-event validation: a float delay is
        # no longer intercepted (the contract is *proved* under debug,
        # not re-checked per event in production).
        monkeypatch.setattr(invariants, "DEBUG", False)
        sim = Simulator()
        sim.schedule(1, lambda: None)  # Normal path still works.
        sim.schedule(1.5, lambda: None)  # Not intercepted when released.

    def test_run_until_is_always_validated(self, monkeypatch):
        # Once per run, not per event — stays armed in release mode.
        monkeypatch.setattr(invariants, "DEBUG", False)
        sim = Simulator()
        with pytest.raises(invariants.InvariantViolation):
            sim.run(until_ns=0.5)

    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG", "0")
        assert invariants._default_debug() is False
        monkeypatch.setenv("REPRO_DEBUG", "1")
        assert invariants._default_debug() is True
        monkeypatch.delenv("REPRO_DEBUG")
        assert invariants._default_debug() is True  # pytest is loaded.


class TestScenarioParity:
    def test_debug_on_off_reproduce_identically(self, monkeypatch):
        spec = ScenarioSpec(name="debug_parity", rate_bps=100e6,
                            rtts_ms=(20, 30), buffer_mtus=60,
                            cca_mix=(("newreno", 1), ("newreno", 1)),
                            duration_s=1.5)
        scaled = ScalePolicy(target_rate_bps=5e6,
                             max_rate_bps=5e6).apply(spec)

        def tiny_result():
            return run_scenario(scaled, Discipline.CEBINAE,
                                collect_series=True)

        monkeypatch.setattr(invariants, "DEBUG", True)
        debug_run = tiny_result()
        monkeypatch.setattr(invariants, "DEBUG", False)
        release_run = tiny_result()
        assert json.dumps(release_run.to_dict(), sort_keys=True) == \
            json.dumps(debug_run.to_dict(), sort_keys=True)
        assert release_run == debug_run
