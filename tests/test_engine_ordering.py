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

KINDS = ("post", "post_at", "schedule", "schedule_at")

# Small time range to force plenty of same-timestamp ties.  Each entry
# is (entry point, time_ns, cancelled?); only the two ``schedule``
# kinds return a handle, so only they can honour the cancel flag.
EVENT_BATCH = st.lists(
    st.tuples(st.sampled_from(KINDS),
              st.integers(min_value=0, max_value=40),
              st.booleans()),
    min_size=0, max_size=120)


def submit(sim, kind, time_ns, callback, *args):
    """Queue ``callback`` for absolute ``time_ns`` through ``kind``.

    Returns the Event handle for the ``schedule`` kinds and None for
    the ``post`` kinds (which is what those methods return).
    """
    if kind == "post":
        return sim.post(time_ns - sim.now_ns, callback, *args)
    if kind == "post_at":
        return sim.post_at(time_ns, callback, *args)
    if kind == "schedule":
        return sim.schedule(time_ns - sim.now_ns, callback, *args)
    return sim.schedule_at(time_ns, callback, *args)


def submit_batch(sim, batch, callback, base_ns=0, first_tag=0):
    """Submit a batch; returns the live ``(time_ns, tag)`` pairs."""
    live = []
    for tag, (kind, time_ns, cancel) in enumerate(batch, first_tag):
        handle = submit(sim, kind, base_ns + time_ns, callback, tag)
        assert (handle is None) == kind.startswith("post")
        if cancel and handle is not None:
            handle.cancel()
        else:
            live.append((base_ns + time_ns, tag))
    return live


def stable_order(live):
    """``(time_ns, tag)`` pairs in time-then-FIFO order."""
    return sorted(live, key=lambda pair: pair[0])


def drain_by_step(sim):
    while sim.step():
        pass


def drain_by_max_events(sim):
    # Every raise pushes the popped entry back; the next run must take
    # it up again in the same place.
    while True:
        try:
            sim.run(max_events=3)
            return
        except SimulationError:
            pass


@settings(deadline=None, max_examples=200)
@given(batch=EVENT_BATCH)
def test_events_fire_in_time_then_fifo_order(batch):
    """One heap, one order: handle-free and cancellable entries mixed."""
    sim = Simulator()
    fired = []
    live = submit_batch(
        sim, batch, lambda tag: fired.append((sim.now_ns, tag)))

    sim.run()

    # Nondecreasing time, FIFO among equal timestamps: exactly a
    # stable sort of the surviving batch by timestamp.
    assert fired == stable_order(live)
    assert sim.processed_events == len(live)


@pytest.mark.parametrize("drain", [drain_by_step, drain_by_max_events])
@settings(deadline=None, max_examples=100)
@given(batch=EVENT_BATCH)
def test_other_ways_to_drain_keep_the_order(drain, batch):
    """``step()`` and ``max_events`` push-backs see the same entries."""
    sim = Simulator()
    fired = []
    live = submit_batch(
        sim, batch, lambda tag: fired.append((sim.now_ns, tag)))

    drain(sim)

    assert fired == stable_order(live)
    assert sim.processed_events == len(live)
    assert sim.peek_time_ns() is None


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
            # Children go in through a different door than the parent.
            submit(sim, KINDS[(tag[0] + len(tag)) % 4],
                   sim.now_ns + delay, chain, child)

    for index, (kind, time_ns, cancel) in enumerate(batch):
        handle = submit(sim, kind, time_ns, chain, (index,))
        if cancel and handle is not None:
            handle.cancel()
        else:
            scheduled.append((time_ns, (index,)))
    live = len(scheduled)
    sim.run()

    # Every schedule call, in call order, stably sorted by its time.
    assert firings == stable_order(scheduled)
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
    assert fired == [i for _, i in stable_order(
        (t, i) for i, t in enumerate(times) if i not in cancelled)]


@settings(deadline=None, max_examples=100)
@given(batch=EVENT_BATCH, chunk_ns=st.integers(min_value=1, max_value=60))
def test_ordering_holds_under_chunked_runs_and_peeks(batch, chunk_ns):
    """Scheduling interleaved with peeks and bounded runs stays ordered.

    The ``until_ns`` push-back in ``run`` pops the next entry and
    re-pushes it; a later schedule may then legally land *before* the
    pushed-back entry and must still fire first.  ``peek_time_ns``
    must look past cancelled heads to the first live entry of either
    kind.
    """
    sim = Simulator()
    trace = []
    scheduled = []  # (time_ns, tag) of live events, in seq order

    def fire(tag):
        trace.append((sim.now_ns, tag))

    for chunk_start in range(0, len(batch), 5):
        base = sim.now_ns
        scheduled += submit_batch(
            sim, batch[chunk_start:chunk_start + 5], fire,
            base_ns=base, first_tag=chunk_start)
        fired = set(trace)
        pending = [time_ns for time_ns, tag in scheduled
                   if (time_ns, tag) not in fired]
        assert sim.peek_time_ns() == (min(pending) if pending else None)
        sim.run(until_ns=base + chunk_ns)
        assert sim.now_ns == base + chunk_ns
    sim.run()
    assert trace == stable_order(scheduled)


class TestPosting:
    """The handle-free entry points: same checks, no Event."""

    def test_post_returns_nothing_and_fires(self):
        sim = Simulator()
        fired = []
        assert sim.post(5, fired.append, "a") is None
        assert sim.post_at(3, fired.append, "b") is None
        sim.run()
        assert fired == ["b", "a"]
        assert sim.now_ns == 5

    def test_schedule_still_returns_the_event(self):
        sim = Simulator()
        event = sim.schedule(7, print, 1, 2)
        assert (event.time_ns, event.callback, event.args,
                event.cancelled) == (7, print, (1, 2), False)
        event.cancel()
        assert event.cancelled
        sim.run()
        assert sim.processed_events == 0

    def test_post_rejects_the_past(self):
        sim = Simulator()
        sim.post(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="in the past"):
            sim.post(-1, lambda: None)
        with pytest.raises(SimulationError, match="now is 10ns"):
            sim.post_at(9, lambda: None)

    def test_peek_skips_a_cancelled_head_to_a_posted_entry(self):
        sim = Simulator()
        sim.schedule_at(1, lambda: None).cancel()
        sim.schedule_at(2, lambda: None).cancel()
        sim.post_at(3, lambda: None)
        assert sim.peek_time_ns() == 3
        assert sim.step() is True
        assert sim.now_ns == 3
        assert sim.step() is False


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
        with pytest.raises(invariants.InvariantViolation):
            sim.post(1.5, lambda: None)
        with pytest.raises(invariants.InvariantViolation):
            sim.post_at(1.5, lambda: None)

    def test_engine_skips_validation_when_released(self, monkeypatch):
        # Release runs pay zero per-event validation: a float delay is
        # no longer intercepted (the contract is *proved* under debug,
        # not re-checked per event in production).
        monkeypatch.setattr(invariants, "DEBUG", False)
        sim = Simulator()
        sim.schedule(1, lambda: None)  # Normal path still works.
        sim.schedule(1.5, lambda: None)  # Not intercepted when released.
        sim.post(1.5, lambda: None)

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
