"""Unit tests for the Simulator event loop."""

import pytest

from repro.sim.kernel import SimulationError, Simulator


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_schedule_executes_at_right_time(sim):
    seen = []
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]


def test_schedule_with_args(sim):
    seen = []
    sim.schedule(1.0, seen.append, "value")
    sim.run()
    assert seen == ["value"]


def test_schedule_at_absolute_time(sim):
    seen = []
    sim.schedule_at(4.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [4.0]


def test_schedule_in_past_raises(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_run_until_advances_clock_exactly(sim):
    sim.schedule(10.0, lambda: None)
    sim.run(until=3.0)
    assert sim.now == 3.0
    assert sim.pending() == 1


def test_run_until_composes(sim):
    seen = []
    sim.schedule(1.0, lambda: seen.append("a"))
    sim.schedule(5.0, lambda: seen.append("b"))
    sim.run(until=2.0)
    assert seen == ["a"]
    sim.run(until=6.0)
    assert seen == ["a", "b"]


def test_run_until_with_empty_queue_still_advances(sim):
    sim.run(until=7.0)
    assert sim.now == 7.0


def test_max_events_limits_execution(sim):
    seen = []
    for i in range(5):
        sim.schedule(float(i + 1), seen.append, i)
    executed = sim.run(max_events=2)
    assert executed == 2
    assert seen == [0, 1]


def test_step_executes_one_event(sim):
    seen = []
    sim.schedule(1.0, seen.append, "x")
    assert sim.step() is True
    assert seen == ["x"]
    assert sim.step() is False


def test_cancel_prevents_execution(sim):
    seen = []
    event = sim.schedule(1.0, seen.append, "x")
    sim.cancel(event)
    sim.run()
    assert seen == []
    assert sim.pending() == 0


def test_double_cancel_is_noop(sim):
    event = sim.schedule(1.0, lambda: None)
    sim.cancel(event)
    sim.cancel(event)
    assert sim.pending() == 0


def test_events_scheduled_during_run_execute(sim):
    seen = []

    def first():
        sim.schedule(1.0, lambda: seen.append("second"))

    sim.schedule(1.0, first)
    sim.run()
    assert seen == ["second"]
    assert sim.now == 2.0


def test_run_until_with_only_cancelled_future_events(sim):
    event = sim.schedule(5.0, lambda: None)
    sim.cancel(event)
    sim.run(until=2.0)
    assert sim.now == 2.0
    assert sim.pending() == 0
    # The next run must not rewind the clock over the drained queue.
    sim.run(until=1.0)
    assert sim.now == 2.0


def test_run_until_in_the_past_keeps_clock_with_pending_events(sim):
    seen = []
    sim.schedule(5.0, seen.append, "f")
    sim.run(until=3.0)
    sim.run(until=1.0)
    assert sim.now == 3.0
    assert sim.pending() == 1
    # An instant the run already reached stays in the past.
    with pytest.raises(SimulationError):
        sim.schedule_at(2.0, seen.append, "g")
    sim.run()
    assert seen == ["f"]
    assert sim.now == 5.0


def test_callback_cancelling_its_own_event_is_safe(sim):
    """A callback cancelling the very event that invoked it (e.g. a timer
    stopped from inside its firing) must not corrupt the live count."""
    seen = []
    holder = {}

    def fire():
        sim.cancel(holder["event"])
        seen.append(sim.now)

    holder["event"] = sim.schedule(1.0, fire)
    sim.schedule(2.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.0, 2.0]
    assert sim.pending() == 0


def test_rng_streams_are_deterministic():
    a = Simulator(seed=1).rng("jitter")
    b = Simulator(seed=1).rng("jitter")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_rng_streams_are_independent_by_name():
    sim = Simulator(seed=1)
    assert sim.rng("a").random() != sim.rng("b").random()


def test_rng_stream_cached_per_name(sim):
    assert sim.rng("x") is sim.rng("x")


def test_events_executed_counter(sim):
    for i in range(3):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_executed == 3


def test_reentrant_run_raises(sim):
    def nested():
        sim.run()

    sim.schedule(1.0, nested)
    with pytest.raises(SimulationError):
        sim.run()


def test_reserved_slot_pins_tie_break_position(sim):
    """An event armed late with a reserved seq fires as if scheduled at
    reservation time — ahead of same-instant events scheduled in between."""
    seen = []
    slot = sim.reserve_slot()
    sim.schedule_at(1.0, lambda: seen.append("later"))
    sim.schedule_at_reserved(1.0, slot, lambda: seen.append("reserved"))
    sim.run()
    assert seen == ["reserved", "later"]


def test_unused_reservation_costs_no_event(sim):
    before = sim.events_scheduled
    sim.reserve_slot()
    assert sim.events_scheduled == before
    assert sim.pending() == 0


def test_schedule_at_reserved_in_past_raises(sim):
    slot = sim.reserve_slot()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at_reserved(0.5, slot, lambda: None)
