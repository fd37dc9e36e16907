"""Unit tests for the FIFO single-server queue."""

import pytest

from repro.sim.server import FifoServer, noop


def test_job_effect_runs_at_completion(sim):
    server = FifoServer(sim)
    seen = []
    server.submit(2.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.0]


def test_jobs_execute_fifo_and_serially(sim):
    server = FifoServer(sim)
    seen = []
    server.submit(1.0, lambda: seen.append(("a", sim.now)))
    server.submit(1.0, lambda: seen.append(("b", sim.now)))
    server.submit(0.5, lambda: seen.append(("c", sim.now)))
    sim.run()
    assert seen == [("a", 1.0), ("b", 2.0), ("c", 2.5)]


def test_submit_while_busy_queues(sim):
    server = FifoServer(sim)
    server.submit(5.0, lambda: None)
    server.submit(1.0, lambda: None)
    assert server.busy
    assert server.queue_length == 1


def test_idle_after_drain(sim):
    server = FifoServer(sim)
    server.submit(1.0, lambda: None)
    sim.run()
    assert not server.busy
    assert server.queue_length == 0


def test_capacity_drops_excess_jobs(sim):
    server = FifoServer(sim, capacity=1)
    server.submit(1.0, lambda: None)   # starts immediately
    assert server.submit(1.0, lambda: None) is True   # queued
    assert server.submit(1.0, lambda: None) is False  # dropped
    assert server.stats.dropped == 1


def test_on_drop_callback_invoked(sim):
    dropped = []
    server = FifoServer(sim, capacity=0, on_drop=lambda fn, args: dropped.append(args))
    server.submit(1.0, lambda: None)
    server.submit(1.0, lambda x: None, "payload")
    assert dropped == [("payload",)]


def test_stats_counts(sim):
    server = FifoServer(sim)
    for _ in range(3):
        server.submit(1.0, lambda: None)
    sim.run()
    assert server.stats.submitted == 3
    assert server.stats.completed == 3
    assert server.stats.busy_time == 3.0


def test_utilization(sim):
    server = FifoServer(sim)
    server.submit(2.0, lambda: None)
    sim.run(until=4.0)
    assert server.stats.utilization(4.0) == 0.5
    assert server.stats.utilization(0.0) == 0.0


def test_max_queue_tracks_high_water_mark(sim):
    server = FifoServer(sim)
    for _ in range(4):
        server.submit(1.0, lambda: None)
    assert server.stats.max_queue == 3
    sim.run()
    assert server.stats.max_queue == 3


def test_submissions_during_service_preserve_order(sim):
    server = FifoServer(sim)
    seen = []

    def first():
        seen.append("first")
        server.submit(1.0, lambda: seen.append("third"))

    server.submit(1.0, first)
    server.submit(1.0, lambda: seen.append("second"))
    sim.run()
    assert seen == ["first", "second", "third"]


def test_new_job_after_idle_starts_immediately(sim):
    server = FifoServer(sim)
    seen = []
    server.submit(1.0, lambda: None)
    sim.run()
    server.submit(1.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.0]


def test_accounting_only_jobs_schedule_no_events(sim):
    """noop / None callbacks are pure arithmetic: zero kernel events."""
    server = FifoServer(sim)
    before = sim.events_scheduled
    server.submit(1.0, noop)
    server.submit_timed(0.5, None)
    assert sim.events_scheduled == before
    sim.run(until=3.0)
    stats = server.stats
    assert stats.completed == 2
    assert stats.busy_time == pytest.approx(1.5)
    assert not server.busy


def test_real_callback_schedules_exactly_one_event(sim):
    server = FifoServer(sim)
    before = sim.events_scheduled
    server.submit(1.0, lambda: None)
    assert sim.events_scheduled == before + 1


def test_submit_timed_returns_completion_time(sim):
    server = FifoServer(sim)
    assert server.submit_timed(0.5, None) == pytest.approx(0.5)
    # Queued behind the first job: completion chains off busy_until.
    assert server.submit_timed(0.25, None) == pytest.approx(0.75)


def test_submit_timed_returns_none_on_drop(sim):
    dropped = []
    server = FifoServer(sim, capacity=0,
                        on_drop=lambda fn, args: dropped.append(args))
    assert server.submit_timed(1.0, None, "a") is not None  # enters service
    assert server.submit_timed(1.0, None, "b") is None
    assert dropped == [("b",)]
