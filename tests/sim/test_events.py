"""Unit tests for the event queue (the binary heap)."""

import pytest

from repro.sim.events import Event, EventQueue, resolve_queue_backend


@pytest.fixture(params=[EventQueue], ids=["heap"])
def queue_cls(request):
    return request.param


def test_push_returns_event_handle(queue_cls):
    queue = queue_cls()
    event = queue.push(1.0, lambda: None, ())
    assert isinstance(event, Event)
    assert event.time == 1.0
    assert not event.cancelled


def test_pop_returns_events_in_time_order(queue_cls):
    queue = queue_cls()
    queue.push(3.0, "c", ())
    queue.push(1.0, "a", ())
    queue.push(2.0, "b", ())
    assert [queue.pop().fn for _ in range(3)] == ["a", "b", "c"]


def test_same_time_events_pop_in_scheduling_order(queue_cls):
    queue = queue_cls()
    for label in ("first", "second", "third"):
        queue.push(5.0, label, ())
    assert [queue.pop().fn for _ in range(3)] == ["first", "second", "third"]


def test_pop_skips_cancelled_events(queue_cls):
    queue = queue_cls()
    keep = queue.push(1.0, "keep", ())
    drop = queue.push(0.5, "drop", ())
    drop.cancel()
    queue.note_cancelled()
    assert queue.pop() is keep


def test_pop_empty_returns_none(queue_cls):
    assert queue_cls().pop() is None


def test_len_counts_live_events_only(queue_cls):
    queue = queue_cls()
    event = queue.push(1.0, "x", ())
    queue.push(2.0, "y", ())
    assert len(queue) == 2
    event.cancel()
    queue.note_cancelled()
    assert len(queue) == 1


def test_peek_time_ignores_cancelled_head(queue_cls):
    queue = queue_cls()
    head = queue.push(1.0, "x", ())
    queue.push(2.0, "y", ())
    head.cancel()
    queue.note_cancelled()
    assert queue.peek_time() == 2.0


def test_peek_time_empty_is_none(queue_cls):
    assert queue_cls().peek_time() is None


def test_cancel_clears_references(queue_cls):
    queue = queue_cls()
    event = queue.push(1.0, "payload", ("big-arg",))
    event.cancel()
    assert event.fn is None
    assert event.args == ()


def test_pop_with_limit_leaves_future_event_queued(queue_cls):
    queue = queue_cls()
    event = queue.push(5.0, "future", ())
    assert queue.pop(2.0) is None
    assert len(queue) == 1            # still queued, not consumed
    assert queue.pop(5.0) is event


def test_pop_with_limit_discards_cancelled_heads_first(queue_cls):
    queue = queue_cls()
    head = queue.push(1.0, "cancelled", ())
    queue.push(5.0, "future", ())
    head.cancel()
    queue.note_cancelled()
    # The cancelled head is before the limit but must not mask the live
    # event's time: nothing to run by t=2 even though the heap head is
    # at t=1.
    assert queue.pop(2.0) is None
    assert queue.heap_size == 1       # the shell was discarded in passing


def test_pop_returns_event_exactly_at_limit(queue_cls):
    queue = queue_cls()
    event = queue.push(2.0, "now", ())
    assert queue.pop(2.0) is event


def test_reserved_seq_pins_tie_break_position(queue_cls):
    queue = queue_cls()
    early_slot = queue.reserve()
    queue.push(1.0, "pushed-first", ())
    queue.push(1.0, "pushed-second", ())
    # Armed later, but at the slot reserved before either push: fires first.
    queue.push(1.0, "reserved", (), early_slot)
    assert [queue.pop().fn for _ in range(3)] == [
        "reserved", "pushed-first", "pushed-second"]


def test_unused_reservation_is_harmless(queue_cls):
    queue = queue_cls()
    queue.reserve()
    queue.push(1.0, "a", ())
    queue.reserve()
    queue.push(1.0, "b", ())
    assert queue.scheduled_total == 2
    assert [queue.pop().fn for _ in range(2)] == ["a", "b"]


def _cancel(queue, event):
    """Cancel through the queue's bookkeeping (as Simulator.cancel does)."""
    event.cancel()
    queue.note_cancelled()


def test_compaction_reclaims_cancelled_shells(queue_cls):
    queue = queue_cls()
    events = [queue.push(float(i), "e", ()) for i in range(100)]
    for event in events[:70]:
        _cancel(queue, event)
    assert len(queue) == 30
    # Compaction fired once shells outnumbered live entries (at the 51st
    # cancellation, rebuilding the structure to 49 live events); the queue
    # no longer holds one shell per cancelled event.
    assert queue.heap_size == 49


def test_no_compaction_below_minimum_heap_size(queue_cls):
    queue = queue_cls()
    events = [queue.push(float(i), "e", ()) for i in range(40)]
    for event in events[:30]:
        _cancel(queue, event)
    assert len(queue) == 10
    # Under COMPACT_MIN_SIZE entries the shells are left for pop() to
    # discard lazily — compaction would cost more than it saves.
    assert queue.heap_size == 40


def test_order_preserved_after_compaction(queue_cls):
    queue = queue_cls()
    events = [queue.push(float(i % 7), i, ()) for i in range(80)]
    for event in events[::2]:
        _cancel(queue, event)
    survivors = []
    while True:
        event = queue.pop()
        if event is None:
            break
        survivors.append(event)
    assert [e.fn for e in survivors] == sorted(
        (e.fn for e in survivors),
        key=lambda i: (i % 7, i))
    assert sorted(e.fn for e in survivors) == list(range(1, 80, 2))


def test_pool_recycles_executed_events(queue_cls):
    queue = queue_cls()
    first = queue.push_pooled(1.0, "a", ())
    assert first.pooled
    popped = queue.pop()
    assert popped is first
    # The kernel retires the event (cancel) before recycling it.
    popped.cancel()
    queue.recycle(popped)
    second = queue.push_pooled(2.0, "b", ("arg",))
    assert second is first             # record reused from the freelist
    assert second.time == 2.0
    assert second.fn == "b"
    assert second.args == ("arg",)
    assert not second.cancelled


def test_plain_push_never_draws_from_pool(queue_cls):
    queue = queue_cls()
    pooled = queue.push_pooled(1.0, "a", ())
    queue.pop().cancel()
    queue.recycle(pooled)
    fresh = queue.push(2.0, "b", ())
    # schedule()/schedule_at() handles may be kept indefinitely by callers,
    # so they must be fresh objects, never freelist tenants.
    assert fresh is not pooled
    assert not fresh.pooled


def test_pool_is_bounded(queue_cls):
    queue = queue_cls()
    for _ in range(queue.POOL_MAX + 10):
        event = queue.push_pooled(1.0, "e", ())
        queue.pop()
        event.cancel()
        queue.recycle(event)
    assert len(queue._pool) <= queue.POOL_MAX


def test_resolve_queue_backend_is_the_heap():
    assert resolve_queue_backend() is EventQueue


def test_event_ordering_dunder():
    a = Event(1.0, 0, None, ())
    b = Event(1.0, 1, None, ())
    c = Event(2.0, 0, None, ())
    assert a < b < c


def test_event_repr_mentions_state():
    event = Event(1.5, 3, None, ())
    assert "1.5" in repr(event)
    event.cancelled = True
    assert "cancelled" in repr(event)
