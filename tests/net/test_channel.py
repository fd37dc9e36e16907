"""Tests for directed links: timing, queueing, drops, loss."""

import pytest

from repro.net.channel import DirectedLink, LinkConfig
from repro.net.message import RawPayload


def _payload(uid="m", size=100):
    return RawPayload(uid, size)


def _link(sim, deliver, latency=0.01, loss_hook=None, **config_kwargs):
    config = LinkConfig(**config_kwargs)
    return DirectedLink(sim, 0, 1, latency, config, deliver, loss_hook)


def test_delivery_after_tx_plus_latency(sim):
    seen = []
    link = _link(sim, lambda src, p: seen.append((src, p.uid, sim.now)),
                 latency=0.010, per_message_s=0.001, per_byte_s=0.0)
    link.transmit(_payload())
    sim.run()
    assert seen == [(0, "m", pytest.approx(0.011))]


def test_per_byte_cost_charged(sim):
    seen = []
    link = _link(sim, lambda src, p: seen.append(sim.now),
                 latency=0.0, per_message_s=0.0, per_byte_s=1e-5)
    link.transmit(_payload(size=1000))
    sim.run()
    assert seen == [pytest.approx(0.01)]


def test_serialization_is_sequential(sim):
    """Two messages share the wire: second is delayed by the first's tx."""
    seen = []
    link = _link(sim, lambda src, p: seen.append((p.uid, sim.now)),
                 latency=0.0, per_message_s=0.001, per_byte_s=0.0)
    link.transmit(_payload("a"))
    link.transmit(_payload("b"))
    sim.run()
    assert seen == [("a", pytest.approx(0.001)), ("b", pytest.approx(0.002))]


def test_on_wire_fires_at_serialization_end(sim):
    events = []
    link = _link(sim, lambda src, p: events.append(("deliver", sim.now)),
                 latency=0.5, per_message_s=0.001, per_byte_s=0.0)
    link.transmit(_payload(), on_wire=lambda: events.append(("wire", sim.now)))
    sim.run()
    assert events[0] == ("wire", pytest.approx(0.001))
    assert events[1] == ("deliver", pytest.approx(0.501))


def test_queue_capacity_drops_and_counts(sim):
    link = _link(sim, lambda src, p: None,
                 per_message_s=1.0, queue_capacity=1)
    link.transmit(_payload("a"))   # in service
    link.transmit(_payload("b"))   # queued
    link.transmit(_payload("c"))   # dropped
    assert link.stats.dropped_queue == 1


def test_queue_drop_still_fires_on_wire(sim):
    """Senders pace on on_wire; a drop must not stall them."""
    fired = []
    link = _link(sim, lambda src, p: None,
                 per_message_s=1.0, queue_capacity=0)
    link.transmit(_payload("a"))
    link.transmit(_payload("b"), on_wire=lambda: fired.append("b"))
    assert fired == ["b"]


def test_loss_hook_drops_at_delivery(sim):
    seen = []
    link = _link(sim, lambda src, p: seen.append(p.uid),
                 loss_hook=lambda dst: True)
    link.transmit(_payload())
    sim.run()
    assert seen == []
    assert link.stats.dropped_loss == 1
    assert link.stats.delivered == 0


def test_loss_hook_receives_destination(sim):
    destinations = []

    def hook(dst):
        destinations.append(dst)
        return False

    link = _link(sim, lambda src, p: None, loss_hook=hook)
    link.transmit(_payload())
    sim.run()
    assert destinations == [1]


def test_stats_sent_and_bytes(sim):
    link = _link(sim, lambda src, p: None)
    link.transmit(_payload("a", size=10))
    link.transmit(_payload("b", size=20))
    sim.run()
    assert link.stats.sent == 2
    assert link.stats.bytes_sent == 30
    assert link.stats.delivered == 2


def test_jitter_spreads_delivery(sim):
    seen = []
    link = _link(sim, lambda src, p: seen.append(sim.now),
                 latency=0.010, per_message_s=0.0, per_byte_s=0.0,
                 jitter_s=0.005)
    for i in range(20):
        link.transmit(_payload("m{}".format(i)))
    sim.run()
    assert all(0.010 <= t <= 0.016 for t in seen)
    assert len(set(seen)) > 1  # jitter actually varied


def test_busy_and_queue_length(sim):
    link = _link(sim, lambda src, p: None, per_message_s=1.0)
    assert not link.busy
    link.transmit(_payload("a"))
    link.transmit(_payload("b"))
    assert link.busy
    assert link.queue_length == 1


def test_jitter_free_hop_schedules_single_event(sim):
    """The fast path: one kernel event per hop (the propagation arrival)."""
    link = _link(sim, lambda src, p: None,
                 latency=0.01, per_message_s=0.001, per_byte_s=0.0)
    before = sim.events_scheduled
    link.transmit(_payload())
    assert sim.events_scheduled == before + 1
    sim.run()
    assert link.stats.sent == 1
    assert link.stats.delivered == 1


def test_on_wire_hop_schedules_pacing_event(sim):
    """With on_wire the fast path adds exactly one pacing event."""
    link = _link(sim, lambda src, p: None,
                 latency=0.01, per_message_s=0.001, per_byte_s=0.0)
    before = sim.events_scheduled
    link.transmit(_payload(), on_wire=lambda: None)
    assert sim.events_scheduled == before + 2


def test_jittered_link_keeps_two_event_path(sim):
    """Jittered links must draw link-jitter at the serialisation completion
    (legacy order), so they stay on the event-per-hop path."""
    link = _link(sim, lambda src, p: None,
                 latency=0.01, per_message_s=0.001, per_byte_s=0.0,
                 jitter_s=0.005)
    before = sim.events_scheduled
    link.transmit(_payload())
    sim.run()
    assert sim.events_scheduled == before + 2
    assert link.stats.delivered == 1


def test_stats_sent_drained_at_observation(sim):
    """Fast-path sent/bytes counters must read as if counted at each
    message's serialisation completion, even mid-run."""
    link = _link(sim, lambda src, p: None,
                 latency=5.0, per_message_s=1.0, per_byte_s=0.0)
    link.transmit(_payload("a", size=10))
    link.transmit(_payload("b", size=20))
    assert link.stats.sent == 0
    sim.run(until=1.5)
    assert link.stats.sent == 1
    assert link.stats.bytes_sent == 10
    sim.run(until=2.5)
    assert link.stats.sent == 2
    assert link.stats.bytes_sent == 30
    assert link.stats.delivered == 0  # still propagating
    # A third message joins the queue behind two counted-but-unarrived
    # ones: it counts at its own completion, and arrivals of the drained
    # ones must not count them twice.
    link.transmit(_payload("c", size=40))
    sim.run(until=3.0)
    assert (link.stats.sent, link.stats.bytes_sent) == (2, 30)
    sim.run(until=3.5)
    assert (link.stats.sent, link.stats.bytes_sent) == (3, 70)
    sim.run(until=6.5)
    assert (link.stats.sent, link.stats.delivered) == (3, 1)
    sim.run()
    stats = link.stats
    assert (stats.sent, stats.bytes_sent, stats.delivered) == (3, 70, 3)


def test_stats_sent_counts_undrained_arrivals_once(sim):
    """Messages never observed mid-flight are counted as they arrive."""
    link = _link(sim, lambda src, p: None,
                 latency=5.0, per_message_s=1.0, per_byte_s=0.0)
    link.transmit(_payload("a", size=10))
    link.transmit(_payload("b", size=20))
    sim.run(until=6.5)                  # a arrived, b serialised, unread
    assert (link.stats.sent, link.stats.bytes_sent) == (2, 30)
    sim.run()
    assert (link.stats.sent, link.stats.delivered) == (2, 2)


def test_link_with_backlog_is_one_pending_event(sim):
    """Only the head of a jitter-free link's arrival queue is armed."""
    link = _link(sim, lambda src, p: None,
                 latency=0.01, per_message_s=0.001, per_byte_s=0.0)
    for uid in "abcd":
        link.transmit_timed(_payload(uid))
    assert sim.pending() == 1
    assert sim.events_scheduled == 1
    sim.run()
    assert sim.events_executed == 4
    assert link.stats.delivered == 4


def test_degrade_applies_to_not_yet_serialised_messages(sim):
    """The documented contract: only messages serialised after degrade()
    see the new parameters — including fast-path messages submitted
    before the call whose serialisation completes after it."""
    seen = []
    link = _link(sim, lambda src, p: seen.append((p.uid, sim.now)),
                 latency=0.01, per_message_s=0.001, per_byte_s=0.0)
    link.transmit(_payload("a"))
    link.transmit(_payload("b"))
    sim.schedule_at(0.0005, link.degrade, 10.0)
    sim.run()
    # Both serialise after t=0.0005, so both travel at the degraded 0.1s.
    assert seen == [("a", pytest.approx(0.101)), ("b", pytest.approx(0.102))]
    assert link.stats.sent == 2
    assert link.stats.delivered == 2


def test_degrade_restore_roundtrip_with_in_flight(sim):
    """restore() mid-flight must also convert pending fast-path messages."""
    seen = []
    link = _link(sim, lambda src, p: seen.append((p.uid, sim.now)),
                 latency=0.01, per_message_s=0.001, per_byte_s=0.0)
    link.degrade(10.0)
    link.transmit(_payload("a"))
    sim.schedule_at(0.0005, link.restore)
    sim.run()
    assert seen == [("a", pytest.approx(0.011))]


def _trace(link_cls, script):
    """Run ``script(sim, link, log)`` on a fresh link; returns the log."""
    from repro.sim.kernel import Simulator
    sim = Simulator(seed=1)
    log = []
    link = link_cls(sim, 0, 1, 0.1, LinkConfig(per_message_s=0.001,
                                               per_byte_s=0.0),
                    lambda src, p: log.append((sim.now, p.uid)))
    script(sim, link, log)
    sim.run()
    return log, link, sim


def _overtake_script(sim, link, log):
    # A probe sequenced before message a and one after it, both at a's
    # pre-degradation arrival instant: a must fire between them.
    arrival_a = 0.001 + 0.1
    sim.schedule_at(arrival_a, lambda: log.append((sim.now, "probe-before")))
    for uid in "abc":
        link.transmit_timed(_payload(uid))
    sim.schedule_at(arrival_a, lambda: log.append((sim.now, "probe-after")))

    def degrade_then_send():
        link.degrade(latency_factor=0.1)
        link.transmit(_payload("d"))
    sim.schedule_at(0.0025, degrade_then_send)


def test_degrade_keeps_serialised_arrivals_and_their_seq():
    """degrade() while messages are serialised but not yet arrived: they
    keep their old-latency arrival and original tie-break position, the
    not-yet-serialised message and later transmits take the new latency
    and overtake them — exactly as one event per message would."""
    from tests.net.reference_link import ReferenceLink

    log, link, sim = _trace(DirectedLink, _overtake_script)
    assert [uid for _t, uid in log] == [
        "c", "d", "probe-before", "a", "probe-after", "b"]
    assert log[0][0] == 0.003 + 0.1 * 0.1          # c: serialised after
    assert log[3][0] == 0.001 + 0.1                 # a: old latency
    assert log[5][0] == 0.002 + 0.1                 # b: old latency
    assert link.stats.sent == 4 and link.stats.delivered == 4
    reference_log, reference, reference_sim = _trace(ReferenceLink,
                                                     _overtake_script)
    assert log == reference_log
    assert sim.events_executed == reference_sim.events_executed


def test_abort_pending_chain_keeps_armed_head(sim):
    """Aborting the queued tail of a chain leaves the in-service head's
    armed arrival alone."""
    seen = []
    link = _link(sim, lambda src, p: seen.append((p.uid, sim.now)),
                 latency=0.01, per_message_s=0.001, per_byte_s=0.0)
    for uid in "abc":
        link.transmit_chained(_payload(uid))
    sim.schedule_at(0.0005, lambda: seen.append(
        ("aborted", link.abort_pending_chain())))
    sim.run()
    assert seen == [("aborted", 2), ("a", pytest.approx(0.011))]
    assert link.stats.sent == 1 and link.stats.delivered == 1


def _abort_empties_script(sim, link, log):
    # x goes out on the two-event path (jittered), then the link is
    # restored and a chain queues behind it: the chain is the whole
    # arrival queue, head armed, none of it in service.
    link.degrade(extra_jitter_s=0.002, jitter_rng=sim.rng("jitter"))
    link.transmit(_payload("x"))
    link.restore()
    link.transmit_chained(_payload("a"))
    link.transmit_chained(_payload("b"))
    sim.schedule_at(0.0005, lambda: log.append(
        (sim.now, link.abort_pending_chain())))


def test_abort_pending_chain_emptying_queue_cancels_armed_head():
    from tests.net.reference_link import ReferenceLink

    log, link, sim = _trace(DirectedLink, _abort_empties_script)
    assert [entry[1] for entry in log] == [2, "x"]
    assert sim.pending() == 0
    assert link.stats.sent == 1 and link.stats.delivered == 1
    reference_log, _reference, reference_sim = _trace(ReferenceLink,
                                                      _abort_empties_script)
    assert log == reference_log
    assert sim.events_executed == reference_sim.events_executed


def test_arrival_queue_owns_no_object_per_message(sim):
    """The arrival queue is three columns, not one record per message:
    with a 20k-message chain serialised and still propagating, what the
    link holds for it stays within 32 B per message. The run stops once
    the wire is idle and the transmission server is drained, so its job
    records are gone; a full collection empties the interpreter's
    free lists, so every byte still held is the link's."""
    import gc
    import tracemalloc

    count = 20_000
    link = _link(sim, lambda src, p: None,
                 latency=1000.0, per_message_s=0.001, per_byte_s=0.0)
    payloads = [_payload("m{}".format(i)) for i in range(count)]
    exclude = [tracemalloc.Filter(False, tracemalloc.__file__)]
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.take_snapshot().filter_traces(exclude)
        for payload in payloads:
            link.transmit_chained(payload)
        sim.run(until=count * 0.001 + 1.0)
        assert not link.busy
        gc.collect()
        after = tracemalloc.take_snapshot().filter_traces(exclude)
    finally:
        tracemalloc.stop()
    assert link.stats.delivered == 0
    grown = sum(stat.size_diff
                for stat in after.compare_to(before, "filename"))
    assert grown / count <= 32
    sim.run()
    assert link.stats.delivered == count


def _columns(link):
    """(column length, live entries) of a link's arrival queue."""
    length = len(link._payloads)
    assert len(link._completions) == len(link._seqs) == length
    return length, length - link._head


@pytest.mark.parametrize("backlog", [8, 2000])
def test_backlogged_link_columns_stay_bounded(sim, backlog):
    """A link that never empties is only ever compacted: its dead prefix
    stays within max(live entries, _COMPACT_AT), so with a backlog under
    the threshold the columns never exceed the live entries plus the
    threshold, however many messages pass through."""
    from repro.net.channel import _COMPACT_AT

    refills = 6000
    sizes = []

    def deliver(src, payload):
        length, live = _columns(link)
        sizes.append(length)
        assert length - live <= max(live, _COMPACT_AT)
        if len(sizes) <= refills:
            link.transmit_chained(_payload(size=10))

    link = _link(sim, deliver, latency=0.01, per_message_s=0.001,
                 per_byte_s=0.0)
    for _ in range(backlog):
        link.transmit_chained(_payload(size=10))
    sim.run()
    assert link.stats.delivered == backlog + refills
    assert max(sizes) <= backlog + max(backlog, _COMPACT_AT)
    if backlog < _COMPACT_AT:
        assert max(sizes) < backlog + _COMPACT_AT
    # Emptied at the end: nothing armed, and no more dead entries than
    # one compaction threshold (their payloads already released).
    length, live = _columns(link)
    assert live == 0 and length < _COMPACT_AT and link._armed is None
    assert link._payloads == [None] * length


def _compaction_trace(link_cls):
    """A 100-message backlog whose head crosses the compaction point
    (head 50 of 100) between stats reads, then an abort, a degrade with
    messages in flight, a restore and a second chain."""
    from repro.sim.kernel import Simulator

    sim = Simulator(seed=1)
    log = []
    lengths = []
    link = link_cls(sim, 0, 1, 0.1, LinkConfig(per_message_s=0.01,
                                               per_byte_s=0.0),
                    lambda src, p: log.append(("deliver", sim.now, src,
                                               p.uid)))

    def read_stats():
        stats = link.stats
        log.append(("stats", sim.now, stats.sent, stats.bytes_sent,
                    stats.delivered, stats.dropped_queue,
                    stats.dropped_loss))
        if link_cls is DirectedLink and link._payloads:
            lengths.append((sim.now, len(link._payloads)))

    def chain(prefix, count):
        for i in range(count):
            link.transmit_chained(_payload("{}{}".format(prefix, i),
                                           size=10 + i))

    def timed(prefix, count):
        for i in range(count):
            link.transmit_timed(_payload("{}{}".format(prefix, i), size=7))

    def abort():
        log.append(("abort", sim.now, link.abort_pending_chain()))

    sim.schedule_at(0.0, chain, "a", 100)
    for step in range(1, 160):
        sim.schedule_at(step * 0.013, read_stats)
    sim.schedule_at(0.705, abort)
    sim.schedule_at(0.75, link.degrade, 0.5)
    sim.schedule_at(0.76, timed, "t", 5)
    sim.schedule_at(0.77, link.restore)
    sim.schedule_at(0.8, chain, "b", 70)
    sim.schedule_at(1.3, abort)
    sim.schedule_at(1.35, link.degrade, 2.0)
    sim.schedule_at(1.6, abort)
    sim.run()
    read_stats()
    return log, lengths, sim.events_executed


def test_arrival_queue_compaction_matches_reference():
    """Compaction rewrites the column indices (head, counted prefix)
    mid-backlog; deliveries, abort results and LinkStats must still match
    the one-event-per-message reference at every step."""
    from tests.net.reference_link import ReferenceLink

    log, lengths, executed = _compaction_trace(DirectedLink)
    reference_log, _lengths, reference_executed = _compaction_trace(
        ReferenceLink)
    assert log == reference_log
    assert executed == reference_executed
    # The head did cross the compaction point with the backlog still
    # queued, and the aborts withdrew part of both chains.
    assert any(0 < length < 100 for time, length in lengths if time < 0.7)
    assert [entry[2] for entry in log if entry[0] == "abort"] == [29, 21, 0]
