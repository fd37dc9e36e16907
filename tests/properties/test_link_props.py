"""Property test: the link arrival queue is indistinguishable from the
one-event-per-message reference.

A jitter-free :class:`DirectedLink` keeps its in-flight messages in its
own FIFO and arms one kernel event for the head; the reference
(:class:`tests.net.reference_link.ReferenceLink`) pushes one event per
message. Random traces of ``transmit_timed`` / ``transmit_chained`` /
``transmit(on_wire=...)`` / ``abort_pending_chain`` / ``degrade`` /
``restore`` and mid-run ``stats`` reads are replayed over a few links on
two simulators, one per implementation. Both must produce the same log:
every delivery and pacing callback as ``(now, src, uid)`` in execution
order, every abort result and every ``LinkStats`` snapshot — on both
queue backends.

Delivered messages with an odd size are forwarded once over the next
link from inside the delivery callback, so transmits issued while an
arrival is being handled (after the link has re-armed its next head) are
covered too. Latencies, costs and op times come from small palettes so
exact same-instant ties across links are frequent.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.channel import DirectedLink, LinkConfig
from repro.net.message import RawPayload
from repro.sim.events import QUEUE_BACKENDS
from repro.sim.kernel import Simulator
from tests.net.reference_link import ReferenceLink

TIMES = [0.0, 0.001, 0.002, 0.0025, 0.005, 0.01, 0.0105, 0.02, 0.05]
SIZES = [0, 100, 101, 250, 500, 1001]

LINKS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.001, 0.0025, 0.01]),       # latency_s
        st.sampled_from([0.0, 0.0005, 0.001]),              # per_message_s
        st.sampled_from([0.0, 1e-6]),                       # per_byte_s
        st.sampled_from([None, 0, 2]),                      # queue_capacity
    ),
    min_size=1, max_size=3,
)

OPS = st.lists(
    st.tuples(
        st.sampled_from(TIMES),
        st.integers(min_value=0, max_value=2),              # link (mod count)
        st.one_of(
            st.tuples(st.just("timed"), st.sampled_from(SIZES)),
            st.tuples(st.just("chain"),
                      st.lists(st.sampled_from(SIZES), min_size=1,
                               max_size=4)),
            st.tuples(st.just("wire"), st.sampled_from(SIZES)),
            st.tuples(st.just("abort")),
            # (latency factor, extra jitter): mostly jitter-free, so the
            # link stays on its arrival queue after the flush.
            st.tuples(st.just("degrade"),
                      st.sampled_from([0.1, 0.5, 1.0, 3.0]),
                      st.sampled_from([0.0, 0.0, 0.002])),
            st.tuples(st.just("restore")),
            st.tuples(st.just("stats")),
        ),
    ),
    max_size=60,
)


def _snapshot(link):
    stats = link.stats
    return (stats.sent, stats.bytes_sent, stats.delivered,
            stats.dropped_queue, stats.dropped_loss)


def _replay(link_cls, queue, link_specs, ops, lossy):
    sim = Simulator(seed=3, queue=queue)
    log = []
    links = []
    loss_rng = sim.rng("loss")

    def loss_hook(_dst):
        return loss_rng.random() < 0.2

    def make_deliver(index):
        def deliver(src, payload):
            log.append(("deliver", sim.now, src, payload.uid))
            if payload.size_bytes % 2:
                # Forward once, from inside the arrival.
                nxt = links[(index + 1) % len(links)]
                fwd = RawPayload(payload.uid + "'", payload.size_bytes - 1)
                if nxt.transmit_timed(fwd) is None:
                    nxt.transmit(fwd)
        return deliver

    for index, (latency, per_msg, per_byte, capacity) in enumerate(link_specs):
        config = LinkConfig(per_message_s=per_msg, per_byte_s=per_byte,
                            queue_capacity=capacity)
        links.append(link_cls(sim, index, index + 10, latency, config,
                              make_deliver(index),
                              loss_hook if lossy else None))

    counter = [0]

    def payload(size):
        counter[0] += 1
        return RawPayload("m{}".format(counter[0]), size)

    def run_op(index, op):
        link = links[index % len(links)]
        kind = op[0]
        if kind == "timed":
            message = payload(op[1])
            if link.transmit_timed(message) is None:
                link.transmit(message)
        elif kind == "chain":
            for size in op[1]:
                message = payload(size)
                if link.fast_path:
                    link.transmit_chained(message)
                else:
                    link.transmit(message)
        elif kind == "wire":
            message = payload(op[1])
            uid = message.uid
            link.transmit(message, on_wire=lambda: log.append(
                ("wire", sim.now, link.src, uid)))
        elif kind == "abort":
            log.append(("abort", sim.now, link.src,
                        link.abort_pending_chain()))
        elif kind == "degrade":
            link.degrade(op[1], op[2], sim.rng("degrade-jitter"))
        elif kind == "restore":
            link.restore()
        else:
            log.append(("stats", sim.now, link.src, _snapshot(link)))

    for time, index, op in ops:
        sim.schedule_at(time, run_op, index, op)
    sim.run()
    log.append(("final", sim.now, sim.events_executed,
                [_snapshot(link) for link in links]))
    return log


@pytest.mark.parametrize("queue", sorted(QUEUE_BACKENDS))
@given(link_specs=LINKS, ops=OPS, lossy=st.booleans())
@settings(max_examples=150, deadline=None)
def test_arrival_queue_matches_event_per_message_reference(
        queue, link_specs, ops, lossy):
    expected = _replay(ReferenceLink, queue, link_specs, ops, lossy)
    assert _replay(DirectedLink, queue, link_specs, ops, lossy) == expected
