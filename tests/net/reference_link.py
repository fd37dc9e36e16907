"""One-event-per-message link: the reference for the arrival queue.

:class:`ReferenceLink` is :class:`~repro.net.channel.DirectedLink` with
its jitter-free fast path replaced by the earlier arrangement: every
transmit pushes its own pooled arrival event into the kernel queue, and
``_records`` keeps one ``(completion, size, payload, event)`` record per
message only to drain the sent/bytes counters lazily. The jittered
two-event path, loss injection and the server are inherited unchanged;
the link's own arrival-queue columns are never used.

It exists as a test oracle: ``tests/properties/test_link_props.py`` drives
random traces through both implementations and requires identical
deliveries and counters at every observation.
"""

from collections import deque

from repro.net.channel import DirectedLink, LinkConfig


class ReferenceLink(DirectedLink):
    """A link whose in-flight messages are individual kernel events."""

    __slots__ = ("_records",)

    #: Drain counters once this many transmissions accumulate (reads
    #: through :attr:`stats` always drain; this bound only caps the deque
    #: between reads).
    _DRAIN_BATCH = 256

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: In-flight messages as (completion, size, payload, event).
        self._records = deque()

    def degrade(self, latency_factor=1.0, extra_jitter_s=0.0, jitter_rng=None):
        base = self._base_config
        self.latency_s = self._base_latency_s * latency_factor
        if extra_jitter_s > 0:
            self.config = LinkConfig(base.per_message_s, base.per_byte_s,
                                     base.queue_capacity,
                                     base.jitter_s + extra_jitter_s)
            self._jitter_rng = jitter_rng
        else:
            self.config = base
            self._jitter_rng = self._base_jitter_rng
        self._requeue_in_flight()

    def transmit_timed(self, payload):
        if self._jitter_rng is not None:
            return None
        config = self.config
        service = config.per_message_s + payload.size_bytes * config.per_byte_s
        completion = self._submit_fast(service, payload)
        sim = self.sim
        if completion is None:
            return sim.now
        event = sim.push_event(completion + self.latency_s,
                               self._arrive, (payload,))
        self._records.append((completion, payload.size_bytes,
                              payload, event))
        return completion

    def transmit_chained(self, payload):
        config = self.config
        service = config.per_message_s + payload.size_bytes * config.per_byte_s
        completion = self._submit_chain(service)
        event = self.sim.push_event(completion + self.latency_s,
                                    self._arrive, (payload,))
        self._records.append((completion, payload.size_bytes,
                              payload, event))
        return completion

    def abort_pending_chain(self):
        if not self._records:
            return 0
        removed, busy_until = self._server.abort_queued(self.sim.now)
        if removed:
            records = self._records
            sim = self.sim
            while records and records[-1][0] > busy_until:
                sim.cancel(records.pop()[3])
        return removed

    def transmit(self, payload, on_wire=None):
        config = self.config
        service = config.per_message_s + payload.size_bytes * config.per_byte_s
        if self._jitter_rng is None:
            completion = self._submit_timed(service, None, payload, on_wire)
            if completion is None:
                return False
            sim = self.sim
            event = sim.push_event(completion + self.latency_s,
                                   self._arrive, (payload,))
            self._records.append((completion, payload.size_bytes,
                                  payload, event))
            if on_wire is not None:
                sim.push_event(completion, on_wire, ())
            return True
        return self._server.submit(service, self._on_serialised, payload, on_wire)

    def _arrive(self, payload):
        if len(self._records) >= self._DRAIN_BATCH:
            self._drain_sent(self.sim.now)
        DirectedLink._arrive(self, payload)

    def _drain_sent(self, now):
        records = self._records
        if not records:
            return
        stats = self._stats
        while records and records[0][0] <= now:
            record = records.popleft()
            stats.sent += 1
            stats.bytes_sent += record[1]

    def _requeue_in_flight(self):
        records = self._records
        if not records:
            return
        sim = self.sim
        self._drain_sent(sim.now)
        while records:
            completion, _size, payload, event = records.popleft()
            sim.cancel(event)
            sim.schedule_at(completion, self._on_serialised, payload, None)
