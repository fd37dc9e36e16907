"""Point-to-point directed links.

A :class:`DirectedLink` models one direction of a (bi-directional) channel
between two processes: a transmission server that serialises messages onto
the wire one at a time (per-message overhead plus a per-byte cost), followed
by a propagation delay equal to the one-way region-to-region latency plus
optional jitter. Links may bound their transmit queue; when full, messages
are dropped — mirroring the paper's note that its implementation discards
messages when inter-routine queues fill up.

Message loss: a per-link ``loss_hook`` (see :mod:`repro.net.faults`) is
consulted at delivery time; if it returns True the message is silently
discarded, reproducing the paper's receiver-side fault injection (§4.5).

Per-link arrival queues
-----------------------

The transmission server is a virtual-time
:class:`~repro.sim.server.FifoServer`, so the serialisation completion of
an accepted message is known at submit time. On a jitter-free link (the
default configuration) every in-flight message therefore waits in the
link's own FIFO: completions come from the link's FIFO server and never
decrease, the latency is constant, and each ``seq`` is allocated at
transmit time in transmit order, so the queue is already sorted by the
kernel's ``(time, seq)`` arrival order. The link keeps exactly **one**
kernel event armed, for its head entry at ``completion + latency`` with
the head's own ``seq``; when it fires the link pops the head, arms the
next entry and only then delivers, so every arrival runs at the instant
and in the tie-break position a separately pushed event would have had.
A pacing event at ``completion`` is pushed only when the sender asked
for ``on_wire``.

The queue is a structure of arrays: an ``array('d')`` of serialisation
completions, an ``array('q')`` of seqs and a list of payloads, read from
a head index. An in-flight message costs the link ~26 bytes (two raw
8-byte slots plus a list pointer) and no Python object of its own, so the
cyclic garbage collector has nothing per message to walk. An arrival
advances the head and releases its payload; once the dead prefix holds
``_COMPACT_AT`` entries and at least as many as the live part, it is
deleted — amortised O(1) per arrival, and a reset of the columns when
the queue has emptied. The columns are created by the link's first
fast-path transmit, since jittered links never use them.

Jittered links keep the two-event path (serialisation completion, then
arrival) so the ``link-jitter`` RNG is drawn at exactly the same instants
and in the same order. :meth:`DirectedLink.degrade` flushes the queue:
messages already serialised become ordinary arrival events at their
old-latency instant and original ``seq``, and not-yet-serialised ones move
onto the two-event path so they observe the post-degradation
latency/jitter, preserving the documented "only messages serialised after
the call see the new parameters" contract.
"""

from array import array
from bisect import bisect_right
from itertools import islice

from repro.sim.server import FifoServer

#: An arrival queue deletes its dead prefix once that holds this many
#: entries and at least as many as the live part (the second condition
#: keeps compaction amortised O(1) per arrival). Small on purpose: at
#: 1024, idle links kept enough dead slots to raise semantic_n100's peak
#: RSS from ~49 to ~58 MiB.
_COMPACT_AT = 32


class LinkConfig:
    """Transmission cost model and queue bound shared by links.

    Parameters
    ----------
    per_message_s:
        Fixed serialisation overhead per message (seconds).
    per_byte_s:
        Wire time per byte (seconds); 8e-9 corresponds to 1 Gbps.
    queue_capacity:
        Maximum queued messages per link direction; ``None`` = unbounded.
    jitter_s:
        Half-width of uniform propagation jitter (seconds); 0 disables.
    """

    __slots__ = ("per_message_s", "per_byte_s", "queue_capacity", "jitter_s")

    def __init__(self, per_message_s=60e-6, per_byte_s=8e-9,
                 queue_capacity=20_000, jitter_s=0.0):
        self.per_message_s = per_message_s
        self.per_byte_s = per_byte_s
        self.queue_capacity = queue_capacity
        self.jitter_s = jitter_s


class LinkStats:
    """Per-link counters."""

    __slots__ = ("sent", "dropped_queue", "dropped_loss", "delivered", "bytes_sent")

    def __init__(self):
        self.sent = 0
        self.dropped_queue = 0
        self.dropped_loss = 0
        self.delivered = 0
        self.bytes_sent = 0


class DirectedLink:
    """One direction of a channel: src -> dst."""

    __slots__ = (
        "sim", "src", "dst", "latency_s", "config", "_stats",
        "_server", "_submit_timed", "_submit_fast", "_submit_chain",
        "_completions", "_seqs", "_payloads", "_head", "_counted",
        "_armed", "_jitter_rng", "_deliver",
        "_arrive_cb", "_arrive_one_cb", "loss_hook", "_base_latency_s",
        "_base_config", "_base_jitter_rng",
    )

    def __init__(self, sim, src, dst, latency_s, config, deliver, loss_hook=None):
        """
        Parameters
        ----------
        deliver:
            Callback ``deliver(src_id, payload)`` invoked at the receiver
            when the message arrives (after loss injection).
        loss_hook:
            Optional ``loss_hook(dst_id) -> bool``; True drops the message.
        """
        self.sim = sim
        self.src = src
        self.dst = dst
        self.latency_s = latency_s
        self.config = config
        self._stats = LinkStats()
        server = self._server = FifoServer(sim, config.queue_capacity,
                                           self._on_queue_drop)
        # Bound once: each transmit path calls one of these per message.
        self._submit_timed = server.submit_timed
        self._submit_fast = server.submit_fast
        self._submit_chain = server.submit_chain
        # One bound method reused for every arming: creating
        # `self._arrive_head` per arrival is a measurable share of
        # hot-path allocation.
        self._arrive_cb = self._arrive_head
        #: ``_arrive`` bound on first use: only the two-event path needs
        #: it, and binding it for every link is a measurable share of
        #: deployment set-up.
        self._arrive_one_cb = None
        #: Arrival queue columns, created by the first fast-path
        #: transmit: every in-flight message on the jitter-free path, in
        #: ``(time, seq)`` arrival order, at indices ``_head`` onwards.
        #: Entries before ``_head`` have arrived (payload cleared) and
        #: wait for compaction.
        self._completions = None
        self._seqs = None
        self._payloads = None
        self._head = 0
        #: Column index below which entries are already drained into
        #: ``stats.sent`` (their serialisation completed before a read).
        self._counted = 0
        #: The head's arrival event, the only one armed in the kernel;
        #: ``None`` exactly when the queue is empty.
        self._armed = None
        self._jitter_rng = sim.rng("link-jitter") if config.jitter_s > 0 else None
        self._deliver = deliver
        self.loss_hook = loss_hook
        # Pristine parameters, restored when a fault-induced degradation ends.
        self._base_latency_s = latency_s
        self._base_config = config
        self._base_jitter_rng = self._jitter_rng

    @property
    def stats(self):
        """Counters, drained to the current instant before reading.

        Queued messages count as ``sent`` once their serialisation
        completion has passed — the same instant the two-event path's
        completion event increments the counter.
        """
        self._drain_sent(self.sim.now)
        return self._stats

    def degrade(self, latency_factor=1.0, extra_jitter_s=0.0, jitter_rng=None):
        """Degrade propagation relative to the link's pristine parameters.

        Multiplies the one-way latency by ``latency_factor`` and widens the
        uniform jitter by ``extra_jitter_s`` (drawn from ``jitter_rng``).
        Neutral arguments (factor 1, no extra jitter) restore the link.
        Queued and in-flight messages are unaffected; only messages
        serialised after the call see the new parameters.
        """
        # Flush under the old latency: serialised messages keep the
        # arrival instant they were transmitted with.
        self._flush_arrivals()
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

    def restore(self):
        """Undo any degradation (see :meth:`degrade`)."""
        self.degrade()

    @property
    def fast_path(self):
        """Whether :meth:`transmit_timed` will queue the arrival on the link."""
        return self._jitter_rng is None

    @property
    def busy(self):
        return self._server.busy

    @property
    def queue_length(self):
        return self._server.queue_length

    def transmit_timed(self, payload):
        """Fast-path transmit that returns the serialisation completion.

        Senders that pace themselves arithmetically (tracking when the
        link frees instead of asking for an ``on_wire`` event) call this
        first: when the link is jitter-free, the payload is committed to
        the wire, appended to the link's arrival queue (arming a kernel
        event only if it is the head), and the instant the link frees is
        returned. Returns ``None`` on a jittered link, where the fast path
        is unavailable — the caller must then fall back to :meth:`transmit`.

        Callers are expected to transmit only while the link is idle, so a
        queue-full drop cannot normally occur here; if it does, the drop
        is counted and the current time is returned (the link is free).
        """
        if self._jitter_rng is not None:
            return None
        config = self.config
        service = config.per_message_s + payload.size_bytes * config.per_byte_s
        completion = self._submit_fast(service, payload)
        sim = self.sim
        if completion is None:
            return sim.now
        payloads = self._payloads
        seq = sim.next_seq()
        if self._armed is None:
            if payloads is None:
                payloads = self._open_queue()
            # completion >= now by construction, so the arrival can take
            # the kernel's unchecked hot path.
            self._armed = sim.push_event(completion + self.latency_s,
                                         self._arrive_cb, (), seq)
        payloads.append(payload)
        self._completions.append(completion)
        self._seqs.append(seq)
        return completion

    def transmit_chained(self, payload):
        """Chain a payload behind the link's committed work; fast path only.

        The batched gossip pump calls this for every message of a
        validated round in one go: each serialisation is appended to the
        transmission server's busy tail (:meth:`FifoServer.submit_chain`)
        and the message joins the link's arrival queue with a ``seq``
        allocated now — the same ``(time, seq)`` position a per-message
        pump paced by wake-up events would have given its arrival event.
        Callers must check :attr:`fast_path` first; chains never drop (the
        sender paces itself, so chain entries model pacing, not queue
        contention). Returns the serialisation completion.
        """
        config = self.config
        service = config.per_message_s + payload.size_bytes * config.per_byte_s
        completion = self._submit_chain(service)
        sim = self.sim
        payloads = self._payloads
        seq = sim.next_seq()
        if self._armed is None:
            if payloads is None:
                payloads = self._open_queue()
            self._armed = sim.push_event(completion + self.latency_s,
                                         self._arrive_cb, (), seq)
        payloads.append(payload)
        self._completions.append(completion)
        self._seqs.append(seq)
        return completion

    def abort_pending_chain(self):
        """Withdraw chained messages that have not started serialising.

        Called when the sending node crashes mid-round: the reference
        pump would simply never have transmitted the rest of the round.
        The message in service stays — it is on the wire and arrives, as
        it does in the reference — while queued chain entries are removed
        from the transmission server and from the tail of the arrival
        queue. If that empties the queue, its armed head event is
        cancelled. Messages moved onto the two-event path by
        :meth:`degrade` are no longer in the arrival queue and are left
        alone. Returns the number of withdrawn messages.
        """
        if self._armed is None:
            # A mid-round degrade moved the chain onto the two-event
            # serialisation path (emptying the arrival queue): those
            # messages' serialisation events are armed and will fire, so
            # their server jobs must stand.
            return 0
        removed, busy_until = self._server.abort_queued(self.sim.now)
        if removed:
            # Withdrawn jobs had not started, so none was counted as sent;
            # they are the tail whose completion lies past busy_until.
            head = self._head
            keep = bisect_right(self._completions, busy_until, head)
            if keep == head:
                self.sim.cancel(self._armed)
                self._clear_queue()
            else:
                del self._payloads[keep:]
                del self._completions[keep:]
                del self._seqs[keep:]
        return removed

    def transmit(self, payload, on_wire=None):
        """Send a payload towards ``dst``.

        ``on_wire`` (optional, zero-arg) fires when the message finishes
        serialising — i.e. when the link is free for the next message —
        which lets per-peer gossip senders pace themselves.
        Returns False if the transmit queue was full.
        """
        config = self.config
        service = config.per_message_s + payload.size_bytes * config.per_byte_s
        if self._jitter_rng is None:
            # Fast path: the serialisation completion is arithmetic, so the
            # message joins the arrival queue (plus a pacing wake-up when
            # the sender asked for one). ``args`` carry the payload and
            # on_wire to _on_queue_drop.
            completion = self._submit_timed(service, None, payload, on_wire)
            if completion is None:
                return False
            sim = self.sim
            payloads = self._payloads
            seq = sim.next_seq()
            if self._armed is None:
                if payloads is None:
                    payloads = self._open_queue()
                self._armed = sim.push_event(completion + self.latency_s,
                                             self._arrive_cb, (), seq)
            payloads.append(payload)
            self._completions.append(completion)
            self._seqs.append(seq)
            if on_wire is not None:
                sim.push_event(completion, on_wire, ())
            return True
        return self._server.submit(service, self._on_serialised, payload, on_wire)

    def _on_queue_drop(self, fn, args):
        self._stats.dropped_queue += 1
        # Still notify the sender that the link "consumed" the message so
        # pacing callbacks do not stall.
        on_wire = args[1]
        if on_wire is not None:
            on_wire()

    def _on_serialised(self, payload, on_wire):
        stats = self._stats
        stats.sent += 1
        stats.bytes_sent += payload.size_bytes
        delay = self.latency_s
        if self._jitter_rng is not None:
            delay += self._jitter_rng.uniform(0.0, self.config.jitter_s)
        arrive = self._arrive_one_cb
        if arrive is None:
            arrive = self._arrive_one_cb = self._arrive
        self.sim.schedule(delay, arrive, payload)
        if on_wire is not None:
            on_wire()

    def _arrive_head(self):
        """The armed head of the arrival queue arrives."""
        payloads = self._payloads
        head = self._head
        payload = payloads[head]
        payloads[head] = None
        if head >= self._counted:
            stats = self._stats
            stats.sent += 1
            stats.bytes_sent += payload.size_bytes
        head += 1
        live = len(payloads) - head
        if head >= _COMPACT_AT and head >= live:
            # Drop the dead prefix: the whole columns once the queue has
            # emptied, so a link carrying one message at a time resets
            # every _COMPACT_AT messages rather than on each arrival.
            del payloads[:head]
            del self._completions[:head]
            del self._seqs[:head]
            counted = self._counted - head
            self._counted = counted if counted > 0 else 0
            head = 0
        self._head = head
        if live:
            # Re-arm before delivering, in the slot the next message was
            # given at transmit time: whatever the delivery schedules
            # sequences after it, exactly as if it had been pushed then.
            self._armed = self.sim.push_event(
                self._completions[head] + self.latency_s, self._arrive_cb,
                (), self._seqs[head])
        else:
            self._armed = None
        # _arrive, inlined: one call frame per hop on the hottest path.
        if self.loss_hook is not None and self.loss_hook(self.dst):
            self._stats.dropped_loss += 1
            return
        self._stats.delivered += 1
        self._deliver(self.src, payload)

    def _arrive(self, payload):
        """A two-event-path (or flushed) message arrives."""
        if self.loss_hook is not None and self.loss_hook(self.dst):
            self._stats.dropped_loss += 1
            return
        self._stats.delivered += 1
        self._deliver(self.src, payload)

    def rebind_deliver(self, deliver):
        """Point arrivals directly at the receiver's resolved callback.

        The destination transport calls this once its receive callback is
        claimed, cutting its dispatch frame out of every arrival. Purely
        a call-graph flattening: the same callback runs with the same
        arguments at the same instants.
        """
        self._deliver = deliver

    def _drain_sent(self, now):
        """Count queued messages whose serialisation has completed."""
        if self._armed is None:
            return
        start = self._counted
        if start < self._head:
            start = self._head
        # Completions never decrease, so the newly serialised entries are
        # the run from the counted index up to the first one past now.
        stop = bisect_right(self._completions, now, start)
        if stop == start:
            return
        stats = self._stats
        stats.sent += stop - start
        stats.bytes_sent += sum(payload.size_bytes for payload
                                in islice(self._payloads, start, stop))
        self._counted = stop

    def _open_queue(self):
        """Create the arrival columns on the first fast-path transmit."""
        self._completions = array("d")
        self._seqs = array("q")
        payloads = self._payloads = []
        return payloads

    def _clear_queue(self):
        """Empty the queue and its columns; the armed event is gone."""
        del self._payloads[:]
        del self._completions[:]
        del self._seqs[:]
        self._head = 0
        self._counted = 0
        self._armed = None

    def _flush_arrivals(self):
        """Flush the arrival queue into ordinary kernel events.

        Called by :meth:`degrade` before the parameters change. Messages
        already serialised keep the arrival they were transmitted with:
        each becomes its own event at ``completion + latency`` (the old
        latency) in its original ``seq``, so later transmits under a
        lower latency overtake them exactly where separately pushed
        arrivals would be overtaken. Not-yet-serialised messages must observe the new
        parameters: each gets a serialisation-completion event instead,
        which re-reads latency (and draws jitter) at exactly the instant
        the two-event path would have.
        """
        if self._armed is None:
            return
        sim = self.sim
        now = sim.now
        self._drain_sent(now)
        sim.cancel(self._armed)
        latency = self.latency_s
        arrive = self._arrive
        head = self._head
        for completion, seq, payload in zip(self._completions[head:],
                                            self._seqs[head:],
                                            self._payloads[head:]):
            if completion <= now:
                sim.push_event(completion + latency, arrive, (payload,), seq)
            else:
                # on_wire=None: the pacing event (if any) was scheduled
                # separately at transmit time and still fires at
                # ``completion``.
                sim.schedule_at(completion, self._on_serialised, payload, None)
        self._clear_queue()
