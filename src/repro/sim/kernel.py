"""The discrete-event simulator core.

A :class:`Simulator` owns a virtual clock and an event queue. Components
schedule callbacks with :meth:`Simulator.schedule` (relative delay) or
:meth:`Simulator.schedule_at` (absolute time) and the loop executes them in
timestamp order. The simulator is single-threaded and deterministic.

Pending events live in one binary heap (:class:`repro.sim.events.EventQueue`)
ordered by ``(time, seq)``; the race auditor swaps in its recording
subclass of the same heap.
"""

from repro.sim.events import EventQueue
from repro.sim.random import make_stream


class SimulationError(Exception):
    """Raised on invalid use of the simulator (e.g. scheduling in the past)."""


class Simulator:
    """Deterministic discrete-event loop with named RNG streams.

    Parameters
    ----------
    seed:
        Root seed; all named RNG streams (see :meth:`rng`) derive from it.
    auditor:
        Optional :class:`repro.checks.auditor.RaceAuditor` (or anything with
        its ``make_queue``/``make_stream`` interface) that observes every
        scheduled event and RNG draw. Opt-in and zero-cost when ``None``:
        the only difference is which queue class and stream factory the
        constructor binds — no per-event branch exists on the hot path.
    """

    def __init__(self, seed=0, auditor=None):
        self.seed = seed
        if auditor is None:
            self._queue = EventQueue()
            self._stream_factory = make_stream
        else:
            self._queue = auditor.make_queue()
            self._stream_factory = auditor.make_stream
            auditor.bind(self)
        #: Allocate a tie-breaking slot for a possible future event; the
        #: returned sequence number is passed to :meth:`schedule_at_reserved`.
        #: Gossip senders call this once per transmission so a lazily-armed
        #: pacing wake-up fires in exactly the heap position the
        #: event-per-job reference allocated for its completion event.
        #: Bound straight to the queue's counter — it sits on the
        #: per-transmission hot path.
        self.reserve_slot = self._queue.reserve
        #: Allocate the push-order sequence number of an event that will
        #: be pushed later (via :attr:`push_event` with this ``seq``).
        #: Unlike :attr:`reserve_slot` the auditor does not treat it as an
        #: explicit tie-break slot: links use it to queue in-flight
        #: messages and arm only the head's arrival event.
        self.next_seq = self._queue.next_seq
        #: Hot-path scheduling: push an event with pre-packed ``args`` and
        #: an optional reserved ``seq``, skipping :meth:`schedule_at`'s
        #: past-check. Only for callers whose target time is arithmetically
        #: guaranteed not to precede the clock (virtual-time completions)
        #: AND whose handle never outlives structures drained before the
        #: callback runs: the record is recycled through the queue's
        #: freelist after executing, so a kept stale handle would alias
        #: the next tenant. Callers that retain handles (timers, generic
        #: ``schedule``/``schedule_at``) get fresh, never-recycled events.
        self.push_event = self._queue.push_pooled
        #: Current simulated time in seconds. Public but read-only by
        #: convention: only :meth:`run` advances it. A plain attribute
        #: rather than a property — the virtual-time hot paths (sender
        #: pacing, lazy server drains) read the clock on every message.
        self.now = 0.0
        self._rngs = {}
        self._running = False
        self.events_executed = 0

    @property
    def events_scheduled(self):
        """Total events ever scheduled (the kernel event volume).

        Alongside :attr:`events_executed` this is the quantity the perf
        harness tracks: scheduling is where the heap ops, closure tuples
        and callback frames are paid for, so reducing it is how the
        message hot path gets cheaper without changing what the model
        computes (virtual-time servers, per-link arrival queues).

        A jitter-free link pushes a message's arrival only when the
        message reaches the head of its in-flight queue, so arrivals
        still queued behind the head when a run stops at its horizon are
        never counted here.
        """
        return self._queue.scheduled_total

    def rng(self, name):
        """Return the RNG for the named stream, creating it on first use."""
        stream = self._rngs.get(name)
        if stream is None:
            stream = self._stream_factory(self.seed, name)
            self._rngs[name] = stream
        return stream

    def schedule(self, delay, fn, *args):
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError("cannot schedule {}s in the past".format(-delay))
        return self._queue.push(self.now + delay, fn, args)

    def schedule_at(self, time, fn, *args):
        """Run ``fn(*args)`` at absolute simulated time ``time``."""
        if time < self.now:
            raise SimulationError(
                "cannot schedule at t={} (now is t={})".format(time, self.now)
            )
        return self._queue.push(time, fn, args)

    def schedule_at_reserved(self, time, seq, fn, *args):
        """Like :meth:`schedule_at`, tie-broken as if scheduled when
        ``seq`` was reserved."""
        if time < self.now:
            raise SimulationError(
                "cannot schedule at t={} (now is t={})".format(time, self.now)
            )
        return self._queue.push(time, fn, args, seq)

    def cancel(self, event):
        """Cancel a pending event. Cancelling twice is a no-op."""
        if not event.cancelled:
            event.cancel()
            self._queue.note_cancelled()

    def pending(self):
        """Number of live (non-cancelled) scheduled events.

        A jitter-free link with messages in flight counts as **one**
        pending event however many messages it carries: only its head
        arrival is armed in the queue (see :mod:`repro.net.channel`).
        """
        return len(self._queue)

    def run(self, until=None, max_events=None):
        """Execute events in order.

        Stops when the queue drains, when simulated time would pass
        ``until``, or after ``max_events`` callbacks. Returns the number of
        events executed by this call. When stopping at ``until`` the clock is
        advanced exactly to ``until`` so back-to-back ``run`` calls compose;
        an ``until`` the clock has already passed leaves it where it is.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        self._running = True
        executed = 0
        queue = self._queue
        pop = queue.pop
        # The retire-and-recycle bookkeeping is inlined below (attribute
        # stores instead of Event.cancel / queue.recycle calls): two saved
        # call frames per executed event is a measurable share of the
        # kernel loop. Semantics are identical — retire before running the
        # callback (a callback cancelling its own popped event — e.g. a
        # timer stopped from inside its firing — must not decrement the
        # live count a second time), references dropped, and only pooled
        # events popped and retired by this loop enter the freelist.
        pool = queue._pool
        pool_max = queue.POOL_MAX
        try:
            while True:
                if max_events is not None and executed >= max_events:
                    break
                # Single heap operation per executed event: pop(until)
                # discards cancelled shells, leaves an event beyond
                # `until` queued, and returns the next live event.
                event = pop(until)
                if event is None:
                    if until is not None:
                        # The clock never moves back, not even when a
                        # live event lies beyond an `until` in the past.
                        self.now = max(self.now, until)
                    break
                self.now = event.time
                fn = event.fn
                args = event.args
                event.cancelled = True
                event.fn = None
                event.args = ()
                fn(*args)
                if event.pooled and len(pool) < pool_max:
                    pool.append(event)
                executed += 1
        finally:
            self._running = False
        self.events_executed += executed
        return executed

    def step(self):
        """Execute exactly one event; returns True if one was executed."""
        return self.run(max_events=1) == 1
