"""Single-server FIFO queue — the saturation mechanism.

Every simulated process owns a CPU modelled as a :class:`FifoServer`;
every link owns a transmission server. Work items (handling a received
message, serialising a message onto the wire) are submitted with a service
time; the server executes them one at a time in FIFO order. When offered
load exceeds service capacity the queue grows without bound and sojourn
times blow up — which is precisely the latency knee the paper circles in
its Figure 3.

Servers optionally bound their queue. The paper notes that its Go
implementation "may discard messages when queues connecting different
routines are full, as a way to prevent slow processes from blocking the main
transport routine"; a bounded server reproduces that by invoking a drop
callback instead of enqueueing.

Virtual time
------------

Because a FIFO single-server queue is work-conserving and its service
times are fixed at submission, every job's completion instant is known
the moment it is accepted::

    completion = max(now, busy_until) + service

:class:`FifoServer` exploits that: it tracks ``busy_until`` arithmetically
and schedules **zero** kernel events for accounting-only jobs (callback
``None`` or :func:`noop`) and exactly one event — at the precomputed
completion — for jobs with real callbacks. Stats (``completed``,
``busy_time``) are maintained by lazily draining a deque of completion
timestamps whenever the server is observed — reads through
:attr:`FifoServer.stats` always see the state a per-job event loop would
have produced at the same instant.

The per-job event loop it replaced (one kernel event per job, chained
start-to-completion) is kept as a test oracle in
``tests/sim/legacy_server.py``: ``tests/sim/test_server_equivalence.py``
drives random traces through both and requires every observable to
coincide. Whole deployments are pinned by report fingerprints
(``tests/integration/test_ab_fingerprint.py`` and
``benchmarks/perf/BENCH_perf.json``).
"""

from collections import deque


def noop():
    """Canonical accounting-only callback: charges service time, no effect.

    The virtual-time server schedules no kernel event for jobs submitted
    with this callback (or ``None``); their completion is pure arithmetic.
    """


class ServerStats:
    """Counters exposed by :class:`FifoServer` for metrics collection."""

    __slots__ = ("submitted", "completed", "dropped", "busy_time", "max_queue")

    def __init__(self):
        self.submitted = 0
        self.completed = 0
        self.dropped = 0
        self.busy_time = 0.0
        self.max_queue = 0

    def utilization(self, elapsed):
        """Fraction of ``elapsed`` the server spent busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)


class FifoServer:
    """Single-server FIFO queue over the simulator, in virtual time.

    Parameters
    ----------
    sim:
        The simulator.
    capacity:
        Maximum number of queued (not yet started) jobs; ``None`` means
        unbounded. Jobs submitted to a full queue are dropped and the
        ``on_drop`` callback (if any) is invoked with the job's callback.
    """

    __slots__ = ("sim", "capacity", "on_drop", "slowdown",
                 "_stats", "_pending", "_busy_until", "_head_charged")

    def __init__(self, sim, capacity=None, on_drop=None):
        self.sim = sim
        self.capacity = capacity
        self.on_drop = on_drop
        #: Service-time multiplier (gray-failure injection): jobs submitted
        #: while > 1 run that much slower. Queued jobs keep the factor in
        #: force when they were submitted.
        self.slowdown = 1.0
        self._stats = ServerStats()
        #: Accepted jobs not yet drained, as (completion_time, service)
        #: in FIFO order; the head is the job in service.
        self._pending = deque()
        self._busy_until = 0.0
        #: Whether the head job's service is already in ``busy_time``
        #: (legacy charged at service *start*, so an in-service job is
        #: charged before it completes).
        self._head_charged = False

    @property
    def stats(self):
        """Counters, drained to the current instant before reading."""
        self._drain(self.sim.now)
        return self._stats

    @property
    def queue_length(self):
        """Jobs waiting to start (excludes the in-service job)."""
        self._drain(self.sim.now)
        pending = self._pending
        return len(pending) - 1 if pending else 0

    @property
    def busy(self):
        self._drain(self.sim.now)
        return bool(self._pending)

    def submit(self, service_time, fn, *args):
        """Enqueue a job taking ``service_time`` whose effect is ``fn(*args)``.

        The callback runs when the job *completes*. Returns True if the job
        was accepted, False if it was dropped because the queue was full.
        """
        return self.submit_timed(service_time, fn, *args) is not None

    def submit_timed(self, service_time, fn, *args):
        """Like :meth:`submit`, but returns the job's completion time.

        Returns ``None`` if the job was dropped (queue full). A caller that
        needs to act at the completion instant (e.g. a link scheduling the
        propagation arrival directly) can pass ``fn=None`` and schedule its
        own single event at the returned time — ``args`` are then only used
        to describe the job to ``on_drop``.
        """
        stats = self._stats
        stats.submitted += 1
        if self.slowdown != 1.0:
            service_time = service_time * self.slowdown
        now = self.sim.now
        pending = self._pending
        # Draining is only needed once the head job has completed; while
        # the head is still in service (the common case on a busy server)
        # the deque already reflects the observable state.
        if pending and pending[0][0] <= now:
            self._drain(now)
        if pending:
            queued = len(pending) - 1   # head is in service
            if self.capacity is not None and queued >= self.capacity:
                stats.dropped += 1
                if self.on_drop is not None:
                    self.on_drop(fn, args)
                return None
            completion = self._busy_until + service_time
            queued += 1
            if queued > stats.max_queue:
                stats.max_queue = queued
        else:
            completion = now + service_time
            # The job starts immediately; busy_time is charged at start.
            stats.busy_time += service_time
            self._head_charged = True
        self._busy_until = completion
        pending.append((completion, service_time))
        if fn is not None and fn is not noop:
            # The callback is scheduled directly: every observable read
            # (stats, busy, queue_length) drains lazily on access, so no
            # pre-drain wrapper is needed at the completion instant.
            # completion >= now by construction and the handle never
            # escapes this frame, so the pooled unchecked push applies.
            self.sim.push_event(completion, fn, args)
        return completion

    def submit_fast(self, service_time, payload=None):
        """Accounting-only submission tuned for an expected-idle server.

        The per-transmission hot path (a gossip sender pacing itself never
        hands the link a message while it is busy) reduces to: drain the
        previous job, charge this one, return its completion. Anything off
        that path — server still busy after draining, a slowdown in force —
        falls back to :meth:`submit_timed` (with ``payload`` describing the
        job to ``on_drop``), so the semantics are identical; this method
        only flattens the common case.
        """
        pending = self._pending
        now = self.sim.now
        if pending:
            if pending[0][0] > now:
                return self.submit_timed(service_time, None, payload, None)
            if len(pending) == 1 and self._head_charged:
                # Sole predecessor, already charged at its service start:
                # retiring it is one pop and one counter.
                pending.popleft()
                self._stats.completed += 1
            else:
                self._drain(now)
                if pending:
                    return self.submit_timed(service_time, None, payload, None)
        if self.slowdown != 1.0:
            return self.submit_timed(service_time, None, payload, None)
        stats = self._stats
        stats.submitted += 1
        stats.busy_time += service_time
        self._head_charged = True
        completion = now + service_time
        self._busy_until = completion
        pending.append((completion, service_time))
        return completion

    def submit_acct(self, service_time):
        """Accounting-only submission: charge service time, no callback.

        Semantically ``submit_timed(service, noop)`` without the varargs
        packing and callback checks — the receive path charges the CPU
        for every message, so that packing is measurable. Returns the
        completion time, or ``None`` on a queue-full drop.
        """
        stats = self._stats
        stats.submitted += 1
        if self.slowdown != 1.0:
            service_time = service_time * self.slowdown
        now = self.sim.now
        pending = self._pending
        if pending and pending[0][0] <= now:
            self._drain(now)
        if pending:
            queued = len(pending) - 1
            if self.capacity is not None and queued >= self.capacity:
                stats.dropped += 1
                if self.on_drop is not None:
                    self.on_drop(noop, ())
                return None
            completion = self._busy_until + service_time
            queued += 1
            if queued > stats.max_queue:
                stats.max_queue = queued
        else:
            completion = now + service_time
            stats.busy_time += service_time
            self._head_charged = True
        self._busy_until = completion
        pending.append((completion, service_time))
        return completion

    def submit_chain(self, service_time):
        """Append a job to the busy tail unconditionally; returns completion.

        The batched gossip pump commits a whole validated round at once:
        the sender paces itself, so the capacity bound and the
        ``max_queue`` watermark — both of which model *contention* — do
        not apply to chain entries, whose queueing is an accounting
        artefact of committing future sends early. Completion instants
        are identical to submitting each job the moment its predecessor
        finishes (``busy_until + service``), and ``busy_time`` is charged
        at each job's service *start* by the lazy drain, exactly as the
        event-per-job reference charged it.
        """
        if self.slowdown != 1.0:
            service_time = service_time * self.slowdown
        stats = self._stats
        stats.submitted += 1
        now = self.sim.now
        pending = self._pending
        if pending and pending[0][0] <= now:
            self._drain(now)
        if pending:
            completion = self._busy_until + service_time
        else:
            completion = now + service_time
            stats.busy_time += service_time
            self._head_charged = True
        self._busy_until = completion
        pending.append((completion, service_time))
        return completion

    def abort_queued(self, now):
        """Remove jobs that have not started service; un-commit a chain.

        Returns ``(removed, busy_until)``. Used when a gossip sender
        crashes mid-round: the reference implementation simply never
        submitted the rest of the round, so the queued (not-yet-started)
        chain entries are withdrawn — completed jobs and the job in
        service (already "on the wire") are untouched, leaving the server
        exactly as a per-message pump would have left it.
        """
        self._drain(now)
        pending = self._pending
        removed = 0
        stats = self._stats
        while len(pending) > 1:
            pending.pop()
            removed += 1
        if removed:
            stats.submitted -= removed
            self._busy_until = pending[0][0]
        return removed, self._busy_until

    def _drain(self, now):
        """Retire completed jobs and charge the in-service job's time."""
        pending = self._pending
        if not pending:
            return
        stats = self._stats
        charged = self._head_charged
        while pending and pending[0][0] <= now:
            service = pending.popleft()[1]
            if charged:
                charged = False
            else:
                stats.busy_time += service
            stats.completed += 1
        if pending and not charged:
            # The new head entered service at its predecessor's completion
            # (<= now): charge its full service, as the legacy server did
            # at service start.
            stats.busy_time += pending[0][1]
            charged = True
        self._head_charged = charged
