"""Event records and the simulator's pending-event queue.

Events are ordered by ``(time, seq)`` where ``seq`` is a monotonically
increasing sequence number assigned at scheduling time. Two events scheduled
for the same instant therefore fire in scheduling order, which keeps runs
deterministic without relying on heap tie-breaking behaviour.

:class:`EventQueue` is one binary heap. Entries are ``(time, seq, event)``
tuples so the heap sifts compare C-level tuples — ``(time, seq)`` is
unique, so the event object itself is never compared.

Cancellation is lazy: :meth:`Event.cancel` marks the event and the queue
skips cancelled entries when popping. This is O(1) per cancellation and
avoids the cost of re-heapifying. Lazy cancellation alone, however, lets
cancelled shells pile up until their timestamp is reached — a
retransmission timer cancelled on every ack, for instance, keeps one dead
entry per ack queued, inflating every subsequent operation. The queue
therefore *compacts* itself (drops all cancelled shells and re-heapifies)
whenever the shells outnumber the live events and the heap is large
enough for the rebuild to pay for itself; the O(n) rebuild is amortised
O(1) per cancellation.

Allocation churn is bounded by a per-queue freelist: events pushed through
``push_pooled`` are recycled by the kernel after their callback runs and
reused for later pushes. Only the kernel's hot paths — whose event handles
provably never outlive the callback — use the pooled entry point;
``schedule``/``schedule_at`` hand out fresh events whose handles callers
may keep indefinitely. Cancelled shells are never recycled, so a stale
``cancel`` on an old handle remains the documented no-op instead of
killing an unrelated new tenant.
"""

from heapq import heapify, heappop, heappush

#: Sentinel pop() limit meaning "no horizon": any event time compares
#: below +inf, so the hot loop needs no per-pop None check.
_NO_LIMIT = float("inf")


class Event:
    """A scheduled callback; returned by :meth:`Simulator.schedule`."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "pooled")

    def __init__(self, time, seq, fn, args):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.pooled = False

    def cancel(self):
        """Mark the event so it will be skipped when its time comes."""
        self.cancelled = True
        # Drop references early: a cancelled event may sit in the queue for a
        # long time, and its args can pin large message objects in memory.
        self.fn = None
        self.args = ()

    def __lt__(self, other):
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self):
        state = " cancelled" if self.cancelled else ""
        return "Event(t={:.6f}, seq={}{})".format(self.time, self.seq, state)


class EventQueue:
    """Binary heap of events ordered by ``(time, seq)``."""

    __slots__ = ("_seq", "_live", "_pushed", "_pool", "_heap")

    #: Minimum physical size before compaction is considered; below this the
    #: lazy pops clean up cancelled shells cheaply enough on their own.
    COMPACT_MIN_SIZE = 64

    #: Freelist cap — enough to absorb the steady-state in-flight event
    #: population of the committed scenarios without hoarding memory.
    POOL_MAX = 4096

    def __init__(self):
        self._seq = 0
        self._live = 0
        self._pushed = 0
        self._pool = []
        self._heap = []

    def __len__(self):
        return self._live

    @property
    def scheduled_total(self):
        """Events ever pushed — the kernel event volume a run generates.

        Reserved-but-unused sequence numbers (see :meth:`reserve`) are not
        counted: they cost one integer increment, not a queue operation.
        """
        return self._pushed

    def reserve(self):
        """Allocate and return a sequence number without enqueueing.

        Lets a caller that *may* need an event later pin its tie-breaking
        position now: an event pushed afterwards with the reserved ``seq``
        fires exactly where an event scheduled at reservation time would
        have. Unused reservations cost nothing but a gap in the sequence —
        relative order of all other events is unaffected.
        """
        seq = self._seq
        self._seq += 1
        return seq

    def next_seq(self):
        """Allocate a push-order sequence number for a deferred push.

        Same counter step as :meth:`reserve`, but the caller is pushing an
        ordinary event late, not pinning an explicit tie-break slot: a
        link's arrival queue allocates each message's seq at transmit
        time and pushes it only when the message reaches the head. The
        race auditor records :meth:`reserve` calls and deliberately not
        this one, so such events stay push-ordered tie members.
        """
        seq = self._seq
        self._seq += 1
        return seq

    def recycle(self, event):
        """Return an executed pooled event to the freelist.

        Only the kernel loop calls this, after the callback of an event it
        retired itself — the handle cannot be cancelled or re-examined by
        anyone else afterwards. Cancelled-in-queue shells never reach here.
        """
        if len(self._pool) < self.POOL_MAX:
            self._pool.append(event)

    @property
    def heap_size(self):
        """Physical entries, including not-yet-reclaimed shells."""
        return len(self._heap)

    def push(self, time, fn, args, seq=None):
        """Create and enqueue an event; returns its handle.

        ``seq`` (from :meth:`reserve`) overrides the tie-breaking position;
        by default the event is sequenced at push time.
        """
        if seq is None:
            seq = self._seq
            self._seq += 1
        event = Event(time, seq, fn, args)
        self._pushed += 1
        self._live += 1
        heappush(self._heap, (time, seq, event))
        return event

    def push_pooled(self, time, fn, args, seq=None):
        """Like :meth:`push`, but may reuse a recycled event record.

        Only for callers whose handle never escapes structures drained
        before the callback runs — the kernel recycles the record after
        executing it, and a stale handle must not alias the next tenant.
        """
        if seq is None:
            seq = self._seq
            self._seq += 1
        pool = self._pool
        if pool:
            event = pool.pop()
            event.time = time
            event.seq = seq
            event.fn = fn
            event.args = args
            event.cancelled = False
        else:
            event = Event(time, seq, fn, args)
            event.pooled = True
        self._pushed += 1
        self._live += 1
        heappush(self._heap, (time, seq, event))
        return event

    def pop(self, limit=None):
        """Remove and return the earliest non-cancelled event, or None.

        With ``limit``, an event later than ``limit`` is left queued and
        None is returned — cancelled shells ahead of it are still
        discarded. This lets the simulator loop advance with a single
        heap operation per executed event instead of a peek-then-pop pair.
        """
        if limit is None:
            limit = _NO_LIMIT
        heap = self._heap
        while heap:
            time, _seq, event = heap[0]
            if event.cancelled:
                heappop(heap)
                continue
            if time > limit:
                return None
            heappop(heap)
            self._live -= 1
            return event
        return None

    def peek_time(self):
        """Time of the earliest pending event, or None if empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
        return heap[0][0] if heap else None

    def note_cancelled(self):
        """Callers must invoke this once per cancelled live event."""
        self._live -= 1
        heap = self._heap
        shells = len(heap) - self._live
        if shells > self._live and len(heap) >= self.COMPACT_MIN_SIZE:
            self._heap = [entry for entry in heap if not entry[2].cancelled]
            heapify(self._heap)


def resolve_queue_backend():
    """The event-queue class a :class:`Simulator` builds: :class:`EventQueue`.

    Kept for instrumentation that patches the queue's ``pop`` by class
    (the scenario benchmark's layer tracer).
    """
    return EventQueue


__all__ = [
    "Event",
    "EventQueue",
    "resolve_queue_backend",
]
