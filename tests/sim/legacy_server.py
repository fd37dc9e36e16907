"""Event-per-job FIFO server: the oracle for the virtual-time server.

:class:`LegacyFifoServer` is the implementation
:class:`~repro.sim.server.FifoServer` replaced: every accepted job starts
with its own kernel event, and each completion event starts the next
queued job. It has only ``submit`` (no ``submit_timed``/``submit_fast``/
``submit_chain``/``submit_acct``/``abort_queued``), so it cannot stand in
a deployment's links or gossip senders.

It exists as a test oracle: ``tests/sim/test_server_equivalence.py``
drives random job traces through both servers and requires identical
callbacks, drops and stats at every observation.
"""

from collections import deque

from repro.sim.server import ServerStats


class LegacyFifoServer:
    """Event-per-job FIFO server: the pre-virtual-time implementation.

    Kept verbatim as the executable reference for
    :class:`FifoServer`'s semantics: the equivalence property tests run
    both implementations against the same traces.
    """

    __slots__ = ("sim", "capacity", "on_drop", "stats", "slowdown",
                 "_queue", "_busy")

    def __init__(self, sim, capacity=None, on_drop=None):
        self.sim = sim
        self.capacity = capacity
        self.on_drop = on_drop
        self.stats = ServerStats()
        self.slowdown = 1.0
        self._queue = deque()
        self._busy = False

    @property
    def queue_length(self):
        """Jobs waiting to start (excludes the in-service job)."""
        return len(self._queue)

    @property
    def busy(self):
        return self._busy

    def submit(self, service_time, fn, *args):
        """Enqueue a job; True if accepted, False if dropped (queue full)."""
        stats = self.stats
        stats.submitted += 1
        if self.slowdown != 1.0:
            service_time *= self.slowdown
        if not self._busy:
            self._start(service_time, fn, args)
            return True
        if self.capacity is not None and len(self._queue) >= self.capacity:
            stats.dropped += 1
            if self.on_drop is not None:
                self.on_drop(fn, args)
            return False
        self._queue.append((service_time, fn, args))
        if len(self._queue) > stats.max_queue:
            stats.max_queue = len(self._queue)
        return True

    def _start(self, service_time, fn, args):
        self._busy = True
        self.stats.busy_time += service_time
        self.sim.schedule(service_time, self._complete, fn, args)

    def _complete(self, fn, args):
        self.stats.completed += 1
        fn(*args)
        if self._queue:
            service_time, next_fn, next_args = self._queue.popleft()
            self._start(service_time, next_fn, next_args)
        else:
            self._busy = False
