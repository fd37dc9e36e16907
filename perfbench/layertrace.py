"""Per-layer self time of a simulator run, traced from outside the program.

:func:`instrument` replaces the public entry points of the ``repro``
layers with timing wrappers for the duration of a ``with`` block and
restores the originals on exit, also when the block raises. Nothing under
``src/`` knows about it. Wrappers go on the classes, before
``build_deployment``, because the hot paths bind methods at construction.

Every wrapper opens a span. A span's *self time* is its duration minus the
time covered by the spans it directly encloses. Self times are summed per
*group*, named ``<layer>.<part>`` after the ``repro`` package the code
belongs to (``sim.pop``, ``net.transmit``, ``gossip.dedup``...).

The kernel loop is traced through the queue backend's ``pop``: the time
from one ``pop`` returning an event to the next ``pop`` call is the
dispatched callback, a root span charged to the package of the callback's
owner. Spans are aggregated in memory as they close; the caller reads the
totals (:meth:`Tracer.take`, :meth:`Tracer.dispatch_breakdown`) and
writes them out when the run ends.
"""

import time
from contextlib import contextmanager
from functools import wraps

from repro.core.semantics import PaxosSemantics
from repro.gossip.bloom import InternedSlidingBloomFilter
from repro.gossip.cache import InternedSeenCache
from repro.net.channel import DirectedLink
from repro.net.topology import Topology
from repro.net.transport import Transport
from repro.paxos.process import PaxosProcess
from repro.runtime import deployment as deployment_module
from repro.runtime.metrics import MetricsCollector
from repro.sim.events import resolve_queue_backend
from repro.sim.server import FifoServer

#: The layers, in report order; a group's layer is the part before the dot.
LAYERS = ("sim", "net", "gossip", "core", "paxos", "runtime")

#: (boundary name, owner, attribute, group) of every wrapped entry point.
#: ``owner`` is a class or the deployment module, whose imported set-up
#: functions ``build_deployment`` calls by name.
BOUNDARIES = tuple(
    [("FifoServer." + attr, FifoServer, attr, "sim.server")
     for attr in ("submit", "submit_timed", "submit_fast", "submit_acct",
                  "submit_chain")]
    + [("DirectedLink." + attr, DirectedLink, attr, "net.transmit")
       for attr in ("transmit", "transmit_timed", "transmit_chained")]
    + [("InternedSeenCache.register_payload", InternedSeenCache,
        "register_payload", "gossip.dedup"),
       ("InternedSlidingBloomFilter.register_payload",
        InternedSlidingBloomFilter, "register_payload", "gossip.dedup")]
    + [("PaxosSemantics." + attr, PaxosSemantics, attr, "core.hook")
       for attr in ("validate", "aggregate", "disaggregate")]
    + [("PaxosProcess." + attr, PaxosProcess, attr, "paxos.handle")
       for attr in ("handle", "submit_value")]
    + [("MetricsCollector." + attr, MetricsCollector, attr, "runtime.record")
       for attr in ("record_submit", "record_decided")]
    + [("generate_overlay", deployment_module, "generate_overlay",
        "net.setup"),
       ("synthetic_regions", deployment_module, "synthetic_regions",
        "net.setup"),
       ("Topology.__init__", Topology, "__init__", "net.setup")]
)

#: Group of a dispatched callback (or link receive callback), by the
#: module of its owner; modules not listed fall back to their package.
_MODULE_GROUPS = {
    "repro.sim.server": "sim.server",
    "repro.net.channel": "net.arrive",
    "repro.runtime.direct": "runtime.direct",
}
_PACKAGE_GROUPS = {"gossip": "gossip.dispatch"}


def group_of_module(module):
    """The group charged for a callback owned by code in ``module``."""
    group = _MODULE_GROUPS.get(module)
    if group is not None:
        return group
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2 or parts[1] not in LAYERS:
        return "other.dispatch"
    return _PACKAGE_GROUPS.get(parts[1], parts[1] + ".dispatch")


def _owner_key(fn):
    """The class of a bound method's instance, else the function itself."""
    owner = getattr(fn, "__self__", None)
    return type(owner) if owner is not None else fn


def _key_name(key):
    return "{}.{}".format(key.__module__, key.__qualname__)


class Tracer:
    """Self time per group and call counts per boundary, kept in memory.

    ``clock`` is injectable so tests can drive a synthetic timeline.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: group -> self seconds (reset by :meth:`take`).
        self.self_s = {}
        #: group -> boundary crossings: calls not nested directly inside
        #: a span of the same group (reset by :meth:`take`).
        self.crossings = {}
        #: boundary name -> every call, nested or not (never reset).
        self.calls = {}
        #: dispatch owner (class or function) -> self seconds.
        self.dispatch_s = {}
        #: Most live queued events seen at a ``pop`` call.
        self.pending_peak = 0
        self._stack = []
        self._open = None
        self._groups = {}

    def wrap(self, name, group, fn):
        """``fn`` with a span of ``group`` around every call."""
        clock = self.clock
        stack = self._stack
        self_s = self.self_s
        crossings = self.crossings
        calls = self.calls
        calls.setdefault(name, 0)

        @wraps(fn)
        def traced(*args, **kwargs):
            crossing = not stack or stack[-1][0] != group
            frame = [group, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[group] = self_s.get(group, 0.0) + elapsed - frame[1]
                calls[name] += 1
                if crossing:
                    crossings[group] = crossings.get(group, 0) + 1
                if stack:
                    stack[-1][1] += elapsed

        return traced

    def wrap_pop(self, pop):
        """The queue's ``pop`` with its own span and dispatch spans."""
        clock = self.clock
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        calls.setdefault("queue.pop", 0)
        groups = self._groups

        @wraps(pop)
        def traced_pop(queue, limit=None):
            now = clock()
            frame = self._open
            if frame is not None:
                # The previous callback ran from its pop's return to now.
                stack.pop()
                self._open = None
                spent = now - frame[2] - frame[1]
                self_s[frame[0]] = self_s.get(frame[0], 0.0) + spent
                owner = frame[3]
                self.dispatch_s[owner] = self.dispatch_s.get(owner, 0.0) + spent
            live = len(queue)
            if live > self.pending_peak:
                self.pending_peak = live
            event = pop(queue, limit)
            done = clock()
            self_s["sim.pop"] = self_s.get("sim.pop", 0.0) + done - now
            calls["queue.pop"] += 1
            if event is not None:
                key = _owner_key(event.fn)
                group = groups.get(key)
                if group is None:
                    group = groups[key] = group_of_module(key.__module__)
                frame = [group, 0.0, done, key]
                stack.append(frame)
                self._open = frame
            return event

        return traced_pop

    def wrap_on_receive(self, on_receive):
        """``Transport.on_receive`` that registers a traced callback.

        Links call the receive callback directly (the transport rebinds
        them to it), so the callback itself is what gets wrapped.
        """
        @wraps(on_receive)
        def traced_on_receive(transport, callback):
            group = group_of_module(_owner_key(callback).__module__)
            name = "receive:" + group
            return on_receive(transport, self.wrap(name, group, callback))

        return traced_on_receive

    def take(self):
        """Return and reset the self times and crossings of one phase."""
        phase = (self.self_s.copy(), self.crossings.copy())
        self.self_s.clear()
        self.crossings.clear()
        return phase

    def dispatch_breakdown(self):
        """Self seconds per dispatched callback owner, largest first."""
        rows = [(_key_name(key), spent)
                for key, spent in self.dispatch_s.items()]
        return sorted(rows, key=lambda row: -row[1])


def _replace(owner, attr, value, saved):
    # Remember whether the attribute was the owner's own or inherited, so
    # restoring puts back exactly what was there.
    saved.append((owner, attr, owner.__dict__.get(attr), attr in owner.__dict__))
    setattr(owner, attr, value)


def _restore(saved):
    for owner, attr, original, own in reversed(saved):
        if own:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)
    saved.clear()


@contextmanager
def instrument(tracer):
    """Install ``tracer``'s wrappers; restore the originals on exit."""
    saved = []
    try:
        queue_class = resolve_queue_backend()
        _replace(queue_class, "pop", tracer.wrap_pop(queue_class.pop), saved)
        _replace(Transport, "on_receive",
                 tracer.wrap_on_receive(Transport.on_receive), saved)
        for name, owner, attr, group in BOUNDARIES:
            _replace(owner, attr,
                     tracer.wrap(name, group, getattr(owner, attr)), saved)
        yield tracer
    finally:
        _restore(saved)


def layer_totals(self_s):
    """Self seconds per layer (and ``other``) from per-group self times."""
    totals = dict.fromkeys(LAYERS, 0.0)
    totals["other"] = 0.0
    for group, spent in self_s.items():
        layer = group.split(".", 1)[0]
        totals[layer if layer in totals else "other"] += spent
    return totals
