"""Discrete-event simulation kernel.

This package is the substrate on which the whole reproduction runs: a
deterministic, single-threaded discrete-event simulator. Simulated time is a
float number of seconds. Every run is a pure function of the configuration
and the seed; randomness is obtained through named, independently seeded
streams (:mod:`repro.sim.random`) so that, e.g., overlay generation and
message-loss injection never perturb each other.

Public API:

* :class:`Simulator` — the event loop (schedule / cancel / run).
* :class:`Event` — a handle for a scheduled callback.
* :class:`Actor` — base class for reactive simulated components.
* :class:`FifoServer` — a single-server FIFO queue used to model CPUs and
  network links, the mechanism behind saturation behaviour.
* :func:`stream_seed` — derive a child seed for a named RNG stream.
"""

from repro.sim.events import Event, EventQueue
from repro.sim.kernel import Simulator
from repro.sim.actors import Actor
from repro.sim.server import FifoServer, ServerStats, noop
from repro.sim.random import stream_seed

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "Actor",
    "FifoServer",
    "ServerStats",
    "noop",
    "stream_seed",
]
