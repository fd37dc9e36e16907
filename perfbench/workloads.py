"""The benchmark's workloads: one ``ExperimentConfig`` per name.

Every workload is an open loop in simulated time: each client submits
values at a fixed interval whatever the system does, so a saturated
deployment builds a backlog instead of slowing its clients. On the host a
workload is one batch computation on one thread.

The workload seed becomes ``ExperimentConfig.seed``, the root of every
simulator RNG stream. Overlay and region seeds stay pinned, so the seed
never changes the topology. Only ``baseline_direct`` draws from a seeded
stream (link jitter); on the other three the seed changes the report
fingerprint (the config is part of it) but not the executed events.
"""

from dataclasses import dataclass

from repro.net.channel import LinkConfig
from repro.runtime.config import ExperimentConfig

#: The seed whose fingerprint and event count are pinned in ``pins.json``.
DEFAULT_SEED = 1

#: k-out overlay seed shared with the perf scenarios (fig3_n100, fig8).
OVERLAY_SEED = 11


@dataclass(frozen=True)
class Workload:
    """A named config factory (``config(seed)``) and the boundaries it
    must exercise.

    Why each workload exists is recorded next to its name in
    ``BENCHMARK.json``; ``README.md`` maps its layers to end-to-end metrics.

    ``expects`` names the traced boundaries (see
    :data:`layertrace.BOUNDARIES`) that must be entered at least once; a
    zero call count on one of them fails the traced run.
    """

    name: str
    config: object
    expects: tuple


def _gossip_saturated(seed):
    # Fig. 8's shape (classic gossip, 13 clients, 800 values/s, past the
    # knee), with a 0.6 s measured window instead of fig8's 0.4 s.
    return ExperimentConfig(setup="gossip", n=13, rate=800.0, warmup=0.4,
                            duration=0.6, drain=2.0, seed=seed,
                            overlay_seed=OVERLAY_SEED)


def _baseline_direct(seed):
    # The paper's Baseline star; 2 ms uniform jitter sends every hop
    # through DirectedLink.transmit's two-event path.
    return ExperimentConfig(setup="baseline", n=13, rate=2000.0, warmup=0.4,
                            duration=2.0, drain=2.0, seed=seed,
                            overlay_seed=OVERLAY_SEED,
                            link=LinkConfig(jitter_s=0.002))


def _semantic_n100(seed):
    # Exactly repro.perf.scenarios' fig3_n100 at seed 1.
    return ExperimentConfig(setup="semantic", n=100, rate=60.0, warmup=0.3,
                            duration=0.2, drain=1.0, seed=seed,
                            overlay_seed=OVERLAY_SEED)


def _flood_n1000(seed):
    # Horizon 0.2 s: clients start at 0.25 s, so the run is the
    # coordinator's Phase-1 flood over a sparse power-law overlay.
    config = ExperimentConfig(setup="semantic", n=1000, k=2, rate=4.0,
                              warmup=0.1, duration=0.05, drain=0.05,
                              num_clients=1, seed=seed,
                              overlay_seed=OVERLAY_SEED)
    config.num_regions = 30
    config.region_seed = 5
    config.overlay_family = "powerlaw"
    return config


_COMMON = ("queue.pop", "FifoServer.submit_timed", "PaxosProcess.handle")
_CLIENTS = ("PaxosProcess.submit_value", "MetricsCollector.record_submit",
            "MetricsCollector.record_decided")
_GOSSIP = ("DirectedLink.transmit_timed", "InternedSeenCache.register_payload",
           "receive:gossip.dispatch", "FifoServer.submit_acct",
           "FifoServer.submit_fast",
           "generate_overlay", "Topology.__init__")

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "gossip_saturated", _gossip_saturated,
            _COMMON + _CLIENTS + _GOSSIP + ("DirectedLink.transmit_chained",
                                            "FifoServer.submit_chain")),
        Workload(
            "baseline_direct", _baseline_direct,
            _COMMON + _CLIENTS + ("DirectedLink.transmit", "FifoServer.submit",
                                  "receive:runtime.direct",
                                  "Topology.__init__")),
        Workload(
            "semantic_n100", _semantic_n100,
            _COMMON + _CLIENTS + _GOSSIP + ("PaxosSemantics.validate",
                                            "PaxosSemantics.aggregate",
                                            "PaxosSemantics.disaggregate")),
        Workload(
            "flood_n1000", _flood_n1000,
            _COMMON + _GOSSIP + ("PaxosSemantics.validate",
                                 "PaxosSemantics.aggregate",
                                 "synthetic_regions")),
    )
}
