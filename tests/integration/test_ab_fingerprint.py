"""A/B gate for the virtual-time server rework and the queue backends.

The one real hazard of computing completions at submit time is
same-timestamp tie-breaking: heap sequence numbers are now assigned at
submission rather than at the predecessor's completion, so two events
landing on the same instant could, in principle, swap. This suite proves
they do not where it matters: each committed figure scenario, run on the
virtual-time servers (with the links' arrival queues active) and
on the event-per-job :class:`LegacyFifoServer` reference, must produce a
bitwise-identical experiment report — every raw latency sample, every
counter, hashed exactly (floats via ``float.hex``).

The same gate runs on both event-queue backends: the timing wheel must
reproduce the binary heap's results bit for bit (same ``(time, seq)``
total order, so same execution trace), on the fast servers *and* against
the legacy reference. This is the contract that lets the queue backend be
a pure wall-clock knob, invisible to every committed result.

If a future change makes a scenario diverge, the fallback is to route that
configuration through :func:`repro.sim.server.legacy_servers` rather than
to loosen this gate.
"""

import pytest

from repro.analysis.fingerprint import report_fingerprint
from repro.perf.scenarios import REGRESSION_SCENARIOS, SCENARIOS
from repro.runtime.runner import run_experiment
from repro.sim.events import queue_backend
from repro.sim.server import legacy_servers

#: Queue-backend axis for every A/B test below. Each value is passed to
#: :func:`repro.sim.events.queue_backend`, overriding the auto heuristic
#: (and any ``REPRO_SIM_QUEUE`` setting from the CI matrix) for the run.
QUEUES = ["heap", "wheel"]


def _assert_ab_identical(name, config, queue):
    with queue_backend(queue):
        fast = report_fingerprint(run_experiment(config))
        with legacy_servers():
            reference = report_fingerprint(run_experiment(config))
    assert fast == reference, (
        "scenario {!r} diverges between virtual-time and event-per-job "
        "servers on the {!r} queue; see tests/integration/"
        "test_ab_fingerprint.py docstring for the fallback".format(
            name, queue))


@pytest.mark.parametrize("queue", QUEUES)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_report_identical_to_event_per_job_reference(name, queue):
    _assert_ab_identical(name, SCENARIOS[name](), queue)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_report_identical_across_queue_backends(name):
    """Wheel vs heap, directly: identical report fingerprints.

    Complements the per-backend legacy gate above — a bug that shifted
    both the fast and legacy paths in the same way on one backend would
    pass that gate but fail this direct cross-backend comparison.
    """
    fingerprints = {}
    for queue in QUEUES:
        with queue_backend(queue):
            fingerprints[queue] = report_fingerprint(
                run_experiment(SCENARIOS[name]()))
    assert fingerprints["wheel"] == fingerprints["heap"], (
        "scenario {!r} diverges between queue backends".format(name))


@pytest.mark.parametrize("queue", QUEUES)
@pytest.mark.parametrize("name", ["churn_smoke", "churn_leader"])
def test_churn_report_identical_to_event_per_job_reference(name, queue):
    """Membership churn under the same A/B gate as the figure scenarios.

    Heartbeat fan-out, overlay repair and election scheduling all ride
    the simulator's timer/link machinery, so a tie-break regression in
    either server implementation would surface here as a report
    divergence — exactly like the fixed-membership scenarios. Churn also
    exercises the paths the figure scenarios cannot: crashes mid-round
    abort a sender's batched chain, and recovery re-arms its pacing
    wake-up at the rolled-back reserved slot.
    """
    _assert_ab_identical(name, REGRESSION_SCENARIOS[name](), queue)


def test_membership_field_unconfigured_is_bitwise_inert():
    """The membership *field* existing (as None) must not perturb a fixed
    run: same seed, same report fingerprint, with the membership layer
    compiled in but unconfigured. Guards the inert-when-unconfigured
    contract at the report level (the perf baseline guards event counts).
    """
    config = SCENARIOS["fig7_overlay"]()
    assert config.membership is None
    first = report_fingerprint(run_experiment(config))
    second = report_fingerprint(run_experiment(SCENARIOS["fig7_overlay"]()))
    assert first == second


@pytest.mark.parametrize("queue", QUEUES)
def test_aggregation_heavy_report_identical(queue):
    """Regression: merged vs split send batches under same-instant ties.

    With filtering off and the rate high enough to back up send queues,
    the aggregate hook's ``examined`` count depends on exactly how queued
    messages group into pump batches. A lazily-armed pacing wake-up that
    takes its heap position at *arming* time (instead of the reserved
    per-transmission slot the event-per-job reference uses) lets an event
    landing on the same completion instant slip in front of it, merging
    two batches the reference pumped separately — caught here as a
    busy-time divergence even though message flow is identical. The
    batched round pump reserves exactly those per-message slots at commit
    time, so this scenario also pins its tie-break discipline.
    """
    _assert_ab_identical("agg_heavy", REGRESSION_SCENARIOS["agg_heavy"](),
                         queue)
