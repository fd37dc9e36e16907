"""Report-fingerprint pins for the committed scenarios.

Each scenario below must reproduce a fixed report fingerprint — every raw
latency sample, every counter, hashed exactly (floats via ``float.hex``).
A refactor of the kernel queue, the FIFO servers, the links or the gossip
senders that shifts a single same-instant tie-break changes some report
field and fails here.

The five figure scenarios are pinned to the fingerprints committed in
``benchmarks/perf/BENCH_perf.json`` (the perf-smoke gate pins the same
values). The regression scenarios are pinned to constants below. Every
pinned value was produced identically by the virtual-time servers and by
the event-per-job reference server (``tests/sim/legacy_server.py``), on
both the binary heap and the timing-wheel event queue, before the
reference and the wheel were retired from the simulator.

A deliberate behaviour change updates the pins in its own change, with
the paper-figure assertions still passing; a pin is never loosened to
let a refactor through.
"""

import json
import pathlib

import pytest

from repro.analysis.fingerprint import report_fingerprint
from repro.perf.scenarios import REGRESSION_SCENARIOS, SCENARIOS
from repro.runtime.runner import run_experiment

BASELINE_PATH = (pathlib.Path(__file__).resolve().parents[2]
                 / "benchmarks" / "perf" / "BENCH_perf.json")

#: Report fingerprints of the regression scenarios.
REGRESSION_PINS = {
    # Merged vs split send batches under same-instant ties: with filtering
    # off and the rate high enough to back up send queues, the aggregate
    # hook's ``examined`` count depends on exactly how queued messages
    # group into pump batches, so a pacing wake-up that takes its heap
    # position at arming time instead of its reserved per-transmission
    # slot shows up as a busy-time divergence.
    "agg_heavy":
        "a277d5640d83672c8aec13ce1ce16b15d5ad4e45fa9b8bc959211faa202c9f64",
    # Membership churn: heartbeat fan-out, overlay repair and election
    # scheduling ride the timer/link machinery; crashes mid-round abort a
    # sender's batched chain, and recovery re-arms its pacing wake-up at
    # the rolled-back reserved slot.
    "churn_smoke":
        "0812e07183daf648601c9bcd83b306b7ee2187de06514f67a35d0f9c600c3147",
    "churn_leader":
        "04de14c8dec015cf96bbb539057c06bf309001600b56d6b0b106291f297690f3",
}


def _committed_fingerprints():
    with open(BASELINE_PATH) as fh:
        scenarios = json.load(fh)["scenarios"]
    return {name: scenarios[name]["fingerprint"] for name in SCENARIOS}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_fingerprint_pinned(name):
    expected = _committed_fingerprints()[name]
    assert report_fingerprint(run_experiment(SCENARIOS[name]())) == expected, (
        "scenario {!r} no longer reproduces its committed report "
        "fingerprint".format(name))


@pytest.mark.parametrize("name", sorted(REGRESSION_PINS))
def test_regression_fingerprint_pinned(name):
    report = run_experiment(REGRESSION_SCENARIOS[name]())
    assert report_fingerprint(report) == REGRESSION_PINS[name], (
        "regression scenario {!r} no longer reproduces its pinned report "
        "fingerprint".format(name))


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
