"""CI smoke gate for the simulator hot path.

Four checks per run:

* **Exactness** — every scenario's report fingerprint must match the
  committed baseline bit for bit. The fingerprint hashes the full
  experiment report (config, raw latency samples, every counter) with
  floats rendered exactly, so any behavioural drift fails here no matter
  how fast the simulator got. Event counts are *not* pinned: they are an
  implementation property, precisely what hot-path optimisation changes.
* **Throughput** — events/sec must stay within ``TOLERANCE`` of baseline.
  The scenario set includes the large-N smokes (``fig3_n100`` and the
  reduced-duration ``gossip_n1000`` dissemination run), so the N=1000
  hot path is gated on throughput like the committed figure scenarios.
* **Memory** — tracemalloc peak must stay within ``MEM_TOLERANCE`` of
  baseline. The flat-state work (interned ids, array-backed dedup,
  streaming-capable metrics) is what makes N=1000 overlays fit; this
  gate keeps a regression from quietly re-inflating the per-node state.
  Peaks are allocation high-water marks, machine-independent up to
  allocator details, so the tolerance is tighter than wall-clock's.
* **Scheduled-event reduction** — the virtual-time servers, batched
  gossip rounds and per-link arrival queues must keep scheduling far
  fewer kernel events than the event-per-job servers they replaced. That
  design's counts are machine-independent, so they are stored here as
  constants (``EVENT_PER_JOB_SCHEDULED``), and each scenario's freshly
  measured ``events_scheduled`` must stay at least its floor below them:
  fig3_workload ≥ 55% (measured 61.2%), fig8_saturation ≥ 40% (measured
  43.9%).

Regenerate the baseline deliberately with ``REPRO_PERF_UPDATE=1`` or
``python -m benchmarks.perf --update``.
"""

import os

from benchmarks.perf import harness

#: Fraction of baseline events/sec the smoke run must reach.
TOLERANCE = float(os.environ.get("REPRO_PERF_TOLERANCE", "0.8"))
#: Multiple of the baseline tracemalloc peak a scenario may reach.
MEM_TOLERANCE = float(os.environ.get("REPRO_PERF_MEM_TOLERANCE", "1.3"))
REPEATS = int(os.environ.get("REPRO_PERF_REPEATS", "3"))
#: Kernel events scheduled by the event-per-job servers (one event per
#: job, one arrival event per message) on the same scenarios.
EVENT_PER_JOB_SCHEDULED = {
    "fig3_workload": 282_561,
    "fig8_saturation": 857_984,
}
#: Minimum fraction of those events the current simulator must save.
EVENT_REDUCTION_FLOOR = {
    "fig3_workload": float(
        os.environ.get("REPRO_PERF_EVENT_REDUCTION_FLOOR", "0.55")),
    "fig8_saturation": 0.40,
}


def test_perf_smoke():
    payload = harness.measure_all(repeats=REPEATS)
    harness.write_latest(payload)

    if os.environ.get("REPRO_PERF_UPDATE"):
        path = harness.save_baseline(payload)
        print("baseline regenerated at {}".format(path))
        return

    baseline = harness.load_baseline()
    assert baseline is not None, (
        "no committed baseline; generate one with REPRO_PERF_UPDATE=1")

    for name, measured in payload["scenarios"].items():
        expected = baseline["scenarios"].get(name)
        assert expected is not None, (
            "scenario {!r} missing from baseline — regenerate it".format(name))
        assert measured["fingerprint"] == expected["fingerprint"], (
            "scenario {!r} produced report fingerprint {} but the baseline "
            "pins {}: the simulation's results changed; regenerate the "
            "baseline if intentional".format(
                name, measured["fingerprint"], expected["fingerprint"]))
        floor = TOLERANCE * expected["events_per_sec"]
        assert measured["events_per_sec"] >= floor, (
            "scenario {!r} ran at {} events/s, below {:.0f} "
            "({}x baseline {})".format(
                name, measured["events_per_sec"], floor,
                TOLERANCE, expected["events_per_sec"]))
        ceiling = MEM_TOLERANCE * expected["peak_mem_kb"]
        assert measured["peak_mem_kb"] <= ceiling, (
            "scenario {!r} peaked at {} KiB, above {:.0f} "
            "({}x baseline {}): the flat-state memory budget regressed".format(
                name, measured["peak_mem_kb"], ceiling,
                MEM_TOLERANCE, expected["peak_mem_kb"]))

    for name, reference in sorted(EVENT_PER_JOB_SCHEDULED.items()):
        scheduled = payload["scenarios"][name]["events_scheduled"]
        reduction = 1.0 - scheduled / reference
        floor = EVENT_REDUCTION_FLOOR[name]
        assert reduction >= floor, (
            "scenario {!r} scheduled {} kernel events, only {:.1%} fewer "
            "than the event-per-job servers' {} (floor {:.0%})".format(
                name, scheduled, reduction, reference, floor))
