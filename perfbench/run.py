"""Scenario benchmark of the simulator: host time per run, traced by layer.

Run from the repository root::

    python3 perfbench/run.py --workload gossip_saturated --seed 1 \\
        --seconds 10 --trace 0

With ``--trace 0`` it times what a simulator user waits for, one single-
threaded execution after another (build, run to the horizon, report)
until the next execution would end past ``--seconds``, and at least two.
Times are host-normalised: chunks of a fixed reference computation run
between slices of every execution, and raw seconds are rescaled to the
reference host (see :class:`Calibration`); raw medians are printed too.
With ``--trace 1`` it runs one plain execution and one traced execution
(see ``layertrace.py``) and reports the per-layer metrics.
Every execution is checked against the workload's pinned fingerprint and
event count (``pins.json``) or, for a seed without a pin, against the
run's first execution. The last line of standard output is one JSON
object: ``correct``, ``attempted`` (executions), ``failed`` (executions
that did not match) and ``metrics``.
"""

import argparse
import gc
import heapq
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The program under test is the checkout's source tree; without it the
# imports below fail and the benchmark exits without a result.
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layertrace  # noqa: E402
from repro.analysis.fingerprint import report_fingerprint  # noqa: E402
from repro.gossip.node import GossipNode  # noqa: E402
from repro.runtime.deployment import build_deployment  # noqa: E402
from repro.runtime.metrics import build_report  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: Dedicated set-ups per run: at least this many, then more while the
#: set-up budget lasts, up to the cap.
SETUP_MIN = 5
SETUP_MAX = 100
SETUP_BUDGET_S = 1.0

#: Executed events between two calibration chunks of a timed run.
SLICE_EVENTS = 10_000

#: Seconds one calibration chunk takes on the reference host: a 2-core
#: x86_64 container (Xeon, 2.1 GHz) with Python 3.11. Normalised times
#: read as seconds on that host.
CAL_REF_S = 0.00057

#: Floating-point slack when checking that self times fit in run_s.
_SUM_SLACK_S = 1e-6


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value

    def get(self, extra):
        return self.value + extra


def _reference_work(entries, heap, table):
    """A fixed computation shaped like the simulator's: a heap of tuples,
    dict inserts and deletes, attribute loads and method calls.

    It allocates no container objects, so it never triggers the cyclic
    garbage collector, whose cost would grow with the measured program's
    heap instead of tracking the host.
    """
    for entry in entries:
        heapq.heappush(heap, entry)
        table[entry[1]] = entry[2]
    total = 0
    while heap:
        _key, i, cell = heapq.heappop(heap)
        total += cell.get(i)
        del table[i]
    return total


class Calibration:
    """Times chunks of :func:`_reference_work` between slices of a run.

    On a shared host the speed can drift by a third over minutes, and
    that drift is shared by all Python code running at the same moment.
    Chunks
    taken between the slices of an execution see the same host states
    as the execution, so ``CAL_REF_S / mean(chunk)`` rescales its raw
    seconds to the reference host.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.times = []
        self._entries = [((i * 7919) % 1000, i, _Cell(i, i))
                         for i in range(600)]
        self._heap = []
        self._table = {}

    def chunk(self):
        start = self.clock()
        _reference_work(self._entries, self._heap, self._table)
        self.times.append(self.clock() - start)

    def factor(self, since=0):
        """Reference-over-measured speed for the chunks from ``since``."""
        return CAL_REF_S / statistics.mean(self.times[since:])


def host_record(calibration):
    """Machine context, recorded with every run but never gated."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "calib_s": statistics.mean(calibration.times),
    }


def peak_rss_mib():
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux and bytes on macOS.
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def time_setups(workload, seed, calibration):
    """Normalised median seconds of ``build_deployment`` alone."""
    times = []
    spent = 0.0
    first = len(calibration.times)
    while len(times) < SETUP_MIN or (
            spent < SETUP_BUDGET_S and len(times) < SETUP_MAX):
        config = workload.config(seed)
        gc.collect()
        start = time.perf_counter()
        deployment = build_deployment(config)
        elapsed = time.perf_counter() - start
        del deployment
        calibration.chunk()
        times.append(elapsed)
        spent += elapsed
    gc.collect()
    return (statistics.median(times) * calibration.factor(first),
            len(times))


def execute(workload, seed, calibration):
    """Build, run to the horizon and report one scenario.

    This is ``build_deployment`` → ``start()`` → ``run()`` →
    ``build_report``, except that ``run()``'s single ``sim.run(until=
    end_of_run)`` is issued in slices of :data:`SLICE_EVENTS` events with
    a calibration chunk between slices (outside the timed spans).
    Back-to-back ``sim.run`` calls compose exactly, and the fingerprint
    check on every execution holds the slicing to that.

    Returns raw phase seconds, the execution's calibration factor, and
    what the correctness check compares. The deployment is dropped on
    return, so peak memory is one execution's.
    """
    clock = time.perf_counter
    config = workload.config(seed)
    gc.collect()
    first = len(calibration.times)
    calibration.chunk()
    t0 = clock()
    deployment = build_deployment(config)
    setup_s = clock() - t0
    calibration.chunk()
    sim = deployment.sim
    run_s = 0.0
    t0 = clock()
    deployment.start()
    while True:
        executed = sim.run(until=config.end_of_run, max_events=SLICE_EVENTS)
        run_s += clock() - t0
        calibration.chunk()
        if executed < SLICE_EVENTS:
            break
        t0 = clock()
    t0 = clock()
    report = build_report(deployment)
    report_s = clock() - t0
    calibration.chunk()
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "report_s": report_s,
        "wall_s": setup_s + run_s + report_s,
        "factor": calibration.factor(first),
        "events_executed": sim.events_executed,
        "fingerprint": report_fingerprint(report),
    }


class Checker:
    """Compares executions with the pin, or with the first execution."""

    def __init__(self, pin):
        self.reference = pin
        self.attempted = 0
        self.failed = 0

    def check(self, outcome):
        self.attempted += 1
        observed = {"fingerprint": outcome["fingerprint"],
                    "events_executed": outcome["events_executed"]}
        if self.reference is None:
            self.reference = observed
            return True
        if observed != self.reference:
            self.failed += 1
            print("MISMATCH: expected {} observed {}".format(
                self.reference, observed))
            return False
        return True


def load_pin(workload, seed):
    with open(HERE / "pins.json") as fh:
        pins = json.load(fh)
    pin = pins.get(workload)
    if pin is None or pin["seed"] != seed:
        return None
    return {"fingerprint": pin["fingerprint"],
            "events_executed": pin["events_executed"]}


def measure_end_to_end(workload, seed, seconds, checker, calibration):
    """The untraced run: every end-to-end metric, normalised medians."""
    setup_s, setups = time_setups(workload, seed, calibration)
    outcomes = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        began = time.perf_counter()
        outcome = execute(workload, seed, calibration)
        checker.check(outcome)
        outcomes.append(outcome)
        now = time.perf_counter()
        longest = max(longest, now - began)
        if len(outcomes) >= 2 and now - start + longest > seconds:
            break
    median = statistics.median

    def normalised(key):
        return median(o[key] * o["factor"] for o in outcomes)

    print("executions {} set-ups {}; raw medians wall_s {:.6g} s, "
          "run_s {:.6g} s".format(
              len(outcomes), setups, median(o["wall_s"] for o in outcomes),
              median(o["run_s"] for o in outcomes)))
    return {
        "wall_s": (normalised("wall_s"), "s"),
        "setup_s": (setup_s, "s"),
        "run_s": (normalised("run_s"), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }


def layer_counts(deployment, report):
    """Exact per-layer counts from the program's public stats objects."""
    messages = report.messages
    gossip_nodes = [node for node in deployment.nodes
                    if isinstance(node, GossipNode)]
    filtered = 0
    for node in gossip_nodes:
        hook_filter = getattr(node.hooks, "filter", None)
        if hook_filter is not None:
            filtered += hook_filter.stats.filtered
    return {
        "events": deployment.sim.events_executed,
        "events_scheduled": deployment.sim.events_scheduled,
        "transmits": messages.link_sent,
        "bytes": messages.link_bytes_sent,
        "queue_drops": messages.link_dropped_queue,
        "received": sum(node.stats.received for node in gossip_nodes),
        "duplicates": sum(node.stats.duplicates for node in gossip_nodes),
        "disaggregated": sum(node.stats.disaggregated
                             for node in gossip_nodes),
        "send_drops": sum(node.stats.send_queue_drops
                          for node in gossip_nodes),
        "filtered": filtered,
        "aggregated_saved": messages.aggregated_saved,
        "handles": sum(process.stats.messages_handled
                       for process in deployment.processes),
        "retransmissions": messages.retransmissions,
        "decided": len(report.latencies_s),
    }


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def measure_layers(workload, seed, checker, calibration):
    """One plain execution, then one traced; the per-layer metrics."""
    plain = execute(workload, seed, calibration)
    checker.check(plain)
    host = host_record(calibration)

    tracer = layertrace.Tracer()
    with layertrace.instrument(tracer):
        config = workload.config(seed)
        gc.collect()
        t0 = time.perf_counter()
        deployment = build_deployment(config)
        t1 = time.perf_counter()
        build_self, _ = tracer.take()
        deployment.start()
        deployment.run()
        t2 = time.perf_counter()
        run_self, crossings = tracer.take()
        report = tracer.wrap("build_report", "runtime.report",
                             build_report)(deployment)
        t3 = time.perf_counter()
        report_self, _ = tracer.take()
    traced = {"events_executed": deployment.sim.events_executed,
              "fingerprint": report_fingerprint(report)}
    counts = layer_counts(deployment, report)
    del deployment, report

    # The traced execution must compute exactly what the plain one did
    # (a mismatch is counted by the checker), enter every boundary its
    # workload lists, and fit its self times inside the traced run_s.
    matched = checker.check(traced)
    traced_run_s = t2 - t1
    totals = layertrace.layer_totals(run_self)
    other_s = traced_run_s - sum(totals[layer] for layer in layertrace.LAYERS)
    problems = ["boundary never entered: " + name
                for name in workload.expects if not tracer.calls.get(name)]
    if other_s < -_SUM_SLACK_S:
        problems.append("layer self times exceed the traced run_s")
    for problem in problems:
        print("TRACE: " + problem)
    if problems and matched:
        checker.failed += 1

    def spent(group):
        return run_self.get(group, 0.0)

    validate_calls = tracer.calls.get("PaxosSemantics.validate", 0)
    # Part-level receives: aggregated arrivals count once per carried vote.
    part_receives = (counts["received"]
                     - tracer.calls.get("PaxosSemantics.disaggregate", 0)
                     + counts["disaggregated"])
    decided = max(counts["decided"], 1)
    net_setup_s = build_self.get("net.setup", 0.0)
    metrics = {
        "sim.events": (counts["events"], "count"),
        "sim.events_scheduled": (counts["events_scheduled"], "count"),
        "sim.events_per_s": (
            counts["events"] / (plain["run_s"] * plain["factor"]), "1/s"),
        "sim.pending_peak": (tracer.pending_peak, "count"),
        "sim.pop_s": (spent("sim.pop"), "s"),
        "sim.server_submits": (crossings.get("sim.server", 0), "count"),
        "sim.server_s": (spent("sim.server"), "s"),
        "net.transmits": (counts["transmits"], "count"),
        "net.transmit_s": (spent("net.transmit"), "s"),
        "net.arrive_s": (spent("net.arrive"), "s"),
        "net.msgs_per_decided": (counts["transmits"] / decided, "count"),
        "net.bytes_per_decided": (counts["bytes"] / decided, "B"),
        "net.queue_drops": (counts["queue_drops"], "count"),
        "net.setup_s": (net_setup_s, "s"),
        "gossip.received": (counts["received"], "count"),
        "gossip.useful_ratio": (
            _ratio(part_receives - counts["duplicates"], part_receives),
            "fraction"),
        "gossip.dedup_s": (spent("gossip.dedup"), "s"),
        "gossip.dispatch_s": (spent("gossip.dispatch"), "s"),
        "gossip.send_drops": (counts["send_drops"], "count"),
        "core.validate_calls": (validate_calls, "count"),
        "core.filtered_ratio": (
            _ratio(counts["filtered"], validate_calls), "fraction"),
        "core.aggregated_saved": (counts["aggregated_saved"], "count"),
        "core.hook_s": (spent("core.hook"), "s"),
        "paxos.handles": (counts["handles"], "count"),
        "paxos.handle_s": (spent("paxos.handle"), "s"),
        "paxos.retransmissions": (counts["retransmissions"], "count"),
        "runtime.direct_s": (spent("runtime.direct"), "s"),
        "runtime.record_s": (spent("runtime.record"), "s"),
        "runtime.build_s": (t1 - t0 - net_setup_s, "s"),
        "runtime.report_s": (t3 - t2, "s"),
        "runtime.decided_per_s": (
            counts["decided"] / (plain["wall_s"] * plain["factor"]),
            "values/s"),
        "trace.overhead": (traced_run_s / plain["run_s"], "ratio"),
        "trace.run_s": (traced_run_s, "s"),
        "trace.other_s": (other_s, "s"),
        "host.calib_s": (host["calib_s"], "s"),
        "host.cpu_count": (host["cpu_count"], "count"),
    }
    for layer in layertrace.LAYERS:
        metrics[layer + ".self_s"] = (totals[layer], "s")
    detail = {
        "phases_s": {"build": t1 - t0, "run": traced_run_s,
                     "report": t3 - t2},
        "self_s": {"build": build_self, "run": run_self,
                   "report": report_self},
        "crossings": crossings,
        "calls": tracer.calls,
        "dispatch_s": tracer.dispatch_breakdown(),
        "counts": counts,
        "host": host,
    }
    return metrics, detail


def write_trace(workload, seed, payload):
    """Write the traced run's aggregates under ``.bench_build``."""
    out = ROOT / ".bench_build" / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    path = out / "{}-seed{}-trace.json".format(workload, seed)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print("unknown workload {!r}; expected one of {}".format(
            args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    checker = Checker(load_pin(workload.name, seed))
    print("workload {} seed {} pinned {}".format(
        workload.name, seed, checker.reference is not None))
    calibration = Calibration()
    if args.trace:
        metrics, detail = measure_layers(workload, seed, checker, calibration)
        print("trace written to {}".format(
            write_trace(workload.name, seed, detail)))
    else:
        metrics = measure_end_to_end(
            workload, seed, args.seconds, checker, calibration)
    print("host cpu_count={cpu_count} python={python} machine={machine} "
          "calib_s={calib_s:.6g}".format(**host_record(calibration)))

    for name, (value, unit) in metrics.items():
        print("{:<24} {:>16.6g} {}".format(name, value, unit))
    print("error_rate {:.6g} ({} of {} executions did not match)".format(
        checker.failed / checker.attempted, checker.failed,
        checker.attempted))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
