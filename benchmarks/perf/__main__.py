"""Run the simulator microbenchmarks from the command line.

Usage (from the repo root, with ``PYTHONPATH=src``)::

    python -m benchmarks.perf                 # measure, compare to baseline
    python -m benchmarks.perf --update        # regenerate BENCH_perf.json
    python -m benchmarks.perf --speedup       # Fig. 6 grid, serial vs pool

``--speedup`` exits non-zero if the parallel grid is not bitwise-identical
to the serial one; with ``--update`` its result is stored in the
baseline's ``parallel`` section.
"""

import argparse
import json
import sys

from benchmarks.perf import harness


def main(argv=None):
    parser = argparse.ArgumentParser(prog="benchmarks.perf")
    parser.add_argument("--update", action="store_true",
                        help="write results into BENCH_perf.json")
    parser.add_argument("--speedup", action="store_true",
                        help="measure the parallel loss_grid speedup "
                             "instead of the events/sec scenarios")
    parser.add_argument("--workers", type=int, default=4,
                        help="pool size for --speedup (default 4)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="repeats per scenario; best wall-clock wins")
    args = parser.parse_args(argv)

    if args.speedup:
        result = harness.measure_speedup(workers=args.workers)
        print(json.dumps(result, indent=2, sort_keys=True))
        if args.update:
            baseline = harness.load_baseline() or {}
            baseline["parallel"] = result
            print("updated {}".format(harness.save_baseline(baseline)))
        return 0 if result["identical"] else 1

    payload = harness.measure_all(repeats=args.repeats)
    harness.write_latest(payload)
    if args.update:
        baseline = harness.load_baseline()
        if baseline and "parallel" in baseline:
            payload["parallel"] = baseline["parallel"]
        print("updated {}".format(harness.save_baseline(payload)))
        return 0

    baseline = harness.load_baseline()
    for name, measured in sorted(payload["scenarios"].items()):
        line = ("{:<18} {:>9} events  {:>9} scheduled  {:>8.3f}s  "
                "{:>12,.0f} events/s  {:>9.0f} KiB".format(
                    name, measured["events"], measured["events_scheduled"],
                    measured["wall_s"], measured["events_per_sec"],
                    measured["peak_mem_kb"]))
        if baseline and name in baseline.get("scenarios", {}):
            ratio = (measured["events_per_sec"]
                     / baseline["scenarios"][name]["events_per_sec"])
            line += "  ({:+.0%} vs baseline)".format(ratio - 1.0)
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
