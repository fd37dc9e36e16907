"""Measurement core for the simulator microbenchmarks.

For every scenario we record

* ``events``            — executed simulator events (machine-independent);
* ``events_scheduled``  — kernel events ever pushed onto the heap; the
  quantity the virtual-time server work drives down (machine-independent);
* ``wall_s``            — best-of-N wall-clock for the run;
* ``events_per_sec``    — executed events over best wall-clock, the
  throughput figure the CI smoke gate tracks;
* ``peak_mem_kb``       — tracemalloc peak of one untimed extra run (the
  tracer slows execution ~3x, so it never shares a run with the timer);
* ``fingerprint``       — exact report fingerprint
  (:func:`repro.analysis.fingerprint.report_fingerprint`); the CI gate
  pins it so a perf change that silently alters results fails even when
  it is fast.
"""

import gc
import os
import platform
import time
import tracemalloc

from repro.analysis.fingerprint import report_fingerprint
from repro.perf.scenarios import PERF_SCENARIOS, SCENARIOS, _config
from repro.runtime.runner import run_deployment


def host_info():
    """Machine context recorded alongside every measurement."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def _timed_run(config):
    # Collect before the clock starts: GC pauses triggered by a previous
    # run's garbage are a dominant source of wall-clock noise.
    gc.collect()
    start = time.perf_counter()
    deployment, report = run_deployment(config)
    wall = time.perf_counter() - start
    return deployment, report, wall


def measure_scenario(name, repeats=3):
    """Run one scenario ``repeats`` times; best wall-clock wins.

    Event counts and the report fingerprint must be identical across
    repeats — a mismatch means the simulator lost determinism, which this
    harness treats as fatal.
    """
    factory = SCENARIOS.get(name) or PERF_SCENARIOS[name]
    signature = None
    best = None
    for _ in range(repeats):
        deployment, report, wall = _timed_run(factory())
        sim = deployment.sim
        observed = (sim.events_executed, sim.events_scheduled,
                    report_fingerprint(report))
        if signature is None:
            signature = observed
        elif signature != observed:
            raise RuntimeError(
                "scenario {!r} observed {} then {}: "
                "determinism broken".format(name, signature, observed))
        best = wall if best is None else min(best, wall)
    events, scheduled, fingerprint = signature

    # Separate pass for the memory high-water mark; tracemalloc's
    # per-allocation bookkeeping would poison the wall-clock numbers.
    tracemalloc.start()
    try:
        run_deployment(factory())
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    return {
        "events": events,
        "events_scheduled": scheduled,
        "wall_s": round(best, 4),
        "events_per_sec": round(events / best, 1),
        "peak_mem_kb": round(peak / 1024.0, 1),
        "fingerprint": fingerprint,
    }


#: Repeat counts for the large-N scenarios: fig3_n100 still gets a
#: determinism cross-check; gossip_n1000 (~45 s per run) is measured once
#: — its event count and fingerprint are pinned by the baseline instead.
PERF_REPEATS = {"fig3_n100": 2, "gossip_n1000": 1}


def measure_all(repeats=3):
    """Measure every scenario; returns the full baseline-shaped payload."""
    names = sorted(SCENARIOS) + sorted(PERF_SCENARIOS)
    return {
        "host": host_info(),
        "scenarios": {
            name: measure_scenario(
                name, repeats=min(repeats, PERF_REPEATS.get(name, repeats)))
            for name in names
        },
    }


def compare_payloads(current, baseline):
    """Per-scenario deltas between two baseline-shaped payloads.

    Returns one row dict per scenario in ``current``: measured and
    baseline events/sec and peak-mem, their ratios, and whether the
    report fingerprints still match (a perf delta on a *different*
    computation is not a perf delta). Scenarios absent from the baseline
    get ``baseline: None`` rows instead of being skipped, so a rename
    never silently drops a comparison.
    """
    rows = []
    base_scenarios = baseline.get("scenarios", {})
    for name in sorted(current.get("scenarios", {})):
        measured = current["scenarios"][name]
        base = base_scenarios.get(name)
        row = {
            "scenario": name,
            "events_per_sec": measured["events_per_sec"],
            "peak_mem_kb": measured["peak_mem_kb"],
        }
        if base is None:
            row.update(baseline_events_per_sec=None, events_per_sec_ratio=None,
                       baseline_peak_mem_kb=None, peak_mem_ratio=None,
                       fingerprint_match=None)
        else:
            row.update(
                baseline_events_per_sec=base["events_per_sec"],
                events_per_sec_ratio=round(
                    measured["events_per_sec"] / base["events_per_sec"], 3),
                baseline_peak_mem_kb=base["peak_mem_kb"],
                peak_mem_ratio=round(
                    measured["peak_mem_kb"] / base["peak_mem_kb"], 3),
                fingerprint_match=(
                    measured["fingerprint"] == base.get("fingerprint")),
            )
        rows.append(row)
    return rows


def measure_speedup(workers=4, runs_per_cell=2):
    """Fig. 6-style loss grid, serial vs. ``workers`` processes.

    Returns the wall-clock of both executions, their ratio, and whether
    the grids were bitwise-identical (they must be — parallelism is
    required to be invisible to results). ``cpu_count`` is recorded
    because the achievable ratio is bounded by the physical cores: on a
    single-CPU host the parallel path can only add spawn overhead.
    """
    from repro.runtime.sweep import loss_grid

    base = _config("gossip", 26, retransmit_timeout=None, drain=3.0)
    loss_rates = [0.1, 0.3]
    rates = [26, 52]
    start = time.perf_counter()
    serial = loss_grid(base, loss_rates, rates,
                       runs_per_cell=runs_per_cell, workers=1)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    parallel = loss_grid(base, loss_rates, rates,
                         runs_per_cell=runs_per_cell, workers=workers)
    parallel_s = time.perf_counter() - start
    return {
        "workers": workers,
        "grid_runs": len(loss_rates) * len(rates) * runs_per_cell,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup": round(serial_s / parallel_s, 2),
        "identical": serial == parallel,
        "cpu_count": os.cpu_count(),
    }
