"""Wall-clock kernel profiling for the perf scenarios.

The deterministic fingerprints say *what* a run computes; this module
says *where the interpreter time goes* while computing it — the tool for
the roadmap's events/sec work. :func:`profile_scenario` wraps one
committed perf scenario in ``cProfile`` (and optionally ``tracemalloc``)
and returns a structured summary next to the raw ``pstats`` text.
Profiling is observational: the simulated run is the byte-identical
scenario the benchmarks pin, so the reported fingerprint doubles as a
check that the profiled code path is the measured one.

Cyclic garbage collection is reported next to the profile: cProfile
does not attribute it to any function, yet at N=1000 a gen-2 collection
walks every GC-tracked object in flight. A ``gc.callbacks`` hook counts
collections and their wall time per generation.

Exposed on the CLI as ``repro perf --profile``.
"""

import cProfile
import gc
import io
import pstats
import time


def _scenario_config(name):
    from repro.perf.scenarios import (
        PERF_SCENARIOS,
        REGRESSION_SCENARIOS,
        SCENARIOS,
    )

    factory = (SCENARIOS.get(name) or REGRESSION_SCENARIOS.get(name)
               or PERF_SCENARIOS.get(name))
    if factory is None:
        known = (sorted(SCENARIOS) + sorted(REGRESSION_SCENARIOS)
                 + sorted(PERF_SCENARIOS))
        raise KeyError("unknown perf scenario {!r}; known: {}".format(
            name, ", ".join(known)))
    return factory()


def _top_functions(stats, limit):
    """The hottest entries as dicts, ordered by cumulative time."""
    rows = []
    entries = sorted(stats.stats.items(),
                     key=lambda item: item[1][3], reverse=True)
    for (filename, line, function), data in entries[:limit]:
        calls, _primitive, total_time, cumulative_time, _callers = data
        rows.append({
            "function": "{}:{}:{}".format(filename, line, function),
            "calls": calls,
            "total_s": total_time,
            "cumulative_s": cumulative_time,
        })
    return rows


class _GcTimer:
    """``gc.callbacks`` hook: collections and seconds per generation."""

    def __init__(self):
        self.collections = [0] * len(gc.get_count())
        self.seconds = [0.0] * len(gc.get_count())
        self._started = None

    def __call__(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            generation = info["generation"]
            self.collections[generation] += 1
            self.seconds[generation] += time.perf_counter() - self._started
            self._started = None


def profile_scenario(name, sort="cumulative", limit=25, memory=False):
    """Profile one committed perf scenario under ``cProfile``.

    Parameters
    ----------
    name:
        A :data:`repro.perf.scenarios.SCENARIOS` /
        ``REGRESSION_SCENARIOS`` key.
    sort:
        ``pstats`` sort key for the text output (default cumulative).
    limit:
        Number of entries in both the text output and ``top_functions``.
    memory:
        Also trace allocations with ``tracemalloc`` (slower); adds
        ``peak_mem_kb`` and the top allocation sites.

    Returns a dict: ``scenario``, ``wall_s``, ``fingerprint`` (of the
    profiled run's report — must match the committed baseline),
    ``top_functions``, ``stats_text``, ``gc_collections`` and ``gc_s``
    (cyclic-GC collections and wall seconds, one entry per generation,
    youngest first), and with ``memory`` also ``peak_mem_kb`` and
    ``top_allocations``.
    """
    from repro.analysis.fingerprint import report_fingerprint
    from repro.runtime.runner import run_experiment

    config = _scenario_config(name)
    result = {"scenario": name}

    snapshot = None
    if memory:
        import tracemalloc

        tracemalloc.start()
    gc_timer = _GcTimer()
    gc.callbacks.append(gc_timer)
    profiler = cProfile.Profile()
    try:
        profiler.enable()
        report = run_experiment(config)
        profiler.disable()
    finally:
        gc.callbacks.remove(gc_timer)
    if memory:
        import tracemalloc

        snapshot = tracemalloc.take_snapshot()
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        result["peak_mem_kb"] = peak / 1024.0

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats(sort).print_stats(limit)
    result["fingerprint"] = report_fingerprint(report)
    result["wall_s"] = sum(
        entry[1][2] for entry in stats.stats.items())
    result["top_functions"] = _top_functions(stats, limit)
    result["gc_collections"] = gc_timer.collections
    result["gc_s"] = gc_timer.seconds
    result["stats_text"] = buffer.getvalue()

    if snapshot is not None:
        top = snapshot.statistics("lineno")[:limit]
        result["top_allocations"] = [
            {"site": str(stat.traceback), "size_kb": stat.size / 1024.0,
             "count": stat.count}
            for stat in top
        ]
    return result
