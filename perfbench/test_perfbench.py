"""Tests of the benchmark's own code (not of the simulator).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import gc
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layertrace  # noqa: E402
import run  # noqa: E402
from repro.runtime.config import ExperimentConfig  # noqa: E402
from repro.runtime.deployment import build_deployment  # noqa: E402
from repro.sim.events import Event  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    """A clock that returns scripted instants, one per read."""

    def __init__(self, instants):
        self._instants = iter(instants)

    def __call__(self):
        return next(self._instants)


def test_self_time_is_span_minus_child_spans():
    # outer [0, 10] encloses middle [2, 8], which encloses inner [3, 4]
    # and inner [5, 7]: self times are 10-6, 6-3 and 1+2.
    tracer = layertrace.Tracer(clock=FakeClock([0, 2, 3, 4, 5, 7, 8, 10]))
    inner = tracer.wrap("inner", "net.inner", lambda: None)

    def middle_body():
        inner()
        inner()

    middle = tracer.wrap("middle", "gossip.middle", middle_body)
    outer = tracer.wrap("outer", "sim.outer", middle)
    outer()
    assert tracer.self_s == {"sim.outer": 4, "gossip.middle": 3, "net.inner": 3}
    assert tracer.calls == {"inner": 2, "middle": 1, "outer": 1}
    # middle is nested directly in outer's span of another group, so both
    # count as crossings; both inner calls cross from gossip into net.
    assert tracer.crossings == {"sim.outer": 1, "gossip.middle": 1,
                                "net.inner": 2}


def test_nested_calls_of_one_group_cross_once():
    tracer = layertrace.Tracer(clock=FakeClock([0, 1, 2, 3]))
    leaf = tracer.wrap("leaf", "sim.server", lambda: None)
    entry = tracer.wrap("entry", "sim.server", leaf)
    entry()
    assert tracer.crossings == {"sim.server": 1}
    assert tracer.calls == {"leaf": 1, "entry": 1}
    assert tracer.self_s == {"sim.server": 3}


class _GossipOwner:
    def callback(self):
        pass


_GossipOwner.__module__ = "repro.gossip.fake"


class _ScriptedQueue:
    def __init__(self, events):
        self._events = list(events)

    def __len__(self):
        return len(self._events)

    def pop(self, limit=None):
        return self._events.pop(0) if self._events else None


def test_dispatch_runs_from_pop_return_to_next_pop():
    owner = _GossipOwner()
    events = [Event(0.0, 0, owner.callback, ()),
              Event(0.0, 1, owner.callback, ())]
    # pop#1 [0, 1]; callback, with a child span [2, 3]; pop#2 [5, 6];
    # callback; pop#3 [9, 10] finds the queue empty.
    tracer = layertrace.Tracer(
        clock=FakeClock([0, 1, 2, 3, 5, 6, 9, 10]))
    pop = tracer.wrap_pop(_ScriptedQueue.pop)
    child = tracer.wrap("child", "net.transmit", lambda: None)
    queue = _ScriptedQueue(events)
    assert pop(queue) is events[0]
    child()
    assert pop(queue) is events[1]
    assert pop(queue) is None
    assert tracer.self_s == {"sim.pop": 3, "net.transmit": 1,
                             "gossip.dispatch": (5 - 1 - 1) + (9 - 6)}
    assert tracer.pending_peak == 2
    assert tracer.dispatch_breakdown() == [
        ("repro.gossip.fake._GossipOwner", 6)]


def test_groups_follow_the_owner_module():
    assert layertrace.group_of_module("repro.net.channel") == "net.arrive"
    assert layertrace.group_of_module("repro.gossip.node") == "gossip.dispatch"
    assert layertrace.group_of_module("repro.paxos.process") == "paxos.dispatch"
    assert layertrace.group_of_module("repro.runtime.direct") == "runtime.direct"
    assert layertrace.group_of_module("builtins") == "other.dispatch"


def _patched_attributes():
    queue_class = layertrace.resolve_queue_backend()
    owners = [(queue_class, "pop"), (layertrace.Transport, "on_receive")]
    owners += [(owner, attr) for _, owner, attr, _ in layertrace.BOUNDARIES]
    return {(owner, attr): (attr in owner.__dict__, owner.__dict__.get(attr))
            for owner, attr in owners}


class _Boom(Exception):
    pass


def _tiny_config(seed=1):
    return ExperimentConfig(setup="semantic", n=5, rate=40.0, warmup=0.3,
                            duration=0.1, drain=0.2, seed=seed,
                            overlay_seed=11)


def test_wrappers_are_restored_after_a_traced_run_that_raises():
    before = _patched_attributes()
    tracer = layertrace.Tracer()

    def explode():
        raise _Boom()

    with pytest.raises(_Boom):
        with layertrace.instrument(tracer):
            assert _patched_attributes() != before
            deployment = build_deployment(_tiny_config())
            deployment.start()
            deployment.sim.schedule(0.35, explode)
            deployment.run()
    assert _patched_attributes() == before
    # The run got past set-up and into the kernel before raising.
    assert tracer.calls["queue.pop"] > 0


TINY = Workload("tiny", _tiny_config,
                ("queue.pop", "PaxosProcess.handle",
                 "PaxosSemantics.validate", "receive:gossip.dispatch"))


def test_traced_run_matches_untraced_and_adds_up():
    checker = run.Checker(None)
    metrics, detail = run.measure_layers(TINY, 1, checker, run.Calibration())
    assert checker.attempted == 2 and checker.failed == 0
    assert [name for name in metrics] == [
        entry["name"] for entry in BENCHMARK["per_layer"]]
    layers = sum(metrics[layer + ".self_s"][0]
                 for layer in layertrace.LAYERS)
    assert metrics["trace.other_s"][0] >= 0
    assert layers + metrics["trace.other_s"][0] == pytest.approx(
        metrics["trace.run_s"][0])
    assert detail["calls"]["PaxosSemantics.validate"] > 0


def test_traced_run_fails_when_a_listed_boundary_is_never_entered():
    unused = Workload("tiny", TINY.config,
                      ("InternedSlidingBloomFilter.register_payload",))
    checker = run.Checker(None)
    run.measure_layers(unused, 1, checker, run.Calibration())
    assert checker.failed == 1


def test_end_to_end_metrics_match_benchmark_json():
    checker = run.Checker(None)
    metrics = run.measure_end_to_end(TINY, 2, 0.0, checker, run.Calibration())
    assert checker.attempted == 2 and checker.failed == 0
    assert list(metrics) == [entry["name"] for entry in BENCHMARK["end_to_end"]]
    assert all(value > 0 for value, _unit in metrics.values())


def test_calibration_factor_is_reference_over_mean_chunk():
    calibration = run.Calibration(clock=FakeClock([0, 1, 1, 4]))
    calibration.chunk()
    calibration.chunk()
    assert calibration.factor() == pytest.approx(run.CAL_REF_S / 2)
    assert calibration.factor(1) == pytest.approx(run.CAL_REF_S / 3)


def test_calibration_chunk_never_wakes_the_collector():
    # Allocations of tracked objects would trigger collections whose cost
    # grows with the measured program's heap, not with the host's speed.
    calibration = run.Calibration()
    calibration.chunk()
    gc.disable()
    try:
        before = gc.get_count()[0]
        calibration.chunk()
        assert gc.get_count()[0] <= before
    finally:
        gc.enable()


def test_mismatch_is_counted_not_retried():
    checker = run.Checker({"fingerprint": "a", "events_executed": 1})
    assert not checker.check({"fingerprint": "b", "events_executed": 1})
    assert checker.check({"fingerprint": "a", "events_executed": 1})
    assert (checker.attempted, checker.failed) == (2, 1)


def test_metric_names_and_units_are_well_formed():
    entries = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [entry["name"] for entry in entries]
    assert len(names) == len(set(names))
    for entry in entries:
        assert NAME.fullmatch(entry["name"]) and len(entry["name"]) <= 64
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry["unit"])


def test_benchmark_json_records_workloads_mapping_and_gaps():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for workload in BENCHMARK["workloads"]:
        assert workload["why"] and "\n" not in workload["why"]
    readme = (HERE / "README.md").read_text()
    for entry in BENCHMARK["per_layer"]:
        assert "`{}`".format(entry["name"]) in readme, entry["name"]
    for gap in ("fault workload", "repro.raft", "repro.membership",
                "repro.obs"):
        assert gap in readme


def test_pins_cover_every_workload():
    pins = json.loads((HERE / "pins.json").read_text())
    assert set(pins) == set(WORKLOADS)
    assert pins["semantic_n100"]["fingerprint"].startswith("7fafe305")
