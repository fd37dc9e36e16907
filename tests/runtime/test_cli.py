"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def _fast(extra):
    """Common fast flags appended to a command line."""
    return extra + ["--n", "7", "--rate", "30", "--duration", "0.8",
                    "--warmup", "0.6", "--drain", "2.0", "--seed", "3"]


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_command(capsys):
    assert main(_fast(["run", "--setup", "semantic"])) == 0
    out = capsys.readouterr().out
    assert "semantic" in out
    assert "avg ms" in out


def test_run_rejects_bad_setup():
    with pytest.raises(SystemExit):
        main(["run", "--setup", "bogus"])


def test_compare_command(capsys):
    assert main(_fast(["compare"])) == 0
    out = capsys.readouterr().out
    for setup in ("baseline", "gossip", "semantic"):
        assert setup in out


def test_sweep_command(capsys):
    assert main(_fast(["sweep", "--setup", "gossip",
                       "--rates", "20,40"])) == 0
    out = capsys.readouterr().out
    assert "(saturation)" in out


def test_overlays_command(capsys):
    assert main(_fast(["overlays", "--count", "4"])) == 0
    out = capsys.readouterr().out
    assert "(median)" in out
    assert "median RTT ms" in out


def test_reliability_command(capsys):
    assert main(_fast(["reliability", "--losses", "0.0,0.3",
                       "--rates", "30", "--runs", "1"])) == 0
    out = capsys.readouterr().out
    assert "gossip" in out
    assert "semantic" in out


def test_raft_protocol_flag(capsys):
    assert main(_fast(["run", "--setup", "gossip",
                       "--protocol", "raft"])) == 0
    assert "raft" in capsys.readouterr().out


def test_strategy_flag(capsys):
    assert main(_fast(["run", "--setup", "gossip",
                       "--strategy", "push-pull"])) == 0


def test_loss_and_retransmit_flags(capsys):
    assert main(_fast(["run", "--setup", "gossip", "--loss", "0.1",
                       "--retransmit", "0.4"])) == 0


def _chaos(extra):
    """Fast chaos flags: one small scenario run."""
    return ["chaos"] + extra + ["--n", "7", "--rate", "30",
                                "--duration", "1.0", "--warmup", "0.5",
                                "--drain", "2.5"]


def test_chaos_command_single_scenario(capsys):
    assert main(_chaos(["--scenario", "partition-heal",
                        "--setups", "gossip"])) == 0
    out = capsys.readouterr().out
    assert "partition-heal" in out
    assert "ok" in out
    assert "violations" in out


def test_chaos_command_skips_unsupported_pairs(capsys):
    assert main(_chaos(["--scenario", "coordinator-crash",
                        "--setups", "baseline"])) == 0
    assert "skipped" in capsys.readouterr().out


def test_chaos_command_multiple_seeds(capsys):
    assert main(_chaos(["--scenario", "gray-coordinator",
                        "--setups", "gossip", "--seeds", "1,2"])) == 0
    out = capsys.readouterr().out
    assert out.count("gray-coordinator") == 2


def test_chaos_command_rejects_unknown_scenario(capsys):
    code = main(_chaos(["--scenario", "nonexistent", "--setups", "gossip"]))
    assert code == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_chaos_command_accepts_comma_separated_scenarios(capsys):
    code = main(_chaos(["--scenario", "partition-heal,burst-loss",
                        "--setups", "gossip"]))
    assert code == 0
    out = capsys.readouterr().out
    assert "partition-heal" in out
    assert "burst-loss" in out
    assert "gray-coordinator" not in out


def test_compare_workers_flag_output_identical(capsys):
    """--workers must be invisible in the printed values."""
    assert main(_fast(["compare", "--workers", "1"])) == 0
    serial = capsys.readouterr().out
    assert main(_fast(["compare", "--workers", "2"])) == 0
    assert capsys.readouterr().out == serial


def test_reliability_workers_flag_output_identical(capsys):
    args = _fast(["reliability", "--losses", "0.0,0.3",
                  "--rates", "30", "--runs", "1"])
    assert main(args + ["--workers", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(args + ["--workers", "4"]) == 0
    assert capsys.readouterr().out == serial


def test_chaos_workers_flag_output_identical(capsys):
    args = _chaos(["--scenario", "partition-heal", "--setups", "gossip",
                   "--seeds", "1,2"])
    assert main(args + ["--workers", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(args + ["--workers", "2"]) == 0
    assert capsys.readouterr().out == serial


def test_perf_command_json_payload(capsys):
    import json

    assert main(["perf", "--scenario", "fig7_overlay",
                 "--repeats", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    measured = payload["scenarios"]["fig7_overlay"]
    assert measured["events"] > 0
    assert set(measured) >= {"events", "events_scheduled", "wall_s",
                             "events_per_sec", "peak_mem_kb", "fingerprint"}
    # No section beyond the host and the scenarios.
    assert set(payload) == {"host", "scenarios"}


def test_perf_command_table_output(capsys):
    assert main(["perf", "--scenario", "fig7_overlay", "--repeats", "1"]) == 0
    out = capsys.readouterr().out
    assert "fig7_overlay" in out
    assert "events/s" in out


def test_perf_command_rejects_unknown_scenario(capsys):
    assert main(["perf", "--scenario", "bogus"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_perf_profile_reports_gc_per_generation(capsys):
    """--profile adds cyclic-GC collections and seconds per generation
    without changing what the profiled run computes."""
    import gc
    import json
    import pathlib

    from repro.perf import profile_scenario

    baseline = json.loads((pathlib.Path(__file__).parents[2] / "benchmarks"
                           / "perf" / "BENCH_perf.json").read_text())
    callbacks = list(gc.callbacks)
    result = profile_scenario("fig7_overlay", limit=5)
    assert gc.callbacks == callbacks
    assert result["fingerprint"] == (
        baseline["scenarios"]["fig7_overlay"]["fingerprint"])
    generations = len(gc.get_count())
    assert len(result["gc_collections"]) == generations
    assert len(result["gc_s"]) == generations
    assert all(count >= 0 for count in result["gc_collections"])
    assert all(seconds >= 0.0 for seconds in result["gc_s"])
    assert sum(result["gc_collections"]) > 0

    assert main(["perf", "--profile", "--scenario", "fig7_overlay"]) == 0
    out = capsys.readouterr().out
    assert "cyclic GC: gen0 " in out
    assert ", gen2 " in out


def test_perf_compare_command(tmp_path, capsys):
    import json

    # Measure once to get a real payload shape, save a doctored baseline
    # (half the throughput, double the memory), and compare against it.
    assert main(["perf", "--scenario", "fig7_overlay",
                 "--repeats", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    measured = payload["scenarios"]["fig7_overlay"]
    baseline = {"scenarios": {"fig7_overlay": {
        "events_per_sec": measured["events_per_sec"] / 2.0,
        "peak_mem_kb": measured["peak_mem_kb"] * 2.0,
        "fingerprint": measured["fingerprint"],
    }}}
    path = tmp_path / "base.json"
    path.write_text(json.dumps(baseline))

    assert main(["perf", "--scenario", "fig7_overlay",
                 "--repeats", "1", "--compare", str(path)]) == 0
    out = capsys.readouterr().out
    assert "fig7_overlay" in out
    assert "vs baseline" in out
    assert "ok" in out            # fingerprints match
    assert "-50" in out           # peak mem halved vs doctored baseline

    # JSON mode carries the structured deltas.
    assert main(["perf", "--scenario", "fig7_overlay",
                 "--repeats", "1", "--compare", str(path), "--json"]) == 0
    deltas = json.loads(capsys.readouterr().out)["deltas"]
    assert deltas[0]["scenario"] == "fig7_overlay"
    assert deltas[0]["fingerprint_match"] is True
    assert deltas[0]["events_per_sec_ratio"] > 1.0
    assert 0.4 < deltas[0]["peak_mem_ratio"] < 0.6


def test_perf_compare_rejects_unreadable_baseline(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["perf", "--scenario", "fig7_overlay", "--repeats", "1",
                 "--compare", str(missing)]) == 2
    assert "cannot read baseline" in capsys.readouterr().err


def test_compare_payloads_flags_missing_and_diverged_scenarios():
    from repro.perf import compare_payloads

    current = {"scenarios": {
        "a": {"events_per_sec": 100.0, "peak_mem_kb": 10.0,
              "fingerprint": "xyz"},
        "b": {"events_per_sec": 50.0, "peak_mem_kb": 5.0,
              "fingerprint": "new"},
    }}
    baseline = {"scenarios": {
        "a": {"events_per_sec": 80.0, "peak_mem_kb": 10.0,
              "fingerprint": "xyz"},
        "b": {"events_per_sec": 50.0, "peak_mem_kb": 5.0,
              "fingerprint": "old"},
    }}
    rows = {row["scenario"]: row
            for row in compare_payloads(current, baseline)}
    assert rows["a"]["events_per_sec_ratio"] == 1.25
    assert rows["a"]["fingerprint_match"] is True
    assert rows["b"]["fingerprint_match"] is False

    rows = compare_payloads(
        {"scenarios": {"only_here": {"events_per_sec": 1.0,
                                     "peak_mem_kb": 1.0,
                                     "fingerprint": "f"}}},
        {"scenarios": {}})
    assert rows[0]["baseline_events_per_sec"] is None
    assert rows[0]["fingerprint_match"] is None
