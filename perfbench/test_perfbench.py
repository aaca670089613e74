"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_planted_oracle_error_is_caught(monkeypatch):
    row = oracle.EXPECTED["sack-independent"]["tele_speed"]
    monkeypatch.setitem(oracle.EXPECTED["sack-independent"], "tele_speed",
                        {**row, oracle.PARKED: oracle.DENIED})
    wl = workloads.IviSteady(0)
    wl.prepare()
    result = wl.run(budget=400)
    assert result.failed > 0
    assert any("tele_speed" in note for note in result.notes)


def test_planted_probe_error_is_caught(monkeypatch):
    row = oracle.EXPECTED["sack-apparmor"]["rescue_lock"]
    monkeypatch.setitem(oracle.EXPECTED["sack-apparmor"], "rescue_lock",
                        {**row, oracle.EMERGENCY: oracle.DENIED})
    wl = workloads.SituationChurn(3)
    wl.prepare()
    result = wl.run(budget=60)
    assert result.failed > 0


def test_wrong_fleet_pin_is_caught():
    wl = workloads.FleetEpoch(1, n_vehicles=8)
    wl.pin = "0" * 64
    result = wl.run(budget=1)
    assert result.failed == result.ops > 0


def test_every_probe_tells_old_from_new_state():
    for proto, table in oracle.EXPECTED.items():
        for (old, _event), new in oracle.TRANSITIONS.items():
            row = table[oracle.probe_for(old, new)]
            assert row[old] != row[new], (proto, old, new)


def test_self_times_on_a_synthetic_tree():
    # root [0,100]; a [10,40] > g [20,30]; b [35,60] overlaps a;
    # c [90,120] runs past the root's end and is clipped.
    parents = [-1, 0, 1, 0, 0]
    starts = [0, 10, 20, 35, 90]
    ends = [100, 40, 30, 60, 120]
    assert tracing.self_times(parents, starts, ends) == [40, 20, 10, 25, 30]


def test_recorded_self_times_sum_to_the_root():
    rec = tracing.SpanRecorder()
    rec.begin()
    for name in ("kernel.sys_open", "lsm.hook", "sack.check"):
        outer = rec.open(name)
        inner = rec.open("apparmor.check")
        rec.close(inner)
        rec.close(outer)
    rec.finish()
    stats = tracing.SpanStats(rec)
    root = rec.end[0] - rec.start[0]
    assert sum(stats.layer_self_ns.values()) == root
    assert stats.count["apparmor.check"] == 3


def _clean(result):
    assert result.failed == 0, result.notes
    assert result.ops > 0


def test_ivi_steady_smoke():
    wl = workloads.IviSteady(1)
    wl.prepare()
    _clean(wl.run(budget=500))


def test_situation_churn_smoke():
    wl = workloads.SituationChurn(1)
    wl.prepare()
    _clean(wl.run(budget=40))


def test_fleet_epoch_smoke():
    wl = workloads.FleetEpoch(1, n_vehicles=8)
    _clean(wl.run(budget=2))
    assert len(set(wl.fingerprints)) == 1


def test_fleet_process_smoke_matches_serial():
    wl = workloads.FleetProcess(1, n_vehicles=8)
    result = wl.run(budget=1)
    wl.finish_checks(result)
    _clean(result)
    assert result.attempted == result.ops + 1


def test_traced_pass_reports_every_layer_metric():
    wl = workloads.FleetEpoch(2, n_vehicles=8)
    rec = tracing.SpanRecorder()
    uninstall = tracing.install(rec)
    try:
        wl.prepare()
        before = wl.lsm_counters()
        result = wl.run(budget=1, rec=rec)
        extras = wl.layer_extras(before)
    finally:
        uninstall()
    _clean(result)
    metrics = tracing.layer_metrics(rec, result.ops, extras)
    metrics["bench.trace_overhead_pct"] = 0.0
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"] for m in spec["per_layer"]} == set(metrics)
    assert abs(metrics["bench.self_time_coverage"] - 1) \
        <= tracing.COVERAGE_TOLERANCE
    assert metrics["fleet.epoch_ms"] > 0
    assert metrics["verify.gate_evaluations"] == 2


def test_cli_refuses_a_directory_without_the_program(monkeypatch):
    monkeypatch.setattr(run, "SRC", os.path.join(HERE, "no-such-src"))
    assert run.main(["--workload", "ivi-steady", "--seconds", "1"]) == 2
