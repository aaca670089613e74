"""Barrier reads of the metrics registry, checked against full exports.

Fleet health polls (``MetricsRegistry.counter_total``) and telemetry
frames (``snapshot_frame`` over ``MetricsRegistry.series``) read the
registry without building a ``to_dict()`` export.  The ``reference_*``
functions below are the export-based readers they replaced, kept as they
were; every read and every export here must agree with them exactly.
"""

import dataclasses
import json
from types import SimpleNamespace

import pytest

from repro.fleet.bundle import BundleSigner, make_bundle
from repro.fleet.orchestrator import Fleet, FleetConfig, ScriptedDriver
from repro.fleet.rollout import RolloutState
from repro.fleet.vehicle import FleetVehicle, apply_driver_action
from repro.kernel.errors import KernelError
from repro.obs import MetricsRegistry, Observability, sample, snapshot_frame
from repro.obs.metrics import (Sample, _escape_label_value, _label_key,
                               _label_str)
from repro.obs.telemetry import TELEMETRY_SCHEMA, TelemetryFrame, series_key
from repro.vehicle.devices import DOOR_UNLOCK
from repro.vehicle.ivi import DEFAULT_SACK_POLICY

KEY = b"sack-fleet-signing-key"
STRANGLED_POLICY = DEFAULT_SACK_POLICY.replace(
    "failsafe emergency after 2000ms;", "failsafe emergency after 1ms;", 1)
HEALTH_COUNTERS = ("lsm_denials_total", "sack_failsafe_engagements_total",
                   "sack_transition_rollbacks_total")


# -- the export-based readers, as they were --------------------------------

def reference_to_dict(reg):
    counters = []
    for (name, labels), c in sorted(reg._counters.items()):
        counters.append({"name": name, "labels": dict(labels),
                         "value": c.value})
    gauges = []
    for (name, labels), g in sorted(reg._gauges.items()):
        gauges.append({"name": name, "labels": dict(labels),
                       "value": g.value})
    for s in sorted(reg._collected(), key=lambda s: (s.name, s.labels)):
        row = {"name": s.name, "labels": dict(s.labels), "value": s.value}
        (counters if s.kind == "counter" else gauges).append(row)
    histograms = []
    for (name, labels), h in sorted(reg._histograms.items()):
        histograms.append({"name": name, "labels": dict(labels),
                           **h.summary(),
                           "sum": h.total,
                           "bounds": list(h.bounds),
                           "buckets": list(h.bucket_counts)})
    return {"counters": counters, "gauges": gauges,
            "histograms": histograms}


def reference_to_prometheus(reg):
    lines = []
    seen_types = {}

    def typed(name, kind):
        if seen_types.get(name) != kind:
            lines.append(f"# TYPE {name} {kind}")
            seen_types[name] = kind

    for (name, labels), c in sorted(reg._counters.items()):
        typed(name, "counter")
        lines.append(f"{name}{_label_str(labels)} {c.value}")
    for (name, labels), g in sorted(reg._gauges.items()):
        typed(name, "gauge")
        lines.append(f"{name}{_label_str(labels)} {g.value:g}")
    for s in sorted(reg._collected(), key=lambda s: (s.name, s.labels)):
        typed(s.name, s.kind)
        lines.append(f"{s.name}{_label_str(s.labels)} {s.value:g}")
    for (name, labels), h in sorted(reg._histograms.items()):
        typed(name, "histogram")

        def bucket_line(le_value, cumulative, idx):
            le = dict(labels)
            le["le"] = le_value
            line = (f"{name}_bucket{_label_str(_label_key(le))} "
                    f"{cumulative}")
            exemplar = h.exemplars.get(idx)
            if exemplar is not None:
                trace_id, value = exemplar
                line += (f' # {{trace_id="'
                         f'{_escape_label_value(trace_id)}"}} '
                         f"{value:g}")
            return line

        cumulative = 0
        for idx, (bound, n) in enumerate(zip(h.bounds, h.bucket_counts)):
            cumulative += n
            lines.append(bucket_line(f"{bound:g}", cumulative, idx))
        lines.append(bucket_line("+Inf", h.count, len(h.bounds)))
        lines.append(f"{name}_sum{_label_str(labels)} {h.total:g}")
        lines.append(f"{name}_count{_label_str(labels)} {h.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def reference_frame(obs, vehicle_id, epoch, at_ns):
    doc = reference_to_dict(obs.metrics)
    counters = {}
    for row in doc.get("counters", []):
        key = series_key(row["name"], row.get("labels") or {})
        counters[key] = counters.get(key, 0.0) + float(row["value"])
    gauges = {}
    for row in doc.get("gauges", []):
        gauges[series_key(row["name"], row.get("labels") or {})] = \
            float(row["value"])
    histograms = {}
    for row in doc.get("histograms", []):
        key = series_key(row["name"], row.get("labels") or {})
        histograms[key] = {
            "count": int(row["count"]),
            "sum": float(row.get("sum", 0.0)),
            "min": float(row.get("min", 0.0)),
            "max": float(row.get("max", 0.0)),
            "bounds": list(row.get("bounds", [])),
            "buckets": list(row.get("buckets", [])),
        }
    return TelemetryFrame(schema=TELEMETRY_SCHEMA,
                          vehicle_id=vehicle_id, epoch=epoch,
                          at_ns=at_ns, counters=counters,
                          gauges=gauges, histograms=histograms)


def reference_counter_total(reg, name):
    total = 0
    for row in reference_to_dict(reg)["counters"]:
        if row["name"] == name:
            total += int(row["value"])
    return total


def reference_health(vehicle):
    snap = dict(vehicle.health_snapshot())
    reg = vehicle.world.kernel.obs.metrics
    snap["denials"] = reference_counter_total(reg, "lsm_denials_total")
    snap["failsafe_engagements"] = reference_counter_total(
        reg, "sack_failsafe_engagements_total")
    snap["rollbacks"] = reference_counter_total(
        reg, "sack_transition_rollbacks_total")
    return snap


# -- comparison helpers ------------------------------------------------------

def assert_same_frame(obs, vehicle_id="veh000", epoch=3, at_ns=1234):
    new = snapshot_frame(obs, vehicle_id, epoch, at_ns)
    ref = reference_frame(obs, vehicle_id, epoch, at_ns)
    assert dataclasses.asdict(new) == dataclasses.asdict(ref)
    # Same insertion order and the same value types, not just equality.
    for field in ("counters", "gauges", "histograms"):
        got, want = getattr(new, field), getattr(ref, field)
        assert list(got) == list(want), field
        assert repr(got) == repr(want), field
    return new


def assert_same_exports(reg):
    assert reg.to_dict() == reference_to_dict(reg)
    assert reg.to_json() == json.dumps(reference_to_dict(reg), indent=2)
    assert reg.to_prometheus() == reference_to_prometheus(reg)


def assert_same_health(vehicle):
    new = vehicle.health_snapshot()
    ref = reference_health(vehicle)
    assert new == ref
    assert list(new) == list(ref)
    for name in ("denials", "failsafe_engagements", "rollbacks"):
        assert type(new[name]) is int, name
    return new


# -- scenarios ---------------------------------------------------------------

def _deny_door(vehicle):
    with pytest.raises(KernelError):
        vehicle.world.device_ioctl("media_app", "door", DOOR_UNLOCK)


def _ticks(vehicle, n):
    for _ in range(n):
        vehicle.tick()


def _worked_vehicle(mode):
    """A vehicle with denials, a crash, a rolled-back transition, two
    policy OTAs (the second one's 1 ms deadline engages the failsafe)
    and a used decision table."""
    vehicle = FleetVehicle("veh000", 0, seed=5, mode=mode)
    apply_driver_action(vehicle, "start")
    framework = vehicle.world.framework
    framework.dtable.enabled = True
    framework.rebuild_dtable()
    module = vehicle.world.sack or vehicle.world.bridge
    refused = []

    def refuse_once(transition):
        if not refused:
            refused.append(transition)
            raise RuntimeError("listener refused")

    module.ssm.add_listener(refuse_once)
    _ticks(vehicle, 20)
    _deny_door(vehicle)
    apply_driver_action(vehicle, "crash")
    _ticks(vehicle, 10)
    _deny_door(vehicle)
    apply_driver_action(vehicle, "clear")
    _ticks(vehicle, 10)
    signer = BundleSigner(KEY)
    for version, policy in ((1, DEFAULT_SACK_POLICY), (2, STRANGLED_POLICY)):
        ack = vehicle.apply_bundle(make_bundle(version, policy,
                                               signer=signer),
                                   KEY, now_ns=vehicle.world.kernel.obs.now_ns)
        assert ack.ok, ack
    _ticks(vehicle, 10)
    return vehicle


@pytest.fixture(scope="module", params=["independent", "apparmor"])
def worked_vehicle(request):
    return _worked_vehicle(request.param)


class TestFleetVehicle:
    def test_scenario_exercises_every_health_counter(self, worked_vehicle):
        snap = assert_same_health(worked_vehicle)
        assert snap["denials"] == 2
        assert snap["failsafe_engagements"] >= 1
        assert snap["rollbacks"] == 1
        assert worked_vehicle.world.framework.dtable.used

    def test_frame_matches_reference(self, worked_vehicle):
        frame = assert_same_frame(worked_vehicle.world.kernel.obs)
        assert any(k.startswith("lsm_dtable_lookups_total{")
                   for k in frame.counters)
        assert any(k.startswith("lsm_denials_total{")
                   for k in frame.counters)
        assert frame.histograms

    def test_exports_match_reference(self, worked_vehicle):
        assert_same_exports(worked_vehicle.world.kernel.obs.metrics)

    def test_booted_vehicle(self):
        vehicle = FleetVehicle("veh001", 1, seed=9)
        assert_same_health(vehicle)
        assert_same_frame(vehicle.world.kernel.obs)
        assert_same_exports(vehicle.world.kernel.obs.metrics)

    def test_fleet_with_kernel_crash_and_rollouts(self):
        # A serial fleet with a kernel crash restored from checkpoint, a
        # scripted collision and a committed then a rolled-back OTA:
        # every live vehicle is compared after every epoch.
        script = [(1, "veh001", "crash"), (2, "veh002", "driver_leaves"),
                  (4, "veh001", "clear")]
        fleet = Fleet(FleetConfig(n_vehicles=4, seed=3, telemetry=True,
                                  checkpoint_interval_epochs=2),
                      driver=ScriptedDriver(script))
        fleet.force_crash("veh003", epoch=3)
        signer = BundleSigner(KEY)
        fleet.stage_rollout(make_bundle(1, DEFAULT_SACK_POLICY,
                                        signer=signer))
        staged_second = False
        failsafes = 0
        for _ in range(20):
            if not staged_second and \
                    fleet.controller.state is RolloutState.COMPLETE:
                fleet.stage_rollout(make_bundle(2, STRANGLED_POLICY,
                                                signer=signer))
                staged_second = True
            fleet.run_epoch()
            for vid in fleet.ids:
                if fleet.supervisor.is_dead(vid):
                    continue
                vehicle = fleet.vehicles[vid]
                snap = assert_same_health(vehicle)
                assert fleet.host.health_snapshot(vid) == snap
                assert_same_frame(vehicle.world.kernel.obs, vid,
                                  fleet.epoch_index, fleet.sim_now_ns)
        for vehicle in fleet.vehicles.values():
            failsafes += vehicle.health_snapshot()["failsafe_engagements"]
            assert_same_exports(vehicle.world.kernel.obs.metrics)
        assert staged_second
        assert failsafes >= 1
        assert fleet.report().resilience["restores"] == 1


class TestSyntheticRegistries:
    def test_labelled_denial_series(self):
        obs = Observability()
        for module, hook, n in (("sack", "file_ioctl", 3),
                                ("apparmor", "file_open", 2),
                                ("sack", "file_open", 1)):
            for _ in range(n):
                obs.metrics.counter("lsm_denials_total",
                                    {"module": module, "hook": hook}).inc()
        assert obs.metrics.counter_total("lsm_denials_total") == 6
        assert reference_counter_total(obs.metrics,
                                       "lsm_denials_total") == 6
        frame = assert_same_frame(obs)
        assert frame.counters[
            "lsm_denials_total{hook=file_ioctl,module=sack}"] == 3.0
        assert_same_exports(obs.metrics)

    def test_counter_and_collector_on_one_key_are_summed(self):
        obs = Observability()
        obs.metrics.counter("shared_total", {"k": "v"}).inc(4)
        obs.metrics.register_collector(lambda: [
            sample("shared_total", {"k": "v"}, "counter", 2.5),
            sample("shared_total", {"k": "v"}, "counter", 1),
        ])
        frame = assert_same_frame(obs)
        assert frame.counters["shared_total{k=v}"] == 7.5
        assert_same_exports(obs.metrics)

    def test_duplicate_gauge_keys_last_wins(self):
        obs = Observability()
        obs.metrics.gauge("depth").set(1)
        obs.metrics.register_collector(lambda: [
            sample("depth", None, "gauge", 5),
            Sample("level", (), "gauge", 2.0),
        ])
        obs.metrics.register_collector(lambda: [
            sample("depth", None, "gauge", 9),
            Sample("level", (), "gauge", 3.0),
        ])
        frame = assert_same_frame(obs)
        assert frame.gauges["depth"] == 9.0
        assert frame.gauges["level"] == 3.0
        assert_same_exports(obs.metrics)

    def test_empty_and_recorded_histograms(self):
        obs = Observability()
        obs.metrics.histogram("idle_ns", bounds=(10, 100))
        busy = obs.metrics.histogram("busy_ns", {"op": "read"},
                                     bounds=(10, 100, 1000))
        for value in (5, 50, 500, 5000):
            busy.record(value, trace_id="t-1")
        frame = assert_same_frame(obs)
        assert frame.histograms["idle_ns"] == {
            "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
            "bounds": [10, 100], "buckets": [0, 0, 0]}
        assert frame.histograms["busy_ns{op=read}"]["buckets"] == \
            [1, 1, 1, 1]
        assert_same_exports(obs.metrics)

    def test_registry_past_cardinality_budget(self):
        reg = MetricsRegistry(max_series_per_metric=2)
        for i in range(5):
            reg.counter("m_total", {"i": str(i)}).inc(i + 1)
            reg.gauge("g", {"i": str(i)}).set(i)
        frame = assert_same_frame(SimpleNamespace(metrics=reg))
        assert frame.counters["metrics_series_dropped{metric=m_total}"] \
            == 3.0
        assert reg.counter_total("m_total") == 3
        assert reference_counter_total(reg, "m_total") == 3
        assert_same_exports(reg)

    def test_empty_registry(self):
        reg = MetricsRegistry()
        assert reg.counter_total("anything") == 0
        assert list(reg.series()) == []
        assert_same_exports(reg)


class TestCounterTotalRule:
    """``counter_total`` reads registered counters only.  It equals the
    export-based sum because no collector emits a health counter."""

    @staticmethod
    def _collected_names(vehicle):
        names = set()
        for collector in vehicle.world.kernel.obs.metrics._collectors:
            names.update(s.name for s in collector())
        return names

    def test_booted_vehicle_collectors_skip_health_counters(self):
        for mode in ("independent", "apparmor"):
            vehicle = FleetVehicle("veh000", 0, seed=1, mode=mode)
            names = self._collected_names(vehicle)
            assert names, "collectors registered at boot"
            assert names.isdisjoint(HEALTH_COUNTERS)

    def test_worked_vehicle_collectors_skip_health_counters(
            self, worked_vehicle):
        names = self._collected_names(worked_vehicle)
        assert any(n.startswith("lsm_dtable_") for n in names)
        assert names.isdisjoint(HEALTH_COUNTERS)

    def test_collector_series_are_not_counted(self):
        reg = MetricsRegistry()
        reg.counter("x_total").inc(2)
        reg.register_collector(lambda: [sample("x_total", None,
                                               "counter", 5)])
        assert reg.counter_total("x_total") == 2
        assert reference_counter_total(reg, "x_total") == 7


class TestExportFreeBarrier:
    def test_run_epoch_never_exports(self, monkeypatch):
        calls = {"n": 0}
        original = MetricsRegistry.to_dict

        def counting_to_dict(self):
            calls["n"] += 1
            return original(self)

        monkeypatch.setattr(MetricsRegistry, "to_dict", counting_to_dict)
        fleet = Fleet(FleetConfig(n_vehicles=8, seed=4, telemetry=True))
        fleet.stage_rollout(make_bundle(1, DEFAULT_SACK_POLICY,
                                        signer=BundleSigner(KEY)))
        for _ in range(3):
            fleet.run_epoch()
        assert fleet.telemetry.last_frames == 8
        assert calls["n"] == 0
        fleet.report()
        assert calls["n"] > 0
