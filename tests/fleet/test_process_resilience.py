"""Resilience machinery under the multiprocessing backend.

The supervisor, checkpoint/restore path, quarantine policy, journal
replay, and OTA rollback were all built against the in-process host;
these tests re-run the canonical scenarios with the vehicles living in
worker processes, where every restore and every rollback decision has
to cross the barrier protocol.  Each scenario also asserts fingerprint
equality against its serial twin — recovery must not just work, it must
work *identically*.
"""

import multiprocessing
import os
import signal

import pytest

from repro.faults import points as fp
from repro.faults.plan import FaultRule
from repro.fleet.backend import WorkerLostError
from repro.fleet.bundle import BundleSigner, make_bundle
from repro.fleet.orchestrator import Fleet, FleetConfig, ScriptedDriver
from repro.fleet.rollout import RolloutState
from repro.fleet.resilience import QUARANTINED, RUNNING
from repro.vehicle.ivi import DEFAULT_SACK_POLICY

KEY = b"sack-fleet-signing-key"


def _fleet(n=4, seed=7, workers=2, backend="process", driver=None,
           **overrides):
    config = FleetConfig(n_vehicles=n, seed=seed, workers=workers,
                         backend=backend, **overrides)
    return Fleet(config, driver=driver or ScriptedDriver())


def _bundle(version=1):
    return make_bundle(version, DEFAULT_SACK_POLICY,
                       signer=BundleSigner(KEY))


class TestProcessCrashRestore:
    def test_forced_crash_recovers_from_checkpoint(self):
        with _fleet(checkpoint_interval_epochs=2) as fleet:
            fleet.force_crash("veh001", epoch=5)
            result = fleet.run(12)
            res = result.report.resilience
            assert res["crashes"] == 1
            assert res["restores"] == 1
            assert res["quarantined"] == 0
            assert fleet.supervisor.status["veh001"].state == RUNNING
            assert result.ok, result.report.violations

    def test_restore_fingerprint_matches_serial(self):
        prints = set()
        for backend, workers in (("serial", 1), ("process", 2),
                                 ("process", 4)):
            with _fleet(n=8, backend=backend, workers=workers,
                        checkpoint_interval_epochs=2) as fleet:
                fleet.force_crash("veh003", epoch=4)
                result = fleet.run(12)
                assert result.ok, result.report.violations
                prints.add(result.report.fingerprint())
        assert len(prints) == 1

    def test_i10_holds_across_the_barrier(self):
        # I10 (restored state == wreck state) is verified inside the
        # restore path via the worker's checkpoint digest reply.
        with _fleet(n=6, checkpoint_interval_epochs=3) as fleet:
            fleet.force_crash("veh002", epoch=7)
            report = fleet.run(14).report
            assert report.resilience["i10_checked"] == 1
            assert not [v for v in report.violations if "I10" in v]

    def test_random_crash_faults_stay_deterministic(self):
        prints, summaries = set(), []
        for backend, workers in (("serial", 1), ("process", 3)):
            with _fleet(n=8, backend=backend, workers=workers,
                        checkpoint_interval_epochs=2) as fleet:
                fleet.fleet_plan.add_rule(FaultRule(
                    point=fp.FLEET_VEHICLE_CRASH, probability=0.08))
                result = fleet.run(16)
                assert result.ok, result.report.violations
                prints.add(result.report.fingerprint())
                summaries.append(result.report.resilience)
        assert len(prints) == 1
        assert summaries[0]["crashes"] > 0
        assert summaries[0] == summaries[1]


class TestProcessQuarantine:
    def test_repeat_crasher_is_quarantined(self):
        with _fleet(max_restarts=2,
                    checkpoint_interval_epochs=2) as fleet:
            fleet.fleet_plan.add_rule(FaultRule(
                point=fp.FLEET_VEHICLE_CRASH, probability=1.0,
                arg="veh002"))
            result = fleet.run(20)
            st = fleet.supervisor.status["veh002"]
            assert st.state == QUARANTINED
            assert "max restarts exceeded" in st.quarantine_reason
            assert result.report.resilience["quarantined_ids"] == \
                ["veh002"]

    def test_journal_gap_quarantines_instead_of_guessing(self):
        with _fleet(checkpoint_interval_epochs=50,
                    journal_capacity_epochs=2,
                    max_restarts=5) as fleet:
            fleet.force_crash("veh001", epoch=8)
            fleet.run(12)
            st = fleet.supervisor.status["veh001"]
            assert st.state == QUARANTINED
            assert "journal gap" in st.quarantine_reason


class TestProcessRollout:
    def test_canary_failure_rolls_the_fleet_back(self):
        with _fleet(n=6, workers=3) as fleet:
            fleet.stage_rollout(_bundle(1))
            fleet.run(epochs=14)
            assert fleet.controller.state is RolloutState.COMPLETE
            fleet.arm_vehicle_fault(fleet.ids[0],
                                    fp.FLEET_BUNDLE_APPLY_FAIL,
                                    probability=1.0, times=1)
            fleet.stage_rollout(_bundle(2))
            result = fleet.run(epochs=10)
            assert fleet.controller.state is RolloutState.ROLLED_BACK
            assert set(result.report.bundle_versions.values()) == {1}
            canary_log = result.report.apply_logs[fleet.ids[0]]
            assert (2, "apply_failed") in canary_log
            assert canary_log[-1] == (1, "applied")
            assert result.ok, result.report.violations

    def test_rollback_fingerprint_matches_serial(self):
        def run(backend, workers):
            with _fleet(n=6, backend=backend, workers=workers) as fleet:
                fleet.stage_rollout(_bundle(1))
                fleet.run(epochs=14)
                fleet.arm_vehicle_fault(fleet.ids[0],
                                        fp.FLEET_BUNDLE_APPLY_FAIL,
                                        probability=1.0, times=1)
                fleet.stage_rollout(_bundle(2))
                return fleet.run(epochs=10).report.fingerprint()
        assert run("serial", 1) == run("process", 2)

    def test_straggler_resyncs_through_worker_boundary(self):
        # The I8 worst case: offline through the rollout, reconnecting
        # into a lossy V2X fabric — with the straggler living in a
        # worker process the reoffer path crosses the barrier protocol.
        with _fleet(n=6, seed=11, workers=2,
                    vehicle_fault_intensity=0.01) as fleet:
            fleet.fleet_plan.add_rule(FaultRule(
                point=fp.V2X_DELIVERY_DROP, probability=0.3))
            fleet.fleet_plan.add_rule(FaultRule(
                point=fp.FLEET_ACK_DROP, probability=0.2))
            fleet.force_offline("veh004", epochs=8)
            fleet.stage_rollout(_bundle(1))
            result = fleet.run(epochs=30)
            assert fleet.controller.state is RolloutState.COMPLETE
            assert result.report.bundle_versions["veh004"] == 1
            i8 = [v for v in result.report.violations if "I8" in v]
            assert not i8, i8


class TestProcessHostLifecycle:
    def test_close_is_idempotent_and_reaps_workers(self):
        fleet = _fleet(n=4, workers=2)
        fleet.run(2)
        workers = list(fleet.host._workers)
        fleet.close()
        fleet.close()
        assert all(not w.is_alive() for w in workers)

    def test_checkpoint_custody_lives_on_the_host(self):
        with _fleet(n=4, checkpoint_interval_epochs=2,
                    always_checkpoint=True) as fleet:
            fleet.run(6)
            rows = fleet.host.checkpoint_rows()
            assert {row["vehicle"] for row in rows} == set(fleet.ids)
            assert all(row["digest"] for row in rows)


class TestWorkerLoss:
    def test_killed_worker_fails_closed_and_close_reaps_all(self):
        fleet = _fleet(n=4, workers=2)
        try:
            fleet.run_epoch()
            victim = fleet.host._workers[1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            with pytest.raises(WorkerLostError) as info:
                fleet.run_epoch()
            lost = info.value
            assert lost.worker == 1
            assert lost.exitcode == -signal.SIGKILL
            assert lost.op == "barrier_a"   # the epoch's first RPC
            assert "fleet worker 1" in str(lost)
        finally:
            fleet.close()
        assert multiprocessing.active_children() == []
