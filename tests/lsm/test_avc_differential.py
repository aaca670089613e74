"""Differential conformance harness for the stack AVC.

Runs the same seeded, randomized syscall workload — drawn over the IVI
world's apps and car devices, interleaved with real drive-cycle phases
from ``repro.vehicle.scenarios`` so the situation actually changes —
twice: once with the cache enabled, once disabled.  Every per-call
decision, every denial report and every audit record must be
bit-identical; the cache may only change *how fast* an answer arrives,
never the answer, in the spirit of runtime verification against an
executable model (Efremov & Shchepetkov).  The same contract holds for
the dispatch observers (hook latency, the ``lsm:hook_dispatch``
tracepoint, hook spans): they may watch decisions, never change them.
"""

import random

import pytest

from repro.obs.tracepoints import LSM_HOOK_DISPATCH
from repro.sack.events import SituationEvent
from repro.vehicle.devices import IOCTL_SYMBOLS
from repro.vehicle.ivi import EnforcementConfig, build_ivi_world
from repro.vehicle.scenarios import crash_on_highway, urban_commute

APPS = ["media_app", "nav_app", "volume_service", "ignition_service",
        "rescue_daemon"]
DEVICES = ["door", "window", "audio", "engine", "speedometer"]
OPS = ["read", "write", "ioctl"]
IOCTL_CMDS = sorted(IOCTL_SYMBOLS.values())

#: Accesses issued in each drive-cycle phase; 14 phases -> 1120 calls.
PER_PHASE = 80


def _one_access(world, rng):
    """Perform one randomized access; returns a decision tuple."""
    from repro.kernel import KernelError, OpenFlags

    kernel = world.kernel
    app = rng.choice(APPS)
    device = rng.choice(DEVICES)
    op = rng.choice(OPS)
    task = world.task(app)
    path = f"/dev/car/{device}"
    fd = None
    outcome = "ok"
    try:
        if op == "read":
            fd = kernel.sys_open(task, path, OpenFlags.O_RDONLY)
            kernel.sys_read(task, fd, 8)
        elif op == "write":
            fd = kernel.sys_open(task, path, OpenFlags.O_WRONLY)
            kernel.sys_write(task, fd, b"\x01")
        else:
            cmd = rng.choice(IOCTL_CMDS)
            fd = kernel.sys_open(task, path, OpenFlags.O_RDONLY)
            kernel.sys_ioctl(task, fd, cmd, 0)
    except KernelError as exc:
        outcome = f"err:{int(exc.errno)}"
    finally:
        if fd is not None:
            kernel.sys_close(task, fd)
    return (app, op, device, outcome)


def _run_workload(seed, cache_enabled,
                  config=EnforcementConfig.SACK_INDEPENDENT,
                  observers=False):
    """One full seeded run; returns everything the comparison needs.

    *observers* turns on every dispatch observer: hook latency
    histograms, a ``lsm:hook_dispatch`` callback and a span per hook.
    """
    world = build_ivi_world(config)
    world.framework.avc.enabled = cache_enabled
    dispatches = []
    obs = world.kernel.obs
    if observers:
        world.framework.enable_hook_latency()
        obs.tracepoints.attach(LSM_HOOK_DISPATCH,
                               lambda name, fields: dispatches.append(
                                   fields["rc"]))
        obs.spans.enable()
        obs.spans.trace_all_hooks()
    rng = random.Random(seed)
    decisions = []
    for phase in urban_commute() + crash_on_highway():
        if phase.on_enter is not None:
            phase.on_enter(world.dynamics)
        world.run_sds(ticks=4, dt_s=max(0.1, phase.duration_s / 4))
        for _ in range(PER_PHASE):
            decisions.append(_one_access(world, rng))
    module = world.sack or world.bridge
    denial_reports = [r.to_text() for r in obs.audit.records()
                      if r.kind == "avc"]
    module_audit = [(r.kind, r.detail, r.pid, r.comm)
                    for r in world.kernel.audit.records]
    return {
        "world": world,
        "decisions": decisions,
        "denial_reports": denial_reports,
        "module_audit": module_audit,
        "transitions": module.ssm.transition_count,
        "avc": world.framework.avc.core,
        "dispatches": dispatches,
        "hook_spans": obs.spans.started,
        "latency": world.framework.hook_latency_summary(),
    }


@pytest.mark.parametrize("seed", [7, 1234, 990017])
def test_cache_on_off_bit_identical_independent(seed):
    cached = _run_workload(seed, cache_enabled=True)
    uncached = _run_workload(seed, cache_enabled=False)

    # The workload is only meaningful if it exercised the machinery:
    # 1k+ accesses, several situation transitions, real cache traffic.
    assert len(cached["decisions"]) >= 1000
    assert cached["transitions"] >= 3
    assert cached["avc"].hits > 100
    assert uncached["avc"].hits == 0

    # The conformance contract: bit-identical behavior.
    assert cached["decisions"] == uncached["decisions"]
    assert cached["denial_reports"] == uncached["denial_reports"]
    assert cached["module_audit"] == uncached["module_audit"]

    # And the revocation invariant the differential run must witness:
    # epoch bumps happened, yet no hit ever served a stale epoch.
    assert cached["avc"].epoch_bumps >= cached["transitions"]
    assert cached["avc"].stale_served == 0
    assert (cached["avc"].last_hit_entry_epoch
            == cached["avc"].last_hit_at_epoch)


def test_cache_on_off_bit_identical_apparmor_bridge():
    """Same contract for SACK-enhanced AppArmor, where invalidation rides
    the profile-reload path instead of the APE remap."""
    seed = 42
    cached = _run_workload(
        seed, True, config=EnforcementConfig.SACK_APPARMOR)
    uncached = _run_workload(
        seed, False, config=EnforcementConfig.SACK_APPARMOR)
    assert cached["transitions"] >= 3
    assert cached["decisions"] == uncached["decisions"]
    assert cached["denial_reports"] == uncached["denial_reports"]
    assert cached["module_audit"] == uncached["module_audit"]
    assert cached["avc"].stale_served == 0


@pytest.mark.parametrize("config", [EnforcementConfig.SACK_INDEPENDENT,
                                    EnforcementConfig.SACK_APPARMOR])
def test_observers_on_off_bit_identical(config):
    seed = 7
    plain = _run_workload(seed, True, config=config)
    observed = _run_workload(seed, True, config=config, observers=True)

    # Every observer actually fired, on walks and on cache hits alike.
    assert len(observed["dispatches"]) > 1000
    assert any(rc != 0 for rc in observed["dispatches"])
    assert observed["hook_spans"] > len(observed["decisions"])
    assert observed["latency"]["file_open"]["count"] > 0
    assert observed["avc"].hits == plain["avc"].hits > 100

    assert observed["decisions"] == plain["decisions"]
    assert observed["denial_reports"] == plain["denial_reports"]
    assert observed["module_audit"] == plain["module_audit"]


def test_direct_event_storm_never_serves_stale(seed=2024):
    """Epoch-bump racing: fire transitions between every few accesses and
    check the bumped-then-hit ordering directly on the live counters."""
    world = build_ivi_world(EnforcementConfig.SACK_INDEPENDENT,
                            with_sds=False)
    rng = random.Random(seed)
    ssm = world.sack.ssm
    events = ["vehicle_started", "vehicle_parked", "driver_left",
              "driver_returned", "crash_detected", "emergency_cleared"]
    core = world.framework.avc.core
    for step in range(600):
        if step % 5 == 4:
            ssm.process_event(SituationEvent(name=rng.choice(events)))
        _one_access(world, rng)
        assert core.stale_served == 0
        assert core.last_hit_entry_epoch == core.last_hit_at_epoch
    assert core.epoch_bumps > 10
    assert core.hits > 50


def test_chaos_report_carries_avc_invariant():
    """The chaos harness wires I7: its report exposes the AVC counters and
    a clean run shows traffic without a single stale service."""
    from repro.faults.chaos import run_chaos

    report = run_chaos(seed=3, ticks=60, mode="independent")
    assert report.ok, [v for v in report.violations]
    avc = report.stats["avc"]
    assert avc["hits"] > 0
    assert avc["stale_served"] == 0
