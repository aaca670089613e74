"""The benchmark's four workloads, each a closed loop with one client.

Every input (request schedule, drive cycle, traffic, OTA schedule) is
generated here from the workload seed; the program only receives those
inputs through its public API.  Every output is checked against
``oracle``.  Only wall-clock timers are used.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import random
import time
from array import array
from typing import Dict, List, Optional

import oracle
from repro.fleet import Fleet, FleetConfig, ScriptedDriver
from repro.fleet.bundle import BundleSigner, make_bundle
from repro.fleet.rollout import RolloutState
from repro.kernel import KernelError, OpenFlags
from repro.sack.sackfs import EVENTS_PATH
from repro.vehicle import (DEFAULT_SACK_POLICY, IOCTL_SYMBOLS,
                           EnforcementConfig, build_ivi_world)

_clock = time.perf_counter_ns
_O_RDONLY = OpenFlags.O_RDONLY

#: Failure messages kept per run (the count is always exact).
MAX_NOTES = 20


def quantile(sorted_values, q: float) -> float:
    """Linear-interpolated quantile of an already sorted sequence."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) \
        * (pos - lo)


class RunResult:
    """What one pass of a workload produced."""

    def __init__(self):
        self.ops = 0              # timed operations completed
        self.attempted = 0        # operations plus situation-change checks
        self.failed = 0
        self.lat_ns = array("q")
        self.wall_ns = 0          # wall time of the timed operations
        self.notes: List[str] = []

    def fail(self, count: int, note: str) -> None:
        self.failed += count
        if len(self.notes) < MAX_NOTES:
            self.notes.append(note)

    def figures(self) -> tuple:
        """Throughput (ops/s), p50 and p90 latency (ns) over every
        sample, and the sample count."""
        lat = sorted(self.lat_ns)
        return (self.ops / self.wall_ns * 1e9, quantile(lat, 0.50),
                quantile(lat, 0.90), len(lat))


def _status_kb(pid, field: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field):
                return int(line.split()[1])
    return 0


def _cpu_ns(pid) -> int:
    """User plus system CPU time of a process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])
    return ticks * 1_000_000_000 // os.sysconf("SC_CLK_TCK")


def peak_rss_kb() -> int:
    return _status_kb("self", "VmHWM:")


def _lsm_counters(frameworks) -> Dict[str, int]:
    out = dict.fromkeys(("avc_hits", "avc_misses", "avc_invalidations",
                         "dtable_hits", "dtable_misses", "dtable_builds"), 0)
    for fw in frameworks:
        core, table = fw.avc.core, fw.dtable
        out["avc_hits"] += core.hits
        out["avc_misses"] += core.misses
        out["avc_invalidations"] += core.epoch_bumps
        out["dtable_hits"] += table.hits
        out["dtable_misses"] += table.misses
        out["dtable_builds"] += table.builds
    return out


# -- the IVI stacks ----------------------------------------------------------

_CONFIGS = {"sack-apparmor": EnforcementConfig.SACK_APPARMOR,
            "sack-independent": EnforcementConfig.SACK_INDEPENDENT}

#: Files per media/nav library directory, and their size.
LIBRARY_FILES = 16
FILE_BYTES = 4096
READ_BYTES = 256


class Stack:
    """One booted IVI world plus what the benchmark needs to drive it."""

    def __init__(self, proto: str, with_sds: bool):
        self.proto = proto
        self.expected = oracle.EXPECTED[proto]
        # Both stacks boot the distro profiles; only the AppArmor stack
        # enforces them.
        self.world = build_ivi_world(_CONFIGS[proto],
                                     with_ubuntu_profiles=True,
                                     with_sds=with_sds)
        self.kernel = self.world.kernel
        self.audit = self.kernel.obs.audit
        init = self.kernel.procs.init
        blob = bytes(range(256)) * (FILE_BYTES // 256)
        for k in range(LIBRARY_FILES):
            self.kernel.write_file(init, f"/var/media/track{k:02d}.ogg", blob)
            self.kernel.write_file(init, f"/var/nav/tile{k:02d}.bin", blob)

    def prepare(self, kind: str, file_index: int, arg: int) -> tuple:
        app, path, symbol = oracle.REQUESTS[kind]
        if path.endswith("/"):
            path += (f"track{file_index:02d}.ogg" if "media" in path
                     else f"tile{file_index:02d}.bin")
        cmd = IOCTL_SYMBOLS[symbol] if symbol is not None else None
        return (kind, self.world.task(app), path, cmd, arg,
                self.expected[kind])

    def write_event(self, event: str) -> None:
        self.kernel.write_file(self.world.task("sds"), EVENTS_PATH,
                               f"{event}\n".encode(), create=False)


def request(kernel, task, path: str, cmd: Optional[int], arg: int) -> str:
    """One app request: open, one read or ioctl, close.  Returns the
    outcome as ``ok`` or ``<errno>@<syscall>``."""
    try:
        fd = kernel.sys_open(task, path, _O_RDONLY)
    except KernelError as exc:
        return f"{exc.errno.name}@open"
    try:
        if cmd is None:
            kernel.sys_read(task, fd, READ_BYTES)
        else:
            kernel.sys_ioctl(task, fd, cmd, arg)
    except KernelError as exc:
        return f"{exc.errno.name}@{'read' if cmd is None else 'ioctl'}"
    finally:
        kernel.sys_close(task, fd)
    return oracle.OK


def _check_audit(result: RunResult, proto: str, kind: str, outcome: str,
                 records: int) -> None:
    """A denial leaves exactly one AVC audit record; an allow leaves none."""
    want = 0 if outcome == oracle.OK else 1
    if records != want:
        result.fail(1, f"{proto} {kind}: {records} audit records for "
                       f"{outcome}, expected {want}")


class IviWorkload:
    """Shared set-up of the two IVI workloads: both prototypes booted."""

    SETUPS = 9
    WITH_SDS = False

    def __init__(self, seed: int):
        self.seed = seed
        self.setup_times: List[float] = []
        self.stacks: List[Stack] = []

    def prepare(self) -> None:
        """Build and warm the stacks afresh SETUPS times; keep the last.

        Set-up time covers booting, policy loads and the warm-up that
        does lazy compilation; the benchmark's own input preparation
        (``_plan``) is not timed.
        """
        for _ in range(self.SETUPS):
            self.stacks = []
            gc.collect()
            t0 = _clock()
            self._build()
            self._warm()
            self.setup_times.append((_clock() - t0) / 1e9)
        self._plan()

    def _build(self) -> None:
        self.stacks = [Stack(proto, self.WITH_SDS)
                       for proto in oracle.PROTOTYPES]

    def _warm(self) -> None:
        raise NotImplementedError

    def _plan(self) -> None:
        """Prepare the benchmark's inputs for the built stacks."""

    def finish_checks(self, result: RunResult) -> None:
        """Checks that need the whole timed pass (none here)."""

    def lsm_counters(self) -> Dict[str, int]:
        return _lsm_counters(s.world.framework for s in self.stacks)

    def layer_extras(self, before: Dict[str, int]) -> Dict[str, float]:
        after = self.lsm_counters()
        return {k: after[k] - before[k] for k in after}

    def extra_rss_kb(self) -> int:
        return 0

    def close(self) -> None:
        self.stacks = []


class IviSteady(IviWorkload):
    """Per-access checks: app requests alternating between the stacks."""

    name = "ivi-steady"
    #: Request-mix weights; KOFFEE-style door/window ioctls from
    #: media_app are 5% and must be denied and audited.
    MIX = {"tele_speed": 10, "tele_audio": 10, "tele_door": 10,
           "media_file": 20, "nav_file": 15, "vol_get": 10, "vol_set": 6,
           "ign_start": 7, "ign_stop": 7, "koffee_door": 2.5,
           "koffee_window": 2.5}
    SCHEDULE_LEN = 20_000
    #: A situation change is written to SACKfs once per this many requests.
    CHANGE_EVERY = 10_000
    #: Requests per pass of a traced run.
    TRACE_BUDGET = 20_000
    #: Situation changes come in tours from parking_with_driver and back,
    #: one excursion to each other state in a seeded order, so every seed
    #: spends the same share of requests in each state.
    EXCURSIONS = (("vehicle_started", "vehicle_parked"),
                  ("driver_left", "driver_returned"),
                  ("crash_detected", "emergency_cleared"))

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(f"{self.name}/{seed}")
        kinds = list(self.MIX)
        picks = rng.choices(kinds, weights=[self.MIX[k] for k in kinds],
                            k=self.SCHEDULE_LEN)
        self.requests = [(kind, rng.randrange(LIBRARY_FILES),
                          rng.randrange(101)) for kind in picks]

    def _warm(self) -> None:
        """One request of every kind on each stack."""
        for stack in self.stacks:
            for kind in self.MIX:
                _, task, path, cmd, arg, _ = stack.prepare(kind, 0, 50)
                request(stack.kernel, task, path, cmd, arg)

    def _plan(self) -> None:
        self.schedule = [[stack.prepare(*req) for req in self.requests]
                         for stack in self.stacks]
        self.state = oracle.PARKED
        self.events = self._tours(random.Random(f"{self.name}/{self.seed}"
                                                "/events"))
        self.op_index = 0

    def _tours(self, rng):
        while True:
            for excursion in rng.sample(self.EXCURSIONS, 3):
                yield from excursion

    def _change(self, result: RunResult) -> None:
        """The next situation event, written straight to both SACKfs."""
        event = next(self.events)
        state = self.state = oracle.TRANSITIONS[(self.state, event)]
        for stack in self.stacks:
            result.attempted += 1
            try:
                stack.write_event(event)
            except KernelError as exc:
                result.fail(1, f"{stack.proto}: event {event}: {exc}")
                continue
            if stack.world.situation != state:
                result.fail(1, f"{stack.proto}: {event} led to "
                               f"{stack.world.situation}, expected {state}")

    def run(self, seconds: float = 0.0, budget: int = 0,
            rec=None) -> RunResult:
        result = RunResult()
        lat = result.lat_ns
        stacks = self.stacks
        schedule = self.schedule
        length = self.SCHEDULE_LEN
        every = self.CHANGE_EVERY
        i = first = self.op_index
        stop_at = i + budget
        if rec is not None:
            rec.begin()
        t_start = _clock()
        deadline = t_start + int(seconds * 1e9)
        while True:
            if i and i % every == 0:
                self._change(result)
            side = i & 1
            stack = stacks[side]
            kind, task, path, cmd, arg, row = schedule[side][i % length]
            audit = stack.audit
            before = audit.emitted
            if rec is not None:
                rec.current_op = i
                span = rec.open("bench.op")
            t0 = _clock()
            try:
                outcome = request(stack.kernel, task, path, cmd, arg)
            except Exception as exc:  # any unexpected exception fails it
                outcome = f"exception {type(exc).__name__}: {exc}"
            t1 = _clock()
            lat.append(t1 - t0)
            expected = row[self.state]
            if outcome != expected:
                result.fail(1, f"{stack.proto} {kind} {path} in "
                               f"{self.state}: {outcome}, expected "
                               f"{expected}")
            _check_audit(result, stack.proto, kind, outcome,
                         audit.emitted - before)
            if rec is not None:
                rec.close(span)
            i += 1
            if (i >= stop_at) if budget else (t1 >= deadline):
                break
        result.wall_ns = _clock() - t_start
        if rec is not None:
            rec.finish()
        result.ops = i - first
        result.attempted += result.ops
        self.op_index = i
        return result


class SituationChurn(IviWorkload):
    """Situation changes through the live SDS, each followed by a probe.

    One seeded drive cycle drives both stacks in lockstep, so an op is
    one situation change of the vehicle, enforced on both prototypes.
    Timing the pair keeps the latency distribution unimodal: the bridged
    stack's profile rewrite makes its changes slower than the independent
    stack's, and a median over the two populations would sit in the gap
    between them.
    """

    name = "situation-churn"
    WITH_SDS = True
    #: Situation changes run in set-up, before the timed pass.
    WARMUP_OPS = 8
    #: Situation changes per pass of a traced run.
    TRACE_BUDGET = 120
    #: Ticks to wait for an expected transition before failing the op.
    MAX_TICKS = 200
    #: Driver actions by situation: (action, situation it must lead to).
    #: Crashes only from states where the driver is aboard, so a cleared
    #: emergency lands in parking_with_driver with the driver present.
    ACTIONS = {
        oracle.PARKED: (("start", oracle.DRIVING),
                        ("leave", oracle.UNATTENDED),
                        ("crash", oracle.EMERGENCY)),
        oracle.DRIVING: (("park", oracle.PARKED),
                         ("crash", oracle.EMERGENCY)),
        oracle.UNATTENDED: (("return", oracle.PARKED),),
        oracle.EMERGENCY: (("clear", oracle.PARKED),),
    }

    def _build(self) -> None:
        super()._build()
        for stack in self.stacks:
            # The detectors learn the boot situation from their first
            # sweep and only report edges after it.
            stack.world.run_sds(1)
            # Volume 30; DOOR_LOCK's argument 0 means every door.
            stack.probes = {"vol_set": stack.prepare("vol_set", 0, 30),
                            "rescue_lock": stack.prepare("rescue_lock", 0, 0)}
        self.rng = random.Random(f"{self.name}/{self.seed}")
        self.state = oracle.PARKED
        self.op_index = 0

    def _warm(self) -> None:
        self.run(budget=self.WARMUP_OPS)

    @staticmethod
    def _act(dyn, action: str, accel: float) -> None:
        if action == "start":
            dyn.start_engine()
            dyn.accelerate(accel)
        elif action == "park":
            dyn.accelerate(-4.0)
        elif action == "leave":
            dyn.set_driver_present(False)
        elif action == "return":
            dyn.set_driver_present(True)
        elif action == "crash":
            dyn.crash()
        elif action == "clear":
            dyn.clear_emergency()
            dyn.stop_engine()

    def _tick(self) -> None:
        for stack in self.stacks:
            stack.world.run_sds(1)

    def run(self, seconds: float = 0.0, budget: int = 0,
            rec=None) -> RunResult:
        result = RunResult()
        i = self.op_index
        stop_at = i + budget
        if rec is not None:
            rec.begin()
        t_start = _clock()
        deadline = t_start + int(seconds * 1e9)
        rng = self.rng
        while True:
            old = self.state
            action, new = rng.choice(self.ACTIONS[old])
            dwell = rng.randint(1, 6)
            accel = rng.uniform(2.0, 4.0)
            if rec is not None:
                rec.current_op = i
                span = rec.open("bench.op")
            try:
                for stack in self.stacks:
                    self._act(stack.world.dynamics, action, accel)
                self._change(result, old, new)
                for stack in self.stacks:
                    if action == "park":
                        stack.world.dynamics.stop_engine()
                for _ in range(dwell):
                    self._tick()
                for stack in self.stacks:
                    if stack.world.situation != new:
                        result.fail(1, f"{stack.proto}: idle ticks moved "
                                       f"{new} to {stack.world.situation}")
            except Exception as exc:  # any unexpected exception fails it
                result.fail(1, f"{action}: {type(exc).__name__}: {exc}")
            self.state = new
            if rec is not None:
                rec.close(span)
            i += 1
            if (i >= stop_at) if budget else (_clock() >= deadline):
                break
        result.wall_ns = _clock() - t_start
        if rec is not None:
            rec.finish()
        result.ops = i - self.op_index
        result.attempted += result.ops
        self.op_index = i
        return result

    def _change(self, result: RunResult, old: str, new: str) -> None:
        """Tick both stacks until each has moved, probing each as it
        moves.  The latency runs from the start of the tick in which the
        first stack moved to the return of the last probe."""
        waiting = list(self.stacks)
        t_first = None
        for _ in range(self.MAX_TICKS):
            t0 = _clock()
            for stack in self.stacks:
                stack.world.run_sds(1)
                if stack in waiting and stack.world.situation != old:
                    waiting.remove(stack)
                    self._probe(result, stack, old, new)
            if t_first is None and len(waiting) < len(self.stacks):
                t_first = t0
            if not waiting:
                result.lat_ns.append(_clock() - t_first)
                return
        result.fail(1, f"{', '.join(s.proto for s in waiting)}: no "
                       f"transition {old} -> {new} within {self.MAX_TICKS} "
                       f"ticks")

    def _probe(self, result: RunResult, stack: Stack, old: str,
               new: str) -> None:
        """The first request after *stack* moved must decide as *new*."""
        seen = stack.world.situation
        kind, task, path, cmd, arg, row = \
            stack.probes[oracle.probe_for(old, new)]
        before = stack.audit.emitted
        outcome = request(stack.kernel, task, path, cmd, arg)
        if seen != new:
            result.fail(1, f"{stack.proto}: {old} moved to {seen}, "
                           f"expected {new}")
            return
        if outcome != row[new]:
            result.fail(1, f"{stack.proto} probe {kind} in {new}: "
                           f"{outcome}, expected {row[new]}")
        _check_audit(result, stack.proto, kind, outcome,
                     stack.audit.emitted - before)


# -- the fleet --------------------------------------------------------------

FLEET_VEHICLES = 64
#: Epochs per fleet round; every round is a fresh fleet on the same inputs.
FLEET_EPOCHS = 24
#: Epochs at which an OTA bundle is staged (deferred while one is in
#: flight): the two policy revisions in turn.  A rollout through the
#: default canary -> 25% -> full plan takes ten epochs.
STAGE_EPOCHS = (1, 12)
CRASH_P, CLEAR_P, DRIVER_P = 0.004, 0.15, 0.01

#: The second policy revision: renamed, with a longer failsafe deadline.
REVISION_B = DEFAULT_SACK_POLICY.replace(
    "policy ivi_default;", "policy ivi_default_r2;").replace(
    "failsafe emergency after 2000ms;", "failsafe emergency after 2500ms;")


def traffic_script(seed: int, n_vehicles: int, epochs: int) -> list:
    """Seeded crashes, recoveries and driver changes, per epoch and vehicle."""
    rng = random.Random(f"fleet/{seed}")
    crashed = set()
    script = []
    for epoch in range(epochs):
        for index in range(n_vehicles):
            vid = f"veh{index:03d}"
            roll = rng.random()
            if vid in crashed:
                if roll < CLEAR_P:
                    crashed.discard(vid)
                    script.append((epoch, vid, "clear"))
            elif roll < CRASH_P:
                crashed.add(vid)
                script.append((epoch, vid, "crash"))
            elif roll < CRASH_P + DRIVER_P:
                script.append((epoch, vid, rng.choice(
                    ("driver_leaves", "driver_returns"))))
    return script


def fleet_workers() -> int:
    return len(os.sched_getaffinity(0))


class FleetWorkload:
    """Rounds of FLEET_EPOCHS epochs on a fresh 64-vehicle fleet."""

    name: str
    backend: str
    #: Rounds per pass of a traced run.
    TRACE_BUDGET = 1

    def __init__(self, seed: int, n_vehicles: int = FLEET_VEHICLES,
                 epochs: int = FLEET_EPOCHS):
        self.seed = seed
        self.n_vehicles = n_vehicles
        self.epochs = epochs
        self.script = traffic_script(seed, n_vehicles, epochs)
        self.workers = fleet_workers() if self.backend == "process" else 1
        self.config = FleetConfig(n_vehicles=n_vehicles, seed=seed,
                                  workers=self.workers, backend=self.backend,
                                  telemetry=True)
        self.setup_times: List[float] = []
        self.fleet: Optional[Fleet] = None
        self.worker_rss_kb = 0
        self.fingerprints: List[str] = []
        self.pin = (oracle.FLEET_PINS.get(seed)
                    if (n_vehicles, epochs) == (FLEET_VEHICLES,
                                                FLEET_EPOCHS) else None)
        self.last_round: Dict[str, float] = {}

    def prepare(self) -> None:
        self.close()
        gc.collect()
        t0 = _clock()
        self.fleet = Fleet(self.config, driver=ScriptedDriver(self.script))
        signer = BundleSigner(self.config.fleet_key)
        revisions = (DEFAULT_SACK_POLICY, REVISION_B)
        self.bundles = [make_bundle(v + 1, revisions[v % 2], signer=signer)
                        for v in range(len(STAGE_EPOCHS))]
        self.setup_times.append((_clock() - t0) / 1e9)

    def close(self) -> None:
        if self.fleet is not None:
            self.fleet.close()
            self.fleet = None
        # Fleet.close() terminates a worker that missed the stop request
        # without reaping it; leave no process behind.
        for proc in multiprocessing.active_children():
            proc.terminate()
            proc.join()

    def lsm_counters(self) -> Dict[str, int]:
        fleet = self.fleet
        return _lsm_counters(v.world.framework
                             for v in fleet.vehicles.values())

    def _round(self, result: RunResult, rec=None) -> None:
        """One round on the prepared fleet; checks it, then closes it."""
        fleet = self.fleet
        lat = result.lat_ns
        staged = 0
        workers = [p.pid for p in multiprocessing.active_children()]
        cpu0 = time.process_time_ns()
        wcpu0 = sum(_cpu_ns(pid) for pid in workers)
        try:
            if rec is not None:
                rec.begin()
            try:
                for epoch in range(self.epochs):
                    if rec is not None:
                        rec.current_op = epoch
                        span = rec.open("bench.op")
                    t0 = _clock()
                    if (staged < len(self.bundles)
                            and epoch >= STAGE_EPOCHS[staged]
                            and fleet.controller.state in (
                                RolloutState.IDLE, RolloutState.COMPLETE)):
                        fleet.stage_rollout(self.bundles[staged])
                        staged += 1
                    fleet.run_epoch()
                    lat.append(_clock() - t0)
                    if rec is not None:
                        rec.close(span)
            finally:
                if rec is not None:
                    rec.finish()
            self.last_round = {
                "epochs": self.epochs,
                "coordinator_cpu_ns": time.process_time_ns() - cpu0,
                "worker_cpu_ns": sum(_cpu_ns(pid) for pid in workers)
                - wcpu0,
            }
            self.worker_rss_kb = max(self.worker_rss_kb, sum(
                _status_kb(pid, "VmHWM:") for pid in workers))
            self.last_round["lsm"] = self.lsm_counters()
            report = fleet.report()
            self.last_round["transitions"] = report.total_transitions
            self.last_round["bus_copies"] = \
                report.bus_stats.get("copies_delivered", 0)
            problems = self._check(fleet, report, staged)
        except Exception as exc:  # any unexpected exception fails it
            problems = [f"{type(exc).__name__}: {exc}"]
        finally:
            self.close()
        result.ops += self.n_vehicles * self.epochs
        if problems:
            result.fail(self.n_vehicles * self.epochs,
                        f"{self.name} round: {'; '.join(problems)}")

    def _check(self, fleet, report, staged: int) -> List[str]:
        problems = []
        if not report.ok:
            problems.append(f"violations {report.violations[:3]}")
        if staged != len(self.bundles):
            problems.append(f"only {staged} bundles staged")
        ctl = fleet.controller
        if ctl.state is not RolloutState.COMPLETE \
                or ctl.committed_version != len(self.bundles):
            problems.append(f"rollout {ctl.state.value} at "
                            f"v{ctl.committed_version}")
        fingerprint = report.fingerprint()
        self.fingerprints.append(fingerprint)
        if self.pin is not None and fingerprint != self.pin:
            problems.append(f"fingerprint {fingerprint[:16]} != pin "
                            f"{self.pin[:16]}")
        if fingerprint != self.fingerprints[0]:
            problems.append("fingerprint differs between rounds")
        return problems

    def run(self, seconds: float = 0.0, budget: int = 0,
            rec=None) -> RunResult:
        """Rounds until *seconds* of epochs ran, or *budget* rounds.

        Only the epochs are timed, not set-up, report or close.
        """
        result = RunResult()
        rounds = 0
        while True:
            if self.fleet is None:
                self.prepare()
            self._round(result, rec)
            rounds += 1
            result.wall_ns = sum(result.lat_ns)
            if (rounds >= budget) if budget \
                    else (result.wall_ns >= seconds * 1e9):
                break
        result.attempted += result.ops
        return result

    def layer_extras(self, before: Dict[str, int]) -> Dict[str, float]:
        extras: Dict[str, float] = dict(self.last_round)
        after = extras.pop("lsm")
        extras.update({k: after[k] - before[k] for k in before})
        return extras

    def extra_rss_kb(self) -> int:
        return self.worker_rss_kb

    def finish_checks(self, result: RunResult) -> None:
        """Without a pin, the process backend must still reproduce the
        serial fingerprint: run one untimed serial reference round."""
        if self.pin is not None or self.backend == "serial" \
                or not self.fingerprints:
            return
        reference = FleetEpoch(self.seed, self.n_vehicles, self.epochs)
        reference.run(budget=1)
        result.attempted += 1
        if reference.fingerprints[:1] != self.fingerprints[:1]:
            result.fail(1, f"{self.name}: fingerprint differs from the "
                           f"serial backend's")


class FleetEpoch(FleetWorkload):
    name = "fleet-epoch"
    backend = "serial"


class FleetProcess(FleetWorkload):
    name = "fleet-process"
    backend = "process"


WORKLOADS = {cls.name: cls for cls in (IviSteady, SituationChurn,
                                       FleetEpoch, FleetProcess)}
