"""Fleet execution backends: where the vehicle kernels actually live.

The epoch-barrier scheduler (:class:`~repro.fleet.orchestrator.Fleet`)
never touches a vehicle object directly any more — every per-vehicle
effect goes through a **host**:

* :class:`InProcessHost` — the vehicles live in the coordinator's own
  process (the ``serial`` and ``threads`` backends).  Every method is
  the exact loop the orchestrator used to run inline, so serial runs
  are byte-identical to pre-backend builds.

* :class:`ProcessHost` — the ``process`` backend.  Vehicles are
  sharded across persistent worker processes (static ownership:
  ``index % workers``) connected by duplex pipes.  Within an epoch a
  vehicle is share-nothing; only canonical barrier messages (see
  :mod:`repro.fleet.wire`) cross the process boundary:

  - ``barrier_a``: online flags, driver actions, V2X deliveries →
    per-message reactions,
  - ``barrier_b``: rollout commands → acks + bundle versions,
  - ``tick``: the tick phase → exceptions, drained transitions,
    positions, health snapshots, optional telemetry frames,
  - ``checkpoint`` / ``restore`` / ``arm_fault`` / ``report`` / ``stop``.

  All seeded randomness stays where its RNG lives: the fleet plan and
  bus draw in the coordinator, each vehicle's own fault plan draws in
  its worker — so the global draw order of every RNG stream matches the
  serial backend and fleet fingerprints are bit-for-bit identical at
  any worker count (proven by ``tests/fleet/test_backend_conformance``).

The coordinator keeps per-vehicle mirrors (position, health, bundle
version, fresh transitions, telemetry frames) refreshed by each RPC, so
barrier logic — rollout gating, invariants I8/I9/I10, reporting — reads
local state and never blocks mid-phase.
"""

from __future__ import annotations

import multiprocessing
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from ..obs.telemetry import snapshot_frame
from . import wire
from .resilience import CheckpointStore, EpochRecord, replay_epoch
from .vehicle import FleetVehicle, apply_driver_action

#: Modelled virtual cost of one payload crossing a process boundary
#: (a delivered V2X copy, a rollout command, a telemetry frame).  The
#: process backend's barrier pays this on top of the per-vehicle serial
#: barrier cost — real parallel ticks are bought with real IPC.
IPC_COST_PER_CROSSING_NS = 100_000

#: What a pipe raises when the worker at its other end is gone.
_PIPE_LOST = (EOFError, ConnectionResetError, BrokenPipeError)


class WorkerLostError(RuntimeError):
    """A fleet worker process died: its pipe closed mid-RPC.

    Fails the epoch closed instead of surfacing a bare pipe error; the
    worker's vehicles are unreachable, so the fleet cannot continue.
    """

    def __init__(self, worker: int, op: str, exitcode: Optional[int]):
        super().__init__(f"fleet worker {worker} lost during {op!r} "
                         f"(exitcode {exitcode})")
        self.worker = worker
        self.op = op
        self.exitcode = exitcode


class InProcessHost:
    """Vehicles in the coordinator process (serial / threads backends)."""

    def __init__(self, fleet):
        self.fleet = fleet
        self._checkpoints = CheckpointStore()

    # -- lifecycle ---------------------------------------------------------
    def boot(self) -> Dict[str, Dict[str, object]]:
        fleet = self.fleet
        cfg = fleet.config
        for spec in fleet._vehicle_specs:
            vehicle = FleetVehicle(**spec)
            if cfg.start_moving:
                dyn = vehicle.world.dynamics
                dyn.start_engine()
                dyn.accelerate(cfg.cruise_accel_ms2)
            fleet.vehicles[vehicle.vehicle_id] = vehicle
        return {vid: fleet.vehicles[vid].health_snapshot()
                for vid in fleet.ids}

    def close(self) -> None:
        pass

    # -- barrier phases ----------------------------------------------------
    def set_online(self, flags: Dict[str, bool]) -> None:
        for vid, on in flags.items():
            self.fleet.vehicles[vid].online = on

    def apply_actions(self, actions: List[Tuple[str, str]]) -> None:
        cfg = self.fleet.config
        for vid, action in actions:
            apply_driver_action(self.fleet.vehicles[vid], action,
                                cfg.cruise_accel_ms2)

    def deliver(self, due: Dict[str, list]
                ) -> List[Tuple[str, object, str]]:
        out: List[Tuple[str, object, str]] = []
        for vid, messages in due.items():
            vehicle = self.fleet.vehicles.get(vid)
            if vehicle is None:
                continue
            for message in messages:
                out.append((vid, message, vehicle.deliver(message)))
        return out

    def apply_commands(self, commands: list, now_ns: int) -> list:
        fleet = self.fleet
        return [fleet.vehicles[c.vehicle_id].apply_bundle(
                    c.bundle, fleet.config.fleet_key, now_ns=now_ns)
                for c in commands]

    def tick(self, tickable: List[str],
             frame_spec: Optional[Tuple[int, int]] = None) -> None:
        fleet = self.fleet
        cfg = fleet.config
        sup = fleet.supervisor
        shards = [tickable[i::cfg.workers] for i in range(cfg.workers)]

        def run_shard(shard: List[str]) -> None:
            for vid in shard:
                vehicle = fleet.vehicles[vid]
                try:
                    for _ in range(cfg.epoch_ticks):
                        vehicle.tick(dt_s=cfg.dt_s)
                except Exception as exc:   # a vehicle kernel died mid-tick
                    sup.note_tick_exception(vid, exc)

        if cfg.backend == "threads" and cfg.workers > 1:
            with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
                list(pool.map(run_shard, shards))
        else:
            for shard in shards:
                run_shard(shard)

    # -- per-vehicle reads -------------------------------------------------
    def positions(self) -> Dict[str, float]:
        return {vid: self.fleet.vehicles[vid].position_km
                for vid in self.fleet.ids}

    def drain_transitions(self, vid: str) -> list:
        return self.fleet.vehicles[vid].drain_transitions()

    def health_snapshot(self, vid: str) -> Dict[str, object]:
        return self.fleet.vehicles[vid].health_snapshot()

    def bundle_version(self, vid: str):
        return self.fleet.vehicles[vid].bundle_version

    def telemetry_frame(self, vid: str, epoch: int, at_ns: int):
        return snapshot_frame(self.fleet.vehicles[vid].world.kernel.obs,
                              vid, epoch, at_ns)

    def report_rows(self) -> Dict[str, Dict[str, object]]:
        rows: Dict[str, Dict[str, object]] = {}
        for vid in self.fleet.ids:
            vehicle = self.fleet.vehicles[vid]
            vehicle.drain_transitions()     # flush stragglers
            rows[vid] = {
                "transitions": list(vehicle.transition_log),
                "metrics": vehicle.world.kernel.obs.metrics.to_dict(),
                "situation": vehicle.situation or "",
                "bundle_version": vehicle.bundle_version,
                "apply_log": list(vehicle.apply_log),
            }
        return rows

    # -- faults ------------------------------------------------------------
    def arm_fault(self, vid: str, point: str,
                  knobs: Dict[str, object]) -> None:
        from ..faults.plan import FaultPlan
        vehicle = self.fleet.vehicles[vid]
        if vehicle.fault_plan is None:
            vehicle.fault_plan = FaultPlan(vehicle.seed)
        vehicle.fault_plan.arm(point, **knobs)

    # -- checkpoint custody ------------------------------------------------
    @property
    def checkpoints_taken(self) -> int:
        return self._checkpoints.taken

    def checkpoint_take(self, vid: str, epoch: int) -> str:
        return self._checkpoints.take(self.fleet.vehicles[vid],
                                      epoch).digest

    def checkpoint_meta(self, vid: str) -> Optional[Tuple[int, str]]:
        ckpt = self._checkpoints.get(vid)
        if ckpt is None:
            return None
        return ckpt.epoch, ckpt.digest

    def checkpoint_rows(self) -> List[Dict[str, object]]:
        return self._checkpoints.to_rows()

    def restore_vehicle(self, vid: str, full_records: List[EpochRecord],
                        barrier_record: Optional[EpochRecord],
                        baseline_epoch: int) -> Dict[str, object]:
        fleet = self.fleet
        cfg = fleet.config
        restored = self._checkpoints.materialize(vid)
        replayed = 0
        for record in full_records:
            replay_epoch(restored, record, cfg.epoch_ticks, cfg.dt_s,
                         cfg.fleet_key, cfg.cruise_accel_ms2,
                         with_ticks=True)
            replayed += 1
        if barrier_record is not None:
            replay_epoch(restored, barrier_record, cfg.epoch_ticks,
                         cfg.dt_s, cfg.fleet_key, cfg.cruise_accel_ms2,
                         with_ticks=False)
            replayed += 1
        wreck_digest = fleet.vehicles[vid].state_digest()
        restored_digest = restored.state_digest()
        fleet.vehicles[vid] = restored
        restored.online = True
        self._checkpoints.take(restored, baseline_epoch)
        return {
            "wreck_digest": wreck_digest,
            "restored_digest": restored_digest,
            "replayed": replayed,
            "health": restored.health_snapshot(),
            "position": restored.position_km,
            "situation": restored.situation or "",
            "bundle_version": restored.bundle_version,
        }

    def drain_crossings(self) -> int:
        return 0


# -- the process backend -------------------------------------------------------

def _fork_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:          # non-POSIX fallback; still correct
        return multiprocessing.get_context()


class ProcessHost:
    """Vehicles sharded across persistent worker processes.

    Static ownership — vehicle ``index % workers`` — so a vehicle's
    whole life (build, ticks, bundle applies, checkpoints, restores)
    happens in one worker and nothing ever migrates.  The coordinator
    ships only wire-canonical barrier payloads and keeps read mirrors;
    each mirror is refreshed by the RPC whose phase could change it.
    """

    def __init__(self, fleet):
        self.fleet = fleet
        self._workers: List[multiprocessing.Process] = []
        self._conns: List[Any] = []
        self._owner: Dict[str, int] = {}
        self._pending_flags: Dict[str, bool] = {}
        self._pending_actions: List[Tuple[str, str]] = []
        # Coordinator mirrors (refreshed per RPC).
        self._positions: Dict[str, float] = {}
        self._health: Dict[str, Dict[str, object]] = {}
        self._versions: Dict[str, object] = {}
        self._fresh_transitions: Dict[str, list] = {}
        self._frames: Dict[str, object] = {}
        self._ckpt_meta: Dict[str, Tuple[int, str]] = {}
        self.checkpoints_taken = 0
        self._crossings = 0
        self._closed = False

    # -- lifecycle ---------------------------------------------------------
    def boot(self) -> Dict[str, Dict[str, object]]:
        fleet = self.fleet
        cfg = fleet.config
        ctx = _fork_context()
        owned: List[List[Dict[str, object]]] = \
            [[] for _ in range(cfg.workers)]
        for index, spec in enumerate(fleet._vehicle_specs):
            owner = index % cfg.workers
            owned[owner].append(spec)
            self._owner[spec["vehicle_id"]] = owner
        init_config = {
            "start_moving": cfg.start_moving,
            "cruise_accel_ms2": cfg.cruise_accel_ms2,
            "epoch_ticks": cfg.epoch_ticks,
            "dt_s": cfg.dt_s,
            "fleet_key": cfg.fleet_key,
        }
        for w in range(cfg.workers):
            parent, child = ctx.Pipe(duplex=True)
            proc = ctx.Process(target=_worker_main, args=(child,),
                               daemon=True, name=f"fleet-worker-{w}")
            proc.start()
            child.close()
            self._conns.append(parent)
            self._workers.append(proc)
        replies = self._rpc_all("init", {
            w: {"specs": owned[w], "config": init_config}
            for w in range(cfg.workers)})
        health: Dict[str, Dict[str, object]] = {}
        for reply in replies.values():
            for vid, snap in reply["health"].items():
                health[vid] = wire.decode_health(snap)
            self._positions.update(reply["positions"])
        for vid in fleet.ids:
            self._versions[vid] = None
            self._health[vid] = health[vid]
        return {vid: health[vid] for vid in fleet.ids}

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("stop", None))
            except (BrokenPipeError, OSError):
                pass
        for conn in self._conns:
            try:
                conn.recv()
            except (EOFError, BrokenPipeError, OSError):
                pass
            conn.close()
        for proc in self._workers:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)

    # -- RPC plumbing ------------------------------------------------------
    def _rpc_all(self, op: str, payloads: Dict[int, object]
                 ) -> Dict[int, Any]:
        if self._closed:
            raise RuntimeError("fleet process backend already closed")
        for w, payload in payloads.items():
            try:
                self._conns[w].send((op, payload))
            except _PIPE_LOST as exc:
                raise self._lost(w, op) from exc
        replies: Dict[int, Any] = {}
        for w in payloads:
            try:
                status, data = self._conns[w].recv()
            except _PIPE_LOST as exc:
                raise self._lost(w, op) from exc
            if status != "ok":
                raise RuntimeError(
                    f"fleet worker {w} failed during {op!r}:\n{data}")
            replies[w] = data
        return replies

    def _lost(self, w: int, op: str) -> WorkerLostError:
        proc = self._workers[w]
        proc.join(timeout=1)    # reap it, so exitcode names the signal
        return WorkerLostError(w, op, proc.exitcode)

    def _rpc_one(self, vid: str, op: str, payload: object) -> Any:
        w = self._owner[vid]
        return self._rpc_all(op, {w: payload})[w]

    # -- barrier phases ----------------------------------------------------
    def set_online(self, flags: Dict[str, bool]) -> None:
        self._pending_flags.update(flags)

    def apply_actions(self, actions: List[Tuple[str, str]]) -> None:
        self._pending_actions.extend(actions)

    def deliver(self, due: Dict[str, list]
                ) -> List[Tuple[str, object, str]]:
        workers = range(self.fleet.config.workers)
        per: Dict[int, Dict[str, object]] = {
            w: {"flags": {}, "actions": [], "deliveries": []}
            for w in workers}
        for vid, on in self._pending_flags.items():
            per[self._owner[vid]]["flags"][vid] = on
        for vid, action in self._pending_actions:
            per[self._owner[vid]]["actions"].append([vid, action])
        for vid, messages in due.items():
            owner = self._owner.get(vid)
            if owner is None:
                continue
            per[owner]["deliveries"].append(
                [vid, [wire.encode_message(m) for m in messages]])
            self._crossings += len(messages)
        self._pending_flags = {}
        self._pending_actions = []
        replies = self._rpc_all("barrier_a", per)
        reactions: Dict[str, List[str]] = {}
        for reply in replies.values():
            for vid, rs in reply["reactions"]:
                reactions[vid] = rs
        out: List[Tuple[str, object, str]] = []
        for vid, messages in due.items():
            for message, reaction in zip(messages,
                                         reactions.get(vid, ())):
                out.append((vid, message, reaction))
        return out

    def apply_commands(self, commands: list, now_ns: int) -> list:
        if not commands:
            return []
        workers = range(self.fleet.config.workers)
        per: Dict[int, Dict[str, object]] = {
            w: {"commands": [], "now_ns": now_ns} for w in workers}
        for idx, command in enumerate(commands):
            per[self._owner[command.vehicle_id]]["commands"].append(
                [idx, command.vehicle_id,
                 wire.encode_bundle(command.bundle)])
            self._crossings += 1
        replies = self._rpc_all(
            "barrier_b",
            {w: payload for w, payload in per.items()
             if payload["commands"]})
        acks_by_idx: Dict[int, object] = {}
        for reply in replies.values():
            for idx, ackdoc in reply["acks"]:
                acks_by_idx[idx] = wire.decode_ack(ackdoc)
            self._versions.update(reply["bundle_versions"])
        return [acks_by_idx[idx] for idx in range(len(commands))]

    def tick(self, tickable: List[str],
             frame_spec: Optional[Tuple[int, int]] = None) -> None:
        fleet = self.fleet
        cfg = fleet.config
        sup = fleet.supervisor
        drain = [vid for vid in fleet.ids if not sup.is_dead(vid)]
        per: Dict[int, Dict[str, object]] = {
            w: {"tickable": [], "drain": [],
                "epoch_ticks": cfg.epoch_ticks, "dt_s": cfg.dt_s,
                "frame": list(frame_spec) if frame_spec else None}
            for w in range(cfg.workers)}
        for vid in tickable:
            per[self._owner[vid]]["tickable"].append(vid)
        for vid in drain:
            per[self._owner[vid]]["drain"].append(vid)
        self._fresh_transitions = {}
        self._frames = {}
        replies = self._rpc_all("tick", per)
        failures: Dict[str, str] = {}
        for reply in replies.values():
            failures.update(reply["exceptions"])
            self._positions.update(reply["positions"])
            for vid, doc in reply["transitions"].items():
                self._fresh_transitions[vid] = \
                    wire.decode_transitions(doc)
            for vid, snap in reply["health"].items():
                self._health[vid] = wire.decode_health(snap)
            for framedoc in reply["frames"]:
                frame = wire.decode_frame(framedoc)
                self._frames[frame.vehicle_id] = frame
                self._crossings += 1
        for vid in sorted(failures):
            sup.note_tick_failure(vid, failures[vid])

    # -- per-vehicle reads (mirrors) ---------------------------------------
    def positions(self) -> Dict[str, float]:
        return {vid: self._positions[vid] for vid in self.fleet.ids}

    def drain_transitions(self, vid: str) -> list:
        return self._fresh_transitions.pop(vid, [])

    def health_snapshot(self, vid: str) -> Dict[str, object]:
        return self._health[vid]

    def bundle_version(self, vid: str):
        return self._versions[vid]

    def telemetry_frame(self, vid: str, epoch: int, at_ns: int):
        return self._frames.get(vid)

    def report_rows(self) -> Dict[str, Dict[str, object]]:
        replies = self._rpc_all(
            "report", {w: None for w in range(self.fleet.config.workers)})
        rows: Dict[str, Dict[str, object]] = {}
        for reply in replies.values():
            for vid, row in reply.items():
                rows[vid] = {
                    "transitions": wire.decode_transitions(
                        row["transitions"]),
                    "metrics": row["metrics"],
                    "situation": row["situation"],
                    "bundle_version": row["bundle_version"],
                    "apply_log": [tuple(entry)
                                  for entry in row["apply_log"]],
                }
        return rows

    # -- faults ------------------------------------------------------------
    def arm_fault(self, vid: str, point: str,
                  knobs: Dict[str, object]) -> None:
        self._rpc_one(vid, "arm_fault",
                      {"vid": vid, "point": point, "knobs": knobs})

    # -- checkpoint custody ------------------------------------------------
    def checkpoint_take(self, vid: str, epoch: int) -> str:
        reply = self._rpc_one(vid, "checkpoint",
                              {"vid": vid, "epoch": epoch})
        self._ckpt_meta[vid] = (epoch, reply["digest"])
        self.checkpoints_taken += 1
        return reply["digest"]

    def checkpoint_meta(self, vid: str) -> Optional[Tuple[int, str]]:
        return self._ckpt_meta.get(vid)

    def checkpoint_rows(self) -> List[Dict[str, object]]:
        return [{"vehicle": vid, "epoch": meta[0], "digest": meta[1]}
                for vid, meta in sorted(self._ckpt_meta.items())]

    def restore_vehicle(self, vid: str, full_records: List[EpochRecord],
                        barrier_record: Optional[EpochRecord],
                        baseline_epoch: int) -> Dict[str, object]:
        reply = self._rpc_one(vid, "restore", {
            "vid": vid,
            "full": [wire.encode_record(r) for r in full_records],
            "barrier": wire.encode_record(barrier_record)
            if barrier_record is not None else None,
            "baseline_epoch": baseline_epoch,
        })
        result = {
            "wreck_digest": reply["wreck_digest"],
            "restored_digest": reply["restored_digest"],
            "replayed": reply["replayed"],
            "health": wire.decode_health(reply["health"]),
            "position": reply["position"],
            "situation": reply["situation"],
            "bundle_version": reply["bundle_version"],
        }
        self._positions[vid] = result["position"]
        self._health[vid] = result["health"]
        self._versions[vid] = result["bundle_version"]
        self._ckpt_meta[vid] = (baseline_epoch, reply["baseline_digest"])
        self.checkpoints_taken += 1
        return result

    # -- cost model --------------------------------------------------------
    def drain_crossings(self) -> int:
        crossings = self._crossings
        self._crossings = 0
        return crossings


# -- the worker process --------------------------------------------------------

def _worker_main(conn) -> None:
    """One fleet worker: builds its vehicles from deterministic ctor
    specs and serves barrier RPCs until told to stop.  Everything it
    sends back is wire-canonical (or raw metric primitives); everything
    nondeterministic it could touch — wall clock, pids — never enters a
    reply payload."""
    vehicles: Dict[str, FleetVehicle] = {}
    checkpoints = CheckpointStore()
    config: Dict[str, Any] = {}
    while True:
        try:
            op, payload = conn.recv()
        except (EOFError, KeyboardInterrupt):
            return
        try:
            if op == "stop":
                conn.send(("ok", None))
                return
            conn.send(("ok", _worker_dispatch(
                op, payload, vehicles, checkpoints, config)))
        except Exception:
            try:
                conn.send(("error", traceback.format_exc()))
            except (BrokenPipeError, OSError):
                return


def _worker_dispatch(op: str, payload, vehicles: Dict[str, FleetVehicle],
                     checkpoints: CheckpointStore,
                     config: Dict[str, Any]):
    if op == "init":
        config.update(payload["config"])
        health: Dict[str, object] = {}
        positions: Dict[str, float] = {}
        for spec in payload["specs"]:
            vehicle = FleetVehicle(**spec)
            if config["start_moving"]:
                dyn = vehicle.world.dynamics
                dyn.start_engine()
                dyn.accelerate(config["cruise_accel_ms2"])
            vehicles[vehicle.vehicle_id] = vehicle
            health[vehicle.vehicle_id] = \
                wire.encode_health(vehicle.health_snapshot())
            positions[vehicle.vehicle_id] = vehicle.position_km
        return {"health": health, "positions": positions}

    if op == "barrier_a":
        for vid in sorted(payload["flags"]):
            vehicles[vid].online = payload["flags"][vid]
        for vid, action in payload["actions"]:
            apply_driver_action(vehicles[vid], action,
                                config["cruise_accel_ms2"])
        reactions: List[list] = []
        for vid, msgdocs in payload["deliveries"]:
            vehicle = vehicles[vid]
            reactions.append([vid, [
                vehicle.deliver(wire.decode_message(doc))
                for doc in msgdocs]])
        return {"reactions": reactions}

    if op == "barrier_b":
        acks: List[list] = []
        versions: Dict[str, object] = {}
        for idx, vid, bundledoc in payload["commands"]:
            ack = vehicles[vid].apply_bundle(
                wire.decode_bundle(bundledoc), config["fleet_key"],
                now_ns=payload["now_ns"])
            acks.append([idx, wire.encode_ack(ack)])
            versions[vid] = vehicles[vid].bundle_version
        return {"acks": acks, "bundle_versions": versions}

    if op == "tick":
        exceptions: Dict[str, str] = {}
        for vid in payload["tickable"]:
            vehicle = vehicles[vid]
            try:
                for _ in range(payload["epoch_ticks"]):
                    vehicle.tick(dt_s=payload["dt_s"])
            except Exception as exc:
                exceptions[vid] = f"{type(exc).__name__}: {exc}"
        transitions: Dict[str, object] = {}
        health: Dict[str, object] = {}
        positions: Dict[str, float] = {}
        frames: List[object] = []
        frame_spec = payload["frame"]
        for vid in payload["drain"]:
            if vid in exceptions:
                continue        # serial leaves a wreck undrained too
            vehicle = vehicles[vid]
            fresh = vehicle.drain_transitions()
            if fresh:
                transitions[vid] = wire.encode_transitions(fresh)
            health[vid] = wire.encode_health(vehicle.health_snapshot())
            positions[vid] = vehicle.position_km
            if frame_spec is not None:
                frames.append(wire.encode_frame(snapshot_frame(
                    vehicle.world.kernel.obs, vid,
                    frame_spec[0], frame_spec[1])))
        return {"exceptions": exceptions, "transitions": transitions,
                "health": health, "positions": positions,
                "frames": frames}

    if op == "checkpoint":
        vid = payload["vid"]
        return {"digest": checkpoints.take(vehicles[vid],
                                           payload["epoch"]).digest}

    if op == "restore":
        vid = payload["vid"]
        restored = checkpoints.materialize(vid)
        replayed = 0
        for doc in payload["full"]:
            replay_epoch(restored, wire.decode_record(doc),
                         config["epoch_ticks"], config["dt_s"],
                         config["fleet_key"],
                         config["cruise_accel_ms2"], with_ticks=True)
            replayed += 1
        if payload["barrier"] is not None:
            replay_epoch(restored, wire.decode_record(payload["barrier"]),
                         config["epoch_ticks"], config["dt_s"],
                         config["fleet_key"],
                         config["cruise_accel_ms2"], with_ticks=False)
            replayed += 1
        wreck_digest = vehicles[vid].state_digest()
        restored_digest = restored.state_digest()
        vehicles[vid] = restored
        restored.online = True
        baseline = checkpoints.take(restored, payload["baseline_epoch"])
        return {
            "wreck_digest": wreck_digest,
            "restored_digest": restored_digest,
            "replayed": replayed,
            "health": wire.encode_health(restored.health_snapshot()),
            "position": restored.position_km,
            "situation": restored.situation or "",
            "bundle_version": restored.bundle_version,
            "baseline_digest": baseline.digest,
        }

    if op == "arm_fault":
        from ..faults.plan import FaultPlan
        vehicle = vehicles[payload["vid"]]
        if vehicle.fault_plan is None:
            vehicle.fault_plan = FaultPlan(vehicle.seed)
        vehicle.fault_plan.arm(payload["point"], **payload["knobs"])
        return None

    if op == "report":
        rows: Dict[str, Dict[str, object]] = {}
        for vid in sorted(vehicles):
            vehicle = vehicles[vid]
            vehicle.drain_transitions()     # flush stragglers
            rows[vid] = {
                "transitions": wire.encode_transitions(
                    vehicle.transition_log),
                "metrics": vehicle.world.kernel.obs.metrics.to_dict(),
                "situation": vehicle.situation or "",
                "bundle_version": vehicle.bundle_version,
                "apply_log": [list(entry)
                              for entry in vehicle.apply_log],
            }
        return rows

    raise ValueError(f"unknown fleet worker op {op!r}")


def create_host(fleet):
    """The host for ``fleet.config.backend``."""
    if fleet.config.backend == "process":
        return ProcessHost(fleet)
    return InProcessHost(fleet)
