"""Span recorder for the traced run, and the probes it installs.

The probes wrap the entry points of each layer of ``repro`` with spans
recorded here, in the benchmark's own files; the program is not edited.
Timed runs install nothing.  A span records its name, start, end, parent
span and the id of the benchmark operation it belongs to; spans stay in
memory (flat arrays) and are written out when the run ends.

A layer's self time is the time its spans cover minus the time their
child spans cover, so the self times of all layers add up to the root
span, which covers the traced pass.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Layers, in report order.  A span's layer is its name up to the first dot.
LAYERS = ("kernel", "lsm", "sack", "apparmor", "sds", "vehicle", "fleet",
          "obs", "verify", "bench")

#: Largest allowed |sum of layer self times / traced wall - 1|.
COVERAGE_TOLERANCE = 0.01


class SpanRecorder:
    """Flat, append-only span store with an open-span stack."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.op = array("q")
        #: Open spans; the -1 sentinel is the parent of every root span.
        self.stack: List[int] = [-1]
        self.current_op = -1
        self.counts: Counter = Counter()
        self.active = False
        #: Wall time of the recorded passes, timed outside the spans.
        self.wall_ns = 0
        self._began = 0
        self._root = -1

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        index = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op)
        self.end.append(0)
        self.stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        if self.stack.pop() != index:
            raise RuntimeError(f"span {self.names[self.name[index]]!r} "
                               "closed out of order")

    def begin(self) -> None:
        """Start a traced pass under a root span (layer ``bench``)."""
        self._began = time.perf_counter_ns()
        self.active = True
        self._root = self.open("bench.run")

    def finish(self) -> None:
        self.close(self._root)
        self.active = False
        self.wall_ns += time.perf_counter_ns() - self._began

    def __len__(self) -> int:
        return len(self.start)

    def dump(self, path: str) -> None:
        """Write every span as CSV: id,parent,op,name,start_ns,end_ns."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("id,parent,op,name,start_ns,end_ns\n")
            names = self.names
            for i in range(len(self.start)):
                out.write(f"{i},{self.parent[i]},{self.op[i]},"
                          f"{names[self.name[i]]},{self.start[i]},"
                          f"{self.end[i]}\n")


def self_times(parents: Sequence[int], starts: Sequence[int],
               ends: Sequence[int]) -> List[int]:
    """Each span's duration minus the time its children cover.

    Children are clipped to their parent and overlapping children are
    merged, so the result is right for any tree, not only for the
    strictly nested one a single thread produces.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append((starts[i], ends[i]))
    out = []
    for i in range(len(starts)):
        lo, hi = starts[i], ends[i]
        covered = 0
        kids = children.get(i)
        if kids:
            kids.sort()
            run_lo = run_hi = None
            for s, e in kids:
                s, e = max(s, lo), min(e, hi)
                if e <= s:
                    continue
                if run_hi is None or s > run_hi:
                    if run_hi is not None:
                        covered += run_hi - run_lo
                    run_lo, run_hi = s, e
                elif e > run_hi:
                    run_hi = e
            if run_hi is not None:
                covered += run_hi - run_lo
        out.append(hi - lo - covered)
    return out


class SpanStats:
    """Per-name count, inclusive and self nanoseconds of a recording."""

    def __init__(self, rec: SpanRecorder):
        selfs = self_times(rec.parent, rec.start, rec.end)
        self.count: Counter = Counter()
        self.incl: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.layer_self_ns: Counter = Counter()
        names = rec.names
        for i, nid in enumerate(rec.name):
            name = names[nid]
            self.count[name] += 1
            self.incl[name] += rec.end[i] - rec.start[i]
            self.self_ns[name] += selfs[i]
            self.layer_self_ns[name.split(".", 1)[0]] += selfs[i]
        # Bridged situation changes: profile replaces made directly under
        # an SSM transition span.
        ssm_id = rec._name_ids.get("sack.ssm")
        replace_id = rec._name_ids.get("apparmor.replace")
        under: Counter = Counter()
        if ssm_id is not None and replace_id is not None:
            for i, nid in enumerate(rec.name):
                p = rec.parent[i]
                if nid == replace_id and p >= 0 and rec.name[p] == ssm_id:
                    under[p] += 1
        self.bridged_changes = len(under)
        self.bridged_replaces = sum(under.values())

    def prefix(self, table: Counter, prefix: str) -> int:
        return sum(v for k, v in table.items() if k.startswith(prefix))


# -- probes ------------------------------------------------------------------

def _span_probe(rec: SpanRecorder, fn: Callable, span: str,
                on_result: Optional[Callable] = None) -> Callable:
    # SpanRecorder.open/close, inlined: probes sit on paths called a
    # million times a run, and every call they add is trace overhead.
    nid = rec.name_id(span)
    names, parents, starts, ends, ops = (rec.name, rec.parent, rec.start,
                                         rec.end, rec.op)
    stack = rec.stack
    clock = time.perf_counter_ns

    @functools.wraps(fn)
    def probe(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        index = len(starts)
        names.append(nid)
        parents.append(stack[-1])
        ops.append(rec.current_op)
        ends.append(0)
        stack.append(index)
        starts.append(clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[index] = clock()
            stack.pop()
        if on_result is not None:
            on_result(args, result)
        return result
    return probe


def _count_probe(rec: SpanRecorder, fn: Callable, key: str) -> Callable:
    counts = rec.counts

    @functools.wraps(fn)
    def probe(*args, **kwargs):
        if rec.active:
            counts[key] += 1
        return fn(*args, **kwargs)
    return probe


def _probe_plan() -> List[Tuple[object, Iterable[str], str, str]]:
    """(owner, attribute names, span name or count key, kind) rows.

    ``{}`` in a span name stands for the attribute name.  *kind* is ``span``, ``count``, ``hook`` (a span that also counts
    non-capability denials), or ``ssm`` (a span that also counts
    committed transitions).  Imports stay inside so that loading this
    module touches nothing of the program.
    """
    from repro.apparmor.module import AppArmorLsm
    from repro.apparmor.policydb import PolicyDb
    from repro.fleet import backend
    from repro.fleet.orchestrator import Fleet
    from repro.fleet.resilience import VehicleSupervisor
    from repro.fleet.vehicle import FleetVehicle
    from repro.kernel.security import SecurityHooks
    from repro.kernel.syscalls import Kernel
    from repro.lsm.framework import LsmFramework
    from repro.lsm.module import LsmModule
    from repro.obs.metrics import MetricsRegistry
    from repro.sack.apparmor_bridge import SackAppArmorBridge
    from repro.sack.module import SackLsm
    from repro.sack.sackfs import SackFs
    from repro.sack.ssm import SituationStateMachine
    from repro.sds.service import SituationDetectionService
    from repro.vehicle.dynamics import VehicleDynamics
    from repro.vehicle.ivi import IviWorld
    from repro.verify.gate import ProofGate

    hooks = [n for n in vars(SecurityHooks)
             if not n.startswith("_") and callable(getattr(SecurityHooks, n))]

    def own_hooks(cls):
        return [n for n in hooks if n in vars(cls)
                and vars(cls)[n] is not getattr(LsmModule, n, None)]

    host_calls = ("set_online", "apply_actions", "deliver", "apply_commands",
                  "tick", "positions", "drain_transitions", "health_snapshot",
                  "bundle_version", "telemetry_frame", "report_rows")
    return [
        (Kernel, [n for n in vars(Kernel) if n.startswith("sys_")],
         "kernel.{}", "span"),
        (LsmFramework, [n for n in hooks if n in vars(LsmFramework)],
         "lsm.hook", "hook"),
        (LsmFramework, ["_dispatch_int"], "lsm.walk", "count"),
        (LsmFramework, ["rebuild_dtable"], "lsm.dtable_build", "span"),
        (SackLsm, own_hooks(SackLsm), "sack.check", "span"),
        (SackFs, ["_write_events"], "sack.event_write", "span"),
        (SituationStateMachine, ["process_event"], "sack.ssm", "ssm"),
        (SackLsm, ["load_policy"], "sack.policy_load", "span"),
        (SackAppArmorBridge, ["load_policy"], "sack.policy_load", "span"),
        (AppArmorLsm, own_hooks(AppArmorLsm), "apparmor.check", "span"),
        (PolicyDb, ["replace_profile"], "apparmor.replace", "span"),
        (SituationDetectionService, ["run"], "sds.run", "span"),
        (SituationDetectionService, ["poll"], "sds.poll", "span"),
        (SituationDetectionService, ["send_event"], "sds.send", "span"),
        (IviWorld, ["run_sds"], "vehicle.run_sds", "span"),
        (VehicleDynamics, ["step"], "vehicle.dynamics", "span"),
        (Fleet, ["run_epoch"], "fleet.epoch", "span"),
        (Fleet, ["_tick_vehicles"], "fleet.tick", "span"),
        (Fleet, ["_collect_health"], "fleet.health_poll", "span"),
        (Fleet, ["_telemetry_step"], "fleet.telemetry", "span"),
        (Fleet, ["_deliver_bus", "_publish_transitions"], "fleet.bus",
         "span"),
        (Fleet, ["_dispatch_rollout"], "fleet.rollout", "span"),
        (Fleet, ["stage_rollout"], "fleet.stage", "span"),
        (VehicleSupervisor, ["begin_epoch", "absorb_tick_crashes",
                             "note_slo_alerts", "check_invariants",
                             "end_epoch"], "fleet.supervisor", "span"),
        (FleetVehicle, ["tick"], "fleet.vehicle_tick", "span"),
        (backend.InProcessHost, host_calls, "fleet.host", "span"),
        (backend.ProcessHost, host_calls, "fleet.host", "span"),
        (MetricsRegistry, ["to_dict"], "obs.metrics_export", "span"),
        (backend, ["snapshot_frame"], "obs.telemetry_frame", "span"),
        (ProofGate, ["evaluate_policy"], "verify.gate", "span"),
    ]


def install(rec: SpanRecorder) -> Callable[[], None]:
    """Wrap every probed entry point; returns the function that undoes it.

    Install before building the objects to trace: the LSM framework and
    SACKfs capture bound methods when they are constructed.  Forked fleet
    workers inherit the probes, but record nothing.
    """
    undo: List[Tuple[object, str, object]] = []

    def count_denial(args, rc):
        if rc:
            rec.counts["lsm.denials"] += 1

    def count_transition(args, result):
        if result is not None:
            rec.counts["sack.transitions"] += 1

    for owner, attrs, label, kind in _probe_plan():
        for attr in attrs:
            original = vars(owner)[attr]
            if kind == "count":
                wrapped = _count_probe(rec, original, label)
            elif kind == "hook" and attr == "capable":
                # Capability probes are DAC fallbacks, never audited: a
                # nonzero return there is normal operation, not a denial.
                wrapped = _span_probe(rec, original, label)
            else:
                on_result = {"hook": count_denial,
                             "ssm": count_transition}.get(kind)
                wrapped = _span_probe(rec, original, label.format(attr),
                                      on_result)
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, original))
    os.register_at_fork(after_in_child=lambda: setattr(rec, "active",
                                                       False))

    def uninstall() -> None:
        rec.active = False
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return uninstall


def layer_metrics(rec: SpanRecorder, ops: int,
                  extras: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass of *ops* operations.

    *extras* carries what the workload measured outside the spans: AVC
    and decision-table counter deltas, fleet epochs, CPU times and report
    totals.
    """
    st = SpanStats(rec)
    cnt, incl, slf = st.count, st.incl, st.self_ns
    ops = max(ops, 1)
    epochs = int(extras.get("epochs", 0))

    def per(total, n, scale=1.0):
        return total / n / scale if n else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    avc_lookups = extras["avc_hits"] + extras["avc_misses"]
    dt_lookups = extras["dtable_hits"] + extras["dtable_misses"]
    total_self = sum(st.layer_self_ns.values())
    m = {
        "kernel.syscall_self_us": st.prefix(slf, "kernel.") / ops / 1e3,
        "kernel.syscalls_per_op": st.prefix(cnt, "kernel.") / ops,
        "lsm.dispatch_self_ns": per(slf["lsm.hook"], cnt["lsm.hook"]),
        "lsm.hook_calls_per_op": cnt["lsm.hook"] / ops,
        "lsm.module_walks_per_op": rec.counts["lsm.walk"] / ops,
        "lsm.avc_hit_ratio": ratio(extras["avc_hits"], avc_lookups),
        "lsm.dtable_hit_ratio": ratio(extras["dtable_hits"], dt_lookups),
        "lsm.dtable_builds": extras["dtable_builds"],
        "lsm.avc_invalidations": extras["avc_invalidations"],
        "lsm.denials_per_1k_ops": rec.counts["lsm.denials"] * 1000 / ops,
        "sack.check_ns": per(incl["sack.check"], cnt["sack.check"]),
        "sack.event_write_us": per(slf["sack.event_write"],
                                   cnt["sack.event_write"], 1e3),
        "sack.ssm_transition_us": per(incl["sack.ssm"], cnt["sack.ssm"],
                                      1e3),
        "sack.policy_load_ms": per(incl["sack.policy_load"],
                                   cnt["sack.policy_load"], 1e6),
        "sack.useful_event_ratio": ratio(rec.counts["sack.transitions"],
                                         cnt["sack.ssm"]),
        "apparmor.check_ns": per(incl["apparmor.check"],
                                 cnt["apparmor.check"]),
        "apparmor.profile_replace_us": per(incl["apparmor.replace"],
                                           cnt["apparmor.replace"], 1e3),
        "apparmor.profiles_replaced_per_change": ratio(
            st.bridged_replaces, st.bridged_changes),
        "sds.poll_self_us": per(slf["sds.poll"], cnt["sds.poll"], 1e3),
        "sds.polls_per_op": cnt["sds.poll"] / ops,
        "sds.event_writes_per_op": cnt["sds.send"] / ops,
        "vehicle.dynamics_step_us": per(incl["vehicle.dynamics"],
                                        cnt["vehicle.dynamics"], 1e3),
        "fleet.epoch_ms": per(incl["fleet.epoch"], epochs, 1e6),
        "fleet.tick_ms": per(incl["fleet.tick"], epochs, 1e6),
        "fleet.health_poll_ms": per(incl["fleet.health_poll"], epochs, 1e6),
        "fleet.telemetry_ms": per(incl["fleet.telemetry"], epochs, 1e6),
        "fleet.bus_ms": per(incl["fleet.bus"], epochs, 1e6),
        "fleet.rollout_ms": per(incl["fleet.rollout"], epochs, 1e6),
        "fleet.supervisor_ms": per(incl["fleet.supervisor"], epochs, 1e6),
        "fleet.barrier_self_ms": per(slf["fleet.epoch"], epochs, 1e6),
        "fleet.host_calls_per_epoch": per(cnt["fleet.host"], epochs),
        "fleet.coordinator_cpu_ms": per(extras.get("coordinator_cpu_ns", 0),
                                        epochs, 1e6),
        "fleet.worker_cpu_ms": per(extras.get("worker_cpu_ns", 0), epochs,
                                   1e6),
        "fleet.transitions_per_epoch": per(extras.get("transitions", 0),
                                           epochs),
        "fleet.bus_copies_per_epoch": per(extras.get("bus_copies", 0),
                                          epochs),
        "obs.metrics_export_calls_per_epoch": per(cnt["obs.metrics_export"],
                                                  epochs),
        "obs.metrics_export_ms": per(incl["obs.metrics_export"], epochs,
                                     1e6),
        "obs.telemetry_frame_ms": per(incl["obs.telemetry_frame"], epochs,
                                      1e6),
        "verify.gate_evaluations": cnt["verify.gate"],
        "verify.gate_ms": per(incl["verify.gate"], cnt["verify.gate"], 1e6),
        "bench.self_time_coverage": ratio(total_self, rec.wall_ns),
    }
    for layer in LAYERS:
        m[f"share.{layer}_pct"] = ratio(st.layer_self_ns[layer],
                                        total_self) * 100
    return m
