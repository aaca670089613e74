"""The observability hub: one per kernel, owning trace/audit/metrics.

``kernel.obs`` is the single attachment point the other layers use:

* the syscall layer fires ``syscalls:*`` tracepoints and (when syscall
  instrumentation is on) feeds the syscall-latency histograms;
* the LSM framework fires ``lsm:hook_dispatch``, feeds the per-hook
  latency histograms, and reports every denial here so an AVC-style audit
  record — including the **situation state** at the time of denial — is
  emitted;
* the SACK layers (SSM, SACKfs, the bridges) report transitions, event
  writes, and policy loads.

The hub also owns the ftrace-style trace ring buffer: enabling an event
through tracefs attaches the hub's recording probe to that tracepoint, and
every firing is rendered into the buffer while ``tracing_on`` holds.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from .audit import (AUDIT_AVC, AUDIT_EVENT_REJECTED, AUDIT_FAILSAFE,
                    AUDIT_LSM_ERROR, AUDIT_POLICY_LOAD, AUDIT_ROLLBACK,
                    AUDIT_STATE_TRANSITION, AuditRing)
from .metrics import MetricsRegistry, sample
from .spans import SpanTracer
from .tracepoints import (FAULT_INJECT, SACK_EVENT_REJECTED,
                          SACK_EVENT_WRITE, SACK_FAILSAFE, SACK_POLICY_LOAD,
                          SACK_TRANSITION_ROLLBACK, SSM_TRANSITION,
                          TracepointRegistry)


class Observability:
    """Tracepoints + audit + metrics for one simulated kernel."""

    def __init__(self, clock=None, audit_capacity: int = 4096,
                 trace_capacity: int = 8192):
        self.clock = clock
        self.tracepoints = TracepointRegistry()
        self.audit = AuditRing(capacity=audit_capacity)
        self.metrics = MetricsRegistry()
        self.tracing_on = True
        self.trace_buffer: Deque[Tuple[int, str, dict]] = \
            deque(maxlen=trace_capacity)
        self.trace_dropped = 0
        self.spans = SpanTracer(self)
        self._situation_provider = None
        self._ssm_collector_registered = False
        self._observed_sackfs: List[object] = []
        self.metrics.register_collector(self._collect_ring_stats)

    def _collect_ring_stats(self):
        """Overflow-drop visibility: a lossy run must look lossy."""
        span_stats = self.spans.stats()
        return [
            sample("obs_trace_ring_dropped_total", None, "counter",
                   self.trace_dropped),
            sample("obs_audit_ring_dropped_total", None, "counter",
                   self.audit.dropped),
            sample("obs_audit_suppressed_total", None, "counter",
                   self.audit.suppressed),
            sample("obs_span_ring_dropped_total", None, "counter",
                   span_stats["dropped"]),
            sample("obs_span_traces_discarded_total", None, "counter",
                   span_stats["discarded"]),
            sample("obs_spans_started_total", None, "counter",
                   span_stats["started"]),
            sample("obs_span_traces_stored", None, "gauge",
                   span_stats["stored"]),
        ]

    def ring_stats(self) -> Dict[str, Dict[str, int]]:
        """Ring occupancy/overflow for every bounded buffer we own."""
        return {
            "trace": {
                "stored": len(self.trace_buffer),
                "capacity": self.trace_buffer.maxlen or 0,
                "dropped": self.trace_dropped,
            },
            "audit": self.audit.stats(),
            "spans": self.spans.stats(),
        }

    # -- shared helpers ----------------------------------------------------
    @property
    def now_ns(self) -> int:
        return self.clock.now_ns if self.clock is not None else 0

    def situation(self) -> str:
        """Current situation state name, or '' when no SACK is wired."""
        provider = self._situation_provider
        if provider is None:
            return ""
        return getattr(provider, "current_state", None) or ""

    def set_situation_provider(self, provider) -> None:
        """*provider* exposes ``current_state`` (SackLsm or a bridge)."""
        self._situation_provider = provider

    # -- trace ring buffer (ftrace analog) ---------------------------------
    def _record_probe(self, name: str, fields: dict) -> None:
        """The probe tracefs attaches: render the firing into the ring."""
        if not self.tracing_on:
            return
        if len(self.trace_buffer) == self.trace_buffer.maxlen:
            self.trace_dropped += 1
        self.trace_buffer.append((self.now_ns, name, dict(fields)))

    def recording_enabled(self, name: str) -> bool:
        return self._record_probe in self.tracepoints.get(name).callbacks

    def enable_recording(self, name: str) -> None:
        """Start recording *name* firings into the trace buffer."""
        self.tracepoints.attach(name, self._record_probe)

    def disable_recording(self, name: str) -> None:
        self.tracepoints.detach(name, self._record_probe)

    def enable_all_recording(self) -> None:
        for point in self.tracepoints:
            point.attach(self._record_probe)

    def trace_lines(self) -> List[str]:
        """The trace buffer rendered ftrace-style."""
        lines = []
        for when_ns, name, fields in self.trace_buffer:
            rendered = " ".join(f"{k}={v}" for k, v in fields.items())
            lines.append(f"[{when_ns / 1e9:12.6f}] {name}: {rendered}")
        return lines

    def clear_trace(self) -> None:
        self.trace_buffer.clear()
        self.trace_dropped = 0

    # -- LSM denials (AVC) -------------------------------------------------
    def denial(self, module: str, hook: str, path: str, task,
               rc: int) -> None:
        """One denied access: AVC audit record + denial counter.

        Called by the framework's dispatch core on the first nonzero hook
        return — once per denied access, never for allow paths.
        """
        self.metrics.counter("lsm_denials_total",
                             {"module": module, "hook": hook}).inc()
        if self.audit.enabled:
            cred = getattr(task, "cred", None)
            self.audit.emit(
                self.now_ns, AUDIT_AVC, module=module, hook=hook,
                path=path, pid=getattr(task, "pid", 0),
                comm=getattr(task, "comm", ""),
                uid=getattr(cred, "euid", -1) if cred is not None else -1,
                situation=self.situation(), errno=-rc)

    def module_error(self, module: str, hook: str, path: str, task,
                     error: Exception, audit: bool) -> None:
        """An LSM module raised inside *hook*: error counter, plus an
        ``lsm_error`` audit record when *audit* (the framework asks for
        one only where no denial record covers the failure)."""
        self.metrics.counter("lsm_module_errors_total",
                             {"module": module, "hook": hook}).inc()
        if audit and self.audit.enabled:
            self.audit.emit(
                self.now_ns, AUDIT_LSM_ERROR, module=module, hook=hook,
                path=path, pid=getattr(task, "pid", 0),
                comm=getattr(task, "comm", ""),
                detail=f"{type(error).__name__}: {error}")

    # -- SSM wiring --------------------------------------------------------
    def attach_ssm(self, ssm, provider=None) -> None:
        """Observe *ssm*: transitions flow into trace/audit/metrics.

        Safe to call on every policy (re)load; the newest SSM wins.  When
        *provider* is given it also becomes the situation provider for
        audit records.
        """
        ssm.obs = self
        if provider is not None:
            self.set_situation_provider(provider)
        if not self._ssm_collector_registered:
            self._ssm_collector_registered = True
            self._ssm_ref = ssm
            self.metrics.register_collector(self._collect_ssm)
        else:
            self._ssm_ref = ssm

    def _collect_ssm(self):
        ssm = getattr(self, "_ssm_ref", None)
        if ssm is None:
            return []
        return [
            sample("sack_ssm_events_processed_total", None, "counter",
                   ssm.events_processed),
            sample("sack_ssm_events_ignored_total", None, "counter",
                   ssm.events_ignored),
            sample("sack_ssm_transitions_total", None, "counter",
                   ssm.transition_count),
            sample("sack_ssm_transitions_failed_total", None, "counter",
                   getattr(ssm, "transitions_failed", 0)),
            sample("sack_ssm_rollbacks_total", None, "counter",
                   getattr(ssm, "rollback_count", 0)),
            sample("sack_ssm_forced_total", None, "counter",
                   getattr(ssm, "forced_count", 0)),
            sample("sack_ssm_failsafe_engaged", None, "gauge",
                   int(getattr(ssm, "failsafe_engaged", False))),
            sample("sack_ssm_states", None, "gauge", len(ssm.states)),
            sample("sack_ssm_rules", None, "gauge", len(ssm.rules)),
        ]

    def transition(self, transition, latency_ns: int,
                   trace_id: Optional[str] = None) -> None:
        """Called by the SSM after listeners ran for one transition.

        *trace_id* (when span tracing is on) becomes the exemplar on the
        latency bucket this observation lands in.
        """
        self.metrics.histogram("sack_transition_latency_ns").record(
            latency_ns, trace_id=trace_id)
        tp = self.tracepoints.get(SSM_TRANSITION)
        if tp.callbacks:
            tp.emit(event=transition.event.name,
                    from_state=transition.from_state,
                    to_state=transition.to_state,
                    at_ns=transition.at_ns, latency_ns=latency_ns)
        if self.audit.enabled:
            self.audit.emit(
                self.now_ns, AUDIT_STATE_TRANSITION,
                module="sack", situation=transition.to_state,
                detail=(f"from={transition.from_state} "
                        f"to={transition.to_state} "
                        f"event={transition.event.name}"))

    def transition_rollback(self, transition, error: Exception) -> None:
        """A listener failed mid-notification; the SSM rolled back."""
        self.metrics.counter("sack_transition_rollbacks_total").inc()
        tp = self.tracepoints.get(SACK_TRANSITION_ROLLBACK)
        if tp.callbacks:
            tp.emit(event=transition.event.name,
                    from_state=transition.from_state,
                    to_state=transition.to_state, error=str(error))
        if self.audit.enabled:
            self.audit.emit(
                self.now_ns, AUDIT_ROLLBACK, module="sack",
                situation=transition.from_state,
                detail=(f"from={transition.from_state} "
                        f"to={transition.to_state} "
                        f"event={transition.event.name} "
                        f"error={error}"))

    def failsafe(self, from_state: str, to_state: str, reason: str) -> None:
        """The SSM degraded to its policy-declared failsafe state."""
        self.metrics.counter("sack_failsafe_engagements_total").inc()
        tp = self.tracepoints.get(SACK_FAILSAFE)
        if tp.callbacks:
            tp.emit(from_state=from_state, to_state=to_state, reason=reason)
        if self.audit.enabled:
            self.audit.emit(
                self.now_ns, AUDIT_FAILSAFE, module="sack",
                situation=to_state,
                detail=(f"from={from_state} to={to_state} "
                        f"reason={reason}"))

    # -- fault injection ---------------------------------------------------
    def fault_injected(self, point: str) -> None:
        """One armed fault point actually fired."""
        self.metrics.counter("fault_injections_total",
                             {"point": point}).inc()
        tp = self.tracepoints.get(FAULT_INJECT)
        if tp.callbacks:
            tp.emit(point=point)

    # -- SACKfs wiring -----------------------------------------------------
    def observe_sackfs(self, sackfs) -> None:
        """Fold a SACKfs instance's counters into the metrics export.

        One bound-method collector iterates every observed instance
        (rather than one closure per instance) so a deep-copied hub —
        a fleet checkpoint — samples its *own* SACKfs copies, not the
        originals a closure would still capture.
        """
        if sackfs in self._observed_sackfs:
            return
        register = not self._observed_sackfs
        self._observed_sackfs.append(sackfs)
        if register:
            self.metrics.register_collector(self._collect_sackfs)

    def _collect_sackfs(self):
        out = []
        for fs in self._observed_sackfs:
            out.extend([
                sample("sackfs_events_received_total", None, "counter",
                       fs.events_received),
                sample("sackfs_events_accepted_total", None, "counter",
                       fs.events_accepted),
                sample("sackfs_events_rejected_total", None, "counter",
                       fs.events_rejected),
                sample("sackfs_heartbeats_received_total", None, "counter",
                       getattr(fs, "heartbeats_received", 0)),
            ])
        return out

    def event_write(self, n_events: int, n_bytes: int, task) -> None:
        tp = self.tracepoints.get(SACK_EVENT_WRITE)
        if tp.callbacks:
            tp.emit(events=n_events, bytes=n_bytes,
                    pid=getattr(task, "pid", 0),
                    comm=getattr(task, "comm", ""))

    def event_rejected(self, reason: str, task) -> None:
        tp = self.tracepoints.get(SACK_EVENT_REJECTED)
        if tp.callbacks:
            tp.emit(reason=reason, pid=getattr(task, "pid", 0),
                    comm=getattr(task, "comm", ""))
        if self.audit.enabled:
            self.audit.emit(self.now_ns, AUDIT_EVENT_REJECTED,
                            module="sack", pid=getattr(task, "pid", 0),
                            comm=getattr(task, "comm", ""),
                            situation=self.situation(), detail=reason)

    # -- policy lifecycle --------------------------------------------------
    def policy_load(self, policy_name: str, backend: str, n_states: int,
                    n_rules: int, duration_ns: int,
                    state_rule_counts: Optional[Dict[str, int]] = None
                    ) -> None:
        """One policy compile+activate cycle (any backend)."""
        self.metrics.counter("sack_policy_loads_total",
                             {"backend": backend}).inc()
        self.metrics.histogram("sack_policy_load_ns",
                               {"backend": backend}).record(duration_ns)
        self.metrics.gauge("sack_policy_states").set(n_states)
        self.metrics.gauge("sack_policy_rules").set(n_rules)
        for state, count in (state_rule_counts or {}).items():
            self.metrics.gauge("sack_state_rules",
                               {"state": state}).set(count)
        tp = self.tracepoints.get(SACK_POLICY_LOAD)
        if tp.callbacks:
            tp.emit(policy=policy_name, backend=backend, states=n_states,
                    rules=n_rules, duration_ns=duration_ns)
        if self.audit.enabled:
            self.audit.emit(
                self.now_ns, AUDIT_POLICY_LOAD, module="sack",
                situation=self.situation(),
                detail=(f"policy={policy_name} backend={backend} "
                        f"states={n_states} rules={n_rules} "
                        f"duration_ns={duration_ns}"))
