"""The LSM framework: ordered module stacking and hook dispatch.

Implements the semantics the paper's compatibility evaluation (§IV-D)
relies on: modules are consulted in the order given by the ``CONFIG_LSM``
string ("whitelist-based"); the first module that denies short-circuits the
call, so when SACK is listed first its check runs *before* AppArmor's, and
AppArmor only sees accesses SACK already allowed.

The capability module is always implicitly first, as in Linux.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..kernel.credentials import Capability
from ..kernel.security import SecurityHooks
from ..obs.metrics import sample
from ..obs.tracepoints import LSM_HOOK_DISPATCH
from .avc import AV_ALL, KEY_EXTRACTORS, VECTOR_HOOKS, AccessVectorCache
from .capability import CapabilityLsm
from .dtable import DecisionTable
from .hooks import Hook
from .module import LsmModule


class HookStats:
    """Per-(module, hook) call and denial counters."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.denials: Counter = Counter()

    def record(self, site: str, denied: bool) -> None:
        """Count one call of *site* (``"module.hook"``)."""
        self.calls[site] += 1
        if denied:
            self.denials[site] += 1

    def total_calls(self) -> int:
        return self.calls.total()

    def total_denials(self) -> int:
        return self.denials.total()

    def snapshot(self) -> Dict[str, object]:
        """Point-in-time copy, safe to hold across further dispatches."""
        return {
            "calls": dict(self.calls),
            "denials": dict(self.denials),
            "total_calls": self.total_calls(),
            "total_denials": self.total_denials(),
        }

    def top(self, n: int = 10) -> List[Tuple[str, int, int]]:
        """The *n* hottest (module.hook, calls, denials) sites."""
        return [(key, count, self.denials.get(key, 0))
                for key, count in self.calls.most_common(n)]

    def reset(self) -> None:
        self.calls.clear()
        self.denials.clear()


@dataclass(frozen=True, slots=True)
class HookPlan:
    """Everything dispatch needs to know about one hook, fixed at boot.

    Only modules that override the hook appear in :attr:`entries`, as on
    the per-hook lists Linux builds at ``security_init`` time.  The cache
    fields are filled only when every listed module opted in to caching
    (``avc_cacheable``) and the hook has a key extractor: one opaque
    module poisons the hook, not the stack.
    """

    hook: Hook
    #: ``(module name, "module.hook" stats site, bound method)`` per
    #: implementing module, in stack order.
    entries: Tuple[Tuple[str, str, Callable], ...]
    #: Maps the hook's arguments to ``(object key, mask)``; None when the
    #: hook is never cached.
    extractor: Optional[Callable] = None
    #: One ``avc_subject_key`` per listed module.
    subject_fns: Tuple[Callable, ...] = ()
    #: One ``compute_av`` per listed module when every module offers one
    #: (a miss then pre-fills the whole vector), else None.
    compute_fns: Optional[Tuple[Callable, ...]] = None
    #: The listed modules when the hook's decisions can be precompiled
    #: into the decision table (:data:`VECTOR_HOOKS` whose modules all
    #: implement ``table_subject_keys``, ``table_paths`` and the pure
    #: ``compute_av_for_subject``), else None.
    table_modules: Optional[Tuple[LsmModule, ...]] = None


class LsmFramework(SecurityHooks):
    """Hook multiplexer over an ordered list of :class:`LsmModule`."""

    name = "lsm"

    def __init__(self, modules: Sequence[LsmModule] = (),
                 collect_stats: bool = False,
                 avc_capacity: int = 8192):
        self.capability = CapabilityLsm()
        self.modules: List[LsmModule] = [self.capability, *modules]
        self.stats = HookStats() if collect_stats else None
        self._kernel = None
        self.obs = None            # set by attach(); the kernel's hub
        self._tp_hook = None       # cached lsm:hook_dispatch tracepoint
        self._spans = None         # cached hub SpanTracer
        self._latency = None       # {(module, hook): Histogram} when on
        names = [m.name for m in self.modules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate LSM names in stack: {names}")
        #: One plan per hook; None when no module implements it, so such
        #: hooks cost a single dict probe at dispatch time.
        self._plans: Dict[Hook, Optional[HookPlan]] = {
            hook: self._build_plan(hook) for hook in Hook}
        self.avc = AccessVectorCache(capacity=avc_capacity)
        #: Precompiled decision table (see repro.lsm.dtable): consulted
        #: before the AVC when enabled; rebuilt on every epoch bump.
        self.dtable = DecisionTable()
        self.avc.on_bump = self._on_avc_bump

    def _build_plan(self, hook: Hook) -> Optional[HookPlan]:
        default = getattr(LsmModule, hook.value)
        modules = tuple(m for m in self.modules
                        if getattr(type(m), hook.value, None)
                        not in (None, default))
        if not modules:
            return None
        entries = tuple((m.name, f"{m.name}.{hook.value}",
                         getattr(m, hook.value)) for m in modules)
        extractor = KEY_EXTRACTORS.get(hook)
        if extractor is None or not all(
                getattr(m, "avc_cacheable", False) for m in modules):
            return HookPlan(hook, entries)
        compute_fns = table_modules = None
        if hook in VECTOR_HOOKS:
            fns = tuple(getattr(m, "compute_av", None) for m in modules)
            if all(fns):
                compute_fns = fns
            if all(hasattr(m, "table_subject_keys")
                   and hasattr(m, "table_paths")
                   and hasattr(m, "compute_av_for_subject")
                   for m in modules):
                table_modules = modules
        return HookPlan(hook, entries, extractor,
                        tuple(m.avc_subject_key for m in modules),
                        compute_fns, table_modules)

    def _on_avc_bump(self, reason: str, epoch: int) -> None:
        """Epoch moved: the old table is wrong.  Recompile eagerly while
        the table is live (the transition already remapped the APE, so
        the new contents are the new state's), drop it otherwise."""
        if self.dtable.enabled:
            self.rebuild_dtable()
        else:
            self.dtable.invalidate()

    def rebuild_dtable(self) -> int:
        """Compile the decision table for the current epoch; returns the
        entry count.  Enumerates every table-able hook's subject space
        (cross product of each module's subject keys) against the
        literal governed paths, storing the AND of every module's pure
        access vector — zero vectors are dropped, keeping the table
        allows-only."""
        entries: Dict[tuple, int] = {}
        for plan in self._plans.values():
            modules = plan.table_modules if plan is not None else None
            if modules is None:
                continue
            subject_keys = [list(m.table_subject_keys())
                            for m in modules]
            if not all(subject_keys):
                continue
            paths = sorted(set().union(
                *(set(m.table_paths()) for m in modules)))
            for subject in itertools.product(*subject_keys):
                for path in paths:
                    vector = AV_ALL
                    for module, key in zip(modules, subject):
                        vector &= module.compute_av_for_subject(key, path)
                        if not vector:
                            break
                    if vector:
                        entries[(plan.hook, subject, path)] = vector
        self.dtable.install(entries, self.avc.core.epoch)
        return len(entries)

    @classmethod
    def from_config(cls, config_lsm: str,
                    registry: Dict[str, LsmModule],
                    collect_stats: bool = False) -> "LsmFramework":
        """Build a stack from a ``CONFIG_LSM="sack,apparmor"`` string.

        *registry* maps module names to instances; unknown names raise
        ``KeyError`` (a misconfigured kernel fails to boot), and so does
        a name listed twice — Linux's ``ordered_lsm_parse`` drops
        duplicates, but a doubled entry in a curated config is always a
        typo and silently reordering the stack would mask it.
        """
        names = [n.strip() for n in config_lsm.split(",") if n.strip()]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(
                f"CONFIG_LSM lists duplicate module names: {dupes} "
                f"(config was {config_lsm!r})")
        modules = []
        for name in names:
            if name == "capability":
                continue  # always present, always first
            modules.append(registry[name])
        return cls(modules, collect_stats=collect_stats)

    @property
    def config_lsm(self) -> str:
        """The effective ``CONFIG_LSM`` string for this stack."""
        return ",".join(m.name for m in self.modules)

    def attach(self, kernel) -> None:
        """Give every module a back-reference to the booted kernel."""
        self._kernel = kernel
        self.obs = getattr(kernel, "obs", None)
        if self.obs is not None:
            self._tp_hook = self.obs.tracepoints.get(LSM_HOOK_DISPATCH)
            self._spans = getattr(self.obs, "spans", None)
            if self.stats is not None:
                # The metrics export reads HookStats live instead of
                # keeping duplicate counts that could drift.
                self.obs.metrics.register_collector(self._collect_stats)
            self.obs.metrics.register_collector(self._collect_avc)
            self.obs.metrics.register_collector(self._collect_dtable)
        for module in self.modules:
            module.registered(kernel)

    def _collect_stats(self):
        stats = self.stats
        if stats is None:
            return []
        out = [sample("lsm_hook_calls_total", {"site": key}, "counter",
                      count) for key, count in stats.calls.items()]
        out.extend(sample("lsm_hook_denials_total", {"site": key},
                          "counter", count)
                   for key, count in stats.denials.items())
        return out

    def _collect_avc(self):
        core = self.avc.core
        out = [
            sample("lsm_avc_lookups_total", {"result": "hit"}, "counter",
                   core.hits),
            sample("lsm_avc_lookups_total", {"result": "miss"}, "counter",
                   core.misses),
            sample("lsm_avc_insertions_total", {}, "counter",
                   core.insertions),
            sample("lsm_avc_evictions_total", {}, "counter",
                   core.evictions),
            sample("lsm_avc_stale_drops_total", {}, "counter",
                   core.stale_drops),
            sample("lsm_avc_flushes_total", {}, "counter", core.flushes),
            sample("lsm_avc_epoch", {}, "gauge", core.epoch),
            sample("lsm_avc_entries", {}, "gauge", len(core)),
        ]
        out.extend(sample("lsm_avc_epoch_bumps_total", {"reason": reason},
                          "counter", count)
                   for reason, count in core.bump_reasons.items())
        return out

    def _collect_dtable(self):
        dtable = self.dtable
        if not dtable.used:
            # An untouched table exports nothing, so default-config runs
            # (and their fingerprints) are byte-identical to pre-table
            # builds.
            return []
        return [
            sample("lsm_dtable_lookups_total", {"result": "hit"},
                   "counter", dtable.hits),
            sample("lsm_dtable_lookups_total", {"result": "miss"},
                   "counter", dtable.misses),
            sample("lsm_dtable_builds_total", {}, "counter",
                   dtable.builds),
            sample("lsm_dtable_invalidations_total", {}, "counter",
                   dtable.invalidations),
            sample("lsm_dtable_stale_served_total", {}, "counter",
                   dtable.stale_served),
            sample("lsm_dtable_entries", {}, "gauge", len(dtable)),
            sample("lsm_dtable_built_epoch", {}, "gauge",
                   dtable.built_epoch),
        ]

    # -- hook latency collection ---------------------------------------------
    def enable_hook_latency(self) -> None:
        """Collect per-(module, hook) latency histograms on every dispatch.

        Requires an attached kernel (histograms live in its metrics
        registry).  Until enabled, the dispatch fast path never reads the
        wall clock.
        """
        if self.obs is None:
            raise RuntimeError("attach() the framework to a kernel first")
        self._latency = {}

    def disable_hook_latency(self) -> None:
        self._latency = None

    def _latency_histogram(self, module: str, hook: Hook):
        hist = self._latency.get((module, hook))
        if hist is None:
            hist = self.obs.metrics.histogram(
                "lsm_hook_latency_ns",
                {"module": module, "hook": hook.value})
            self._latency[(module, hook)] = hist
        return hist

    def hook_latency_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-hook latency summary (merged across modules).

        Returns ``{hook: {count, mean_ns, p50_ns, p99_ns, max_ns}}``; the
        percentiles of the merged view are the worst (largest) per-module
        percentile, a conservative bound that avoids re-binning.
        """
        if self._latency is None:
            return {}
        merged: Dict[str, Dict[str, float]] = {}
        for (module, hook), hist in self._latency.items():
            if hist.count == 0:
                continue
            row = merged.setdefault(hook.value, {
                "count": 0, "total_ns": 0.0, "p50_ns": 0.0,
                "p99_ns": 0.0, "max_ns": 0.0})
            row["count"] += hist.count
            row["total_ns"] += hist.total
            row["p50_ns"] = max(row["p50_ns"], hist.percentile(50))
            row["p99_ns"] = max(row["p99_ns"], hist.percentile(99))
            row["max_ns"] = max(row["max_ns"], hist.max or 0.0)
        for row in merged.values():
            row["mean_ns"] = row.pop("total_ns") / row["count"]
        return merged

    def module_named(self, name: str) -> LsmModule:
        for module in self.modules:
            if module.name == name:
                return module
        raise KeyError(name)

    # -- dispatch core ---------------------------------------------------------
    @staticmethod
    def _object_path(args) -> str:
        """Best-effort object path from a hook's arguments (for audit)."""
        for arg in args[1:]:
            if isinstance(arg, str):
                return arg
            path = getattr(arg, "path", None)
            if isinstance(path, str):
                return path
        return ""

    def _report_denial(self, hook: Hook, module: str, args,
                       rc: int) -> None:
        """AVC audit record for one denied access (never for allows).

        ``capable`` probes are excluded, as Linux routes them through the
        noaudit variant: DAC fallbacks probe capabilities on every access
        by unprivileged tasks and a 'denial' there is normal operation.
        """
        obs = self.obs
        if obs is None or hook is Hook.CAPABLE:
            return
        task = args[0] if args else None
        obs.denial(module, hook.value, self._object_path(args), task, rc)

    def _call_int(self, hook: Hook, *args) -> int:
        """Dispatch a decision hook; first nonzero module return wins (deny).

        One plan probe decides everything static: no plan means nobody
        implements the hook (allow); a cacheable plan builds the cache
        key ``(hook, subject, object)`` once and tries the precompiled
        decision table (when enabled: the whole allow surface for this
        epoch, one dict probe, no miss path to maintain) and then the
        AVC (a live entry proving every module already allowed this
        mask) with that same key.  Anything else walks the modules.
        Denials are never cached in either structure — they must reach
        the modules so audit records, denial counters and span
        attribution still fire.
        """
        plan = self._plans[hook]
        if plan is None:
            return 0
        avc = self.avc
        dtable = self.dtable
        use_table = dtable.enabled and plan.table_modules is not None
        if plan.extractor is None or not (use_table or avc.enabled):
            return self._dispatch_int(plan, args)
        core = avc.core
        if use_table and dtable.built_epoch != core.epoch:
            # Self-heal: first use after enable, or a bump that bypassed
            # the wrapper (direct core access).
            self.rebuild_dtable()
        object_mask = plan.extractor(args)
        if object_mask is None:
            return self._dispatch_int(plan, args)
        obj, mask = object_mask
        task = args[0]
        source = None
        try:
            subject = tuple([fn(task) for fn in plan.subject_fns])
            key = None if None in subject else (hook, subject, obj)
            if key is not None:
                if use_table and dtable.lookup(key, mask, core.epoch):
                    source = "dtable"
                elif avc.enabled and core.lookup_vector(key, mask):
                    source = "avc"
        except TypeError:
            key = None  # unhashable key part: don't cache
        if source is not None:
            return self._avc_hit(plan, args, source)
        rc = self._dispatch_int(plan, args)
        if rc == 0 and key is not None and avc.enabled:
            vector = mask
            if plan.compute_fns is not None:
                vector = AV_ALL
                for fn in plan.compute_fns:
                    vector &= fn(task, obj)
                vector |= mask
            core.extend_vector(key, vector)
        return rc

    def _avc_hit(self, plan: HookPlan, args, source: str) -> int:
        """Serve an allow from a cache/table, replaying the side effects
        an allowed module walk would have had (HookStats counters; an
        ``avc.hit``/``dtable.hit`` span when hooks are being watched) so
        decisions and counters are bit-identical with the fast paths
        off."""
        stats = self.stats
        if stats is not None:
            for _name, site, _method in plan.entries:
                stats.record(site, denied=False)
        spans = self._spans
        if spans is not None and spans.watch_hooks:
            spans.end_span(self._hook_span(plan.hook, args,
                                           {f"{source}.hit": True}))
        return 0

    def _hook_span(self, hook: Hook, args, extra=None):
        """Open a root ``lsm.<hook>`` span *linked* to the trace that
        caused the current situation (the first K decisions after a
        transition).  The link is weaker than a parent/child edge: the
        hook runs under the new state, it is not part of the
        transition's critical path."""
        spans = self._spans
        task = args[0] if args else None
        attributes = {"pid": getattr(task, "pid", 0),
                      "comm": getattr(task, "comm", "")}
        if extra:
            attributes.update(extra)
        span = spans.start_span(f"lsm.{hook.value}", stage="hook",
                                root=True, attributes=attributes)
        if span is not None:
            span.add_link(spans.consume_link())
        return span

    def _dispatch_int(self, plan: HookPlan, args) -> int:
        """The module walk of a decision hook (table/AVC miss, or a hook
        that is never cached)."""
        return self._walk(plan, args)

    def _call_void(self, hook: Hook, *args) -> None:
        plan = self._plans[hook]
        if plan is not None:
            self._walk(plan, args, void=True)

    def _walk(self, plan: HookPlan, args, void: bool = False) -> int:
        """Call every module on *plan*'s list in stack order.

        For a decision hook the first nonzero return wins: the walk stops
        there and reports the denial.  A void (notification) hook reaches
        every module and never denies.  Observers cost nothing while off:
        HookStats counters, per-(module, hook) latency histograms, the
        ``lsm:hook_dispatch`` tracepoint and, for decision hooks while
        the span tracer watches hooks, a root hook span.

        A module that raises fails closed: the error is counted in
        ``lsm_module_errors_total`` and a decision hook denies with
        ``-EACCES`` through the ordinary denial path (AVC audit record,
        denial counters); the other modules are not asked.
        """
        hook = plan.hook
        stats = self.stats
        latency = self._latency
        tp = self._tp_hook
        if tp is not None and not tp.callbacks:
            tp = None
        timed = latency is not None or tp is not None
        spans = self._spans
        traced = not void and spans is not None and spans.watch_hooks
        span = self._hook_span(hook, args) if traced else None
        rc = 0
        try:
            for name, site, method in plan.entries:
                if timed:
                    t0 = time.perf_counter_ns()
                try:
                    rc = method(*args)
                except Exception as error:
                    self._module_failed(hook, name, args, error, void)
                    rc = LsmModule.EACCES
                if void:
                    rc = 0  # a notification cannot deny, even on error
                if timed:
                    dt = time.perf_counter_ns() - t0
                    if latency is not None:
                        self._latency_histogram(name, hook).record(
                            dt, trace_id=span.trace_id
                            if span is not None else None)
                    if tp is not None:
                        tp.emit(module=name, hook=hook.value, rc=rc,
                                latency_ns=dt)
                if stats is not None:
                    stats.record(site, denied=rc != 0)
                if rc != 0:
                    if span is not None:
                        span.attributes["module"] = name
                        span.attributes["rc"] = rc
                    self._report_denial(hook, name, args, rc)
                    return rc
            return 0
        finally:
            if traced:
                spans.end_span(span, status="denied" if rc != 0 else "ok")

    def _module_failed(self, hook: Hook, module: str, args, error,
                       void: bool) -> None:
        """Count a module that raised inside *hook*.  Every such error
        leaves exactly one audit record: the denial's AVC record where
        the walk writes one, an ``lsm_error`` record otherwise (void
        hooks, and ``capable`` probes, whose denials are unaudited)."""
        obs = self.obs
        if obs is None:
            return
        task = args[0] if args else None
        obs.module_error(module, hook.value, self._object_path(args), task,
                         error, audit=void or hook is Hook.CAPABLE)

    # -- SecurityHooks implementation -------------------------------------------
    def task_alloc(self, parent, child) -> int:
        return self._call_int(Hook.TASK_ALLOC, parent, child)

    def bprm_check_security(self, task, exe_path: str) -> int:
        return self._call_int(Hook.BPRM_CHECK_SECURITY, task, exe_path)

    def bprm_committed_creds(self, task, exe_path: str) -> None:
        self._call_void(Hook.BPRM_COMMITTED_CREDS, task, exe_path)

    def task_kill(self, task, target) -> int:
        return self._call_int(Hook.TASK_KILL, task, target)

    def capable(self, task, cap: Capability) -> int:
        return self._call_int(Hook.CAPABLE, task, cap)

    def inode_create(self, task, parent_inode, path: str, mode: int) -> int:
        return self._call_int(Hook.INODE_CREATE, task, parent_inode, path, mode)

    def inode_mkdir(self, task, parent_inode, path: str, mode: int) -> int:
        return self._call_int(Hook.INODE_MKDIR, task, parent_inode, path, mode)

    def inode_mknod(self, task, parent_inode, path: str, mode: int) -> int:
        return self._call_int(Hook.INODE_MKNOD, task, parent_inode, path, mode)

    def inode_unlink(self, task, inode, path: str) -> int:
        return self._call_int(Hook.INODE_UNLINK, task, inode, path)

    def inode_rmdir(self, task, inode, path: str) -> int:
        return self._call_int(Hook.INODE_RMDIR, task, inode, path)

    def inode_rename(self, task, old_path: str, new_path: str) -> int:
        return self._call_int(Hook.INODE_RENAME, task, old_path, new_path)

    def inode_getattr(self, task, path: str) -> int:
        return self._call_int(Hook.INODE_GETATTR, task, path)

    def inode_setattr(self, task, path: str) -> int:
        return self._call_int(Hook.INODE_SETATTR, task, path)

    def file_open(self, task, file) -> int:
        return self._call_int(Hook.FILE_OPEN, task, file)

    def file_permission(self, task, file, mask: int) -> int:
        return self._call_int(Hook.FILE_PERMISSION, task, file, mask)

    def file_ioctl(self, task, file, cmd: int, arg: int) -> int:
        return self._call_int(Hook.FILE_IOCTL, task, file, cmd, arg)

    def mmap_file(self, task, file, prot: int) -> int:
        return self._call_int(Hook.MMAP_FILE, task, file, prot)

    def socket_create(self, task, family) -> int:
        return self._call_int(Hook.SOCKET_CREATE, task, family)

    def socket_bind(self, task, sock, addr) -> int:
        return self._call_int(Hook.SOCKET_BIND, task, sock, addr)

    def socket_listen(self, task, sock) -> int:
        return self._call_int(Hook.SOCKET_LISTEN, task, sock)

    def socket_connect(self, task, sock, addr) -> int:
        return self._call_int(Hook.SOCKET_CONNECT, task, sock, addr)

    def socket_accept(self, task, sock) -> int:
        return self._call_int(Hook.SOCKET_ACCEPT, task, sock)

    def socket_sendmsg(self, task, sock, size: int) -> int:
        return self._call_int(Hook.SOCKET_SENDMSG, task, sock, size)

    def socket_recvmsg(self, task, sock, size: int) -> int:
        return self._call_int(Hook.SOCKET_RECVMSG, task, sock, size)


def boot_kernel(modules: Sequence[LsmModule] = (),
                collect_stats: bool = False,
                clock=None):
    """Boot a kernel with the given LSM stack; returns ``(kernel, framework)``.

    The returned framework is already attached (modules hold a kernel
    back-reference), matching the real boot order where ``security_init``
    runs before init starts.
    """
    from ..kernel.syscalls import Kernel
    framework = LsmFramework(modules, collect_stats=collect_stats)
    kernel = Kernel(security=framework, clock=clock)
    framework.attach(kernel)
    return kernel, framework
