"""The precompiled decision table: agreement, invalidation, I11.

Three layers of proof:

* **Unit properties** (Hypothesis): under any interleaving of
  install/lookup/invalidate/epoch-advance, the table never serves an
  entry built for a different epoch, and every hit's vector covers the
  requested mask.
* **Integration agreement** (Hypothesis over the live IVI world): every
  table lookup answers exactly what the uncached per-module
  ``compute_av_for_subject`` walk would, for every (subject, path,
  mask) triple the table can be asked about.
* **System behavior**: epoch bumps (transition, policy load, tracefs
  flush) recompile or invalidate the table; denials still take the
  full audited module walk; the chaos harness's I11 invariant holds
  under fault injection with the table enabled.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernel import MAY_EXEC, MAY_READ, MAY_WRITE, OpenFlags
from repro.kernel.errors import KernelError
from repro.lsm.dtable import DecisionTable, is_literal_path
from repro.lsm.hooks import Hook
from repro.obs.audit import AUDIT_AVC
from repro.vehicle import DOOR_UNLOCK, EnforcementConfig, build_ivi_world

AV_ALL = MAY_READ | MAY_WRITE | MAY_EXEC


# -- unit properties -----------------------------------------------------------

KEYS = st.integers(min_value=0, max_value=5)
MASKS = st.integers(min_value=1, max_value=7)
VECTORS = st.integers(min_value=0, max_value=7)

OPS = st.one_of(
    st.tuples(st.just("install"),
              st.dictionaries(KEYS, VECTORS, max_size=6)),
    st.tuples(st.just("lookup"), st.tuples(KEYS, MASKS)),
    st.tuples(st.just("invalidate"), st.just(None)),
    st.tuples(st.just("advance"), st.just(None)),
)


@given(ops=st.lists(OPS, max_size=200))
@settings(max_examples=150, deadline=None)
def test_hits_are_current_epoch_and_cover_the_mask(ops):
    """A hit is only ever served from the table built for the current
    epoch, and only when the entry's vector covers every asked bit."""
    table = DecisionTable()
    table.enabled = True
    model, model_epoch, epoch = {}, -1, 0
    for op, arg in ops:
        if op == "install":
            table.install(dict(arg), epoch)
            model, model_epoch = dict(arg), epoch
        elif op == "lookup":
            key, mask = arg
            hit = table.lookup(key, mask, epoch)
            expected = (model_epoch == epoch
                        and (model.get(key, 0) & mask) == mask)
            assert hit == expected, \
                (key, mask, epoch, model_epoch, model.get(key))
        elif op == "invalidate":
            table.invalidate()
            model_epoch = -1
        else:  # advance: the AVC epoch moved without a rebuild
            epoch += 1
        assert table.stale_served == 0
        assert table.last_hit_built_epoch == table.last_hit_at_epoch


@given(entries=st.dictionaries(KEYS, VECTORS, min_size=1, max_size=6),
       key=KEYS, mask=MASKS)
@settings(max_examples=100, deadline=None)
def test_stale_table_never_hits(entries, key, mask):
    table = DecisionTable()
    table.enabled = True
    table.install(dict(entries), epoch=3)
    assert not table.lookup(key, mask, 4), "stale-epoch lookup hit"
    assert not table.lookup(key, mask, 2), "stale-epoch lookup hit"
    assert table.hits == 0


def test_zero_vector_never_satisfies_any_mask():
    # A 0 vector means "denied everything"; denials must fall through
    # to the audited module walk, so a 0 entry may never hit.
    table = DecisionTable()
    table.enabled = True
    table.install({"k": 0}, epoch=1)
    for mask in (1, 2, 4, 7):
        assert not table.lookup("k", mask, 1)


def test_is_literal_path():
    assert is_literal_path("/dev/car/door")
    assert not is_literal_path("/dev/car/*")
    assert not is_literal_path("/dev/car/**")
    assert not is_literal_path("/dev/car/door?")
    assert not is_literal_path("/dev/[ab]")


# -- integration agreement -----------------------------------------------------

def _dtable_world():
    world = build_ivi_world(EnforcementConfig.SACK_INDEPENDENT)
    world.framework.dtable.enabled = True
    world.framework.rebuild_dtable()
    return world


@pytest.fixture(scope="module")
def world():
    return _dtable_world()


class TestAgreement:
    def test_every_entry_matches_uncached_recomputation(self, world):
        dtable = world.framework.dtable
        assert len(dtable) > 0
        checked = 0
        for (hook, subject, path), vector in dtable._entries.items():
            assert hook in (Hook.FILE_OPEN, Hook.FILE_PERMISSION)
            # The subject half of the key holds one sub-key per module
            # in the hook's plan, in module order.
            modules = world.framework._plans[hook].table_modules
            expected = AV_ALL
            for module, module_subject in zip(modules, subject):
                expected &= module.compute_av_for_subject(module_subject,
                                                          path)
                if not expected:
                    break
            assert vector == expected, (hook, subject, path)
            checked += 1
        assert checked == len(dtable)
        assert world.sack.table_paths()  # the policy names literal paths

    def test_table_covers_every_subject_x_path(self, world):
        import itertools
        dtable = world.framework.dtable
        for hook in (Hook.FILE_OPEN, Hook.FILE_PERMISSION):
            modules = world.framework._plans[hook].table_modules
            assert modules is not None
            paths = sorted(set().union(
                *(m.table_paths() for m in modules)))
            assert paths
            for combo in itertools.product(
                    *(m.table_subject_keys() for m in modules)):
                for path in paths:
                    assert (hook, combo, path) in dtable._entries

    def test_lookup_agrees_with_compute_av_for_all_masks(self, world):
        dtable = world.framework.dtable
        epoch = world.framework.avc.core.epoch
        assert dtable.built_epoch == epoch
        for key, vector in list(dtable._entries.items()):
            for mask in (MAY_READ, MAY_WRITE, MAY_READ | MAY_WRITE,
                         MAY_EXEC, AV_ALL):
                hit = dtable.lookup(key, mask, epoch)
                assert hit == ((vector & mask) == mask), (key, mask)


class TestInvalidation:
    def test_transition_recompiles_eagerly(self):
        world = _dtable_world()
        dtable = world.framework.dtable
        builds = dtable.builds
        world.trigger_crash()           # situation transition
        assert dtable.builds > builds
        assert dtable.built_epoch == world.framework.avc.core.epoch

    def test_policy_load_recompiles(self):
        world = _dtable_world()
        from repro.vehicle.ivi import DEFAULT_SACK_POLICY, IOCTL_SYMBOLS
        from repro.sack import parse_policy
        dtable = world.framework.dtable
        builds = dtable.builds
        world.sack.load_policy(parse_policy(DEFAULT_SACK_POLICY),
                               ioctl_symbols=IOCTL_SYMBOLS)
        assert dtable.builds > builds
        assert dtable.built_epoch == world.framework.avc.core.epoch

    def test_tracefs_flush_recompiles(self):
        from repro.obs.tracefs import mount_tracefs
        world = _dtable_world()
        mount_tracefs(world.kernel)
        dtable = world.framework.dtable
        builds = dtable.builds
        world.kernel.write_file(world.kernel.procs.init,
                                "/sys/kernel/tracing/SACK/avc/flush",
                                b"1", create=False)
        assert dtable.builds > builds
        assert dtable.built_epoch == world.framework.avc.core.epoch

    def test_disabled_table_invalidates_instead_of_rebuilding(self):
        world = _dtable_world()
        dtable = world.framework.dtable
        dtable.enabled = False
        invalidations = dtable.invalidations
        world.trigger_crash()
        assert dtable.invalidations > invalidations
        assert dtable.built_epoch == -1

    def test_lazy_self_heal_on_first_dispatch(self):
        # If a bump sneaks past the callback (belt and braces), the
        # dispatch path rebuilds before consulting the table.
        world = _dtable_world()
        dtable = world.framework.dtable
        world.framework.avc.core.bump_epoch("direct-core-bump")
        assert dtable.built_epoch != world.framework.avc.core.epoch
        task = world.task("media_app")
        kernel = world.kernel
        fd = kernel.sys_open(task, "/dev/car/audio", OpenFlags.O_RDONLY)
        kernel.sys_close(task, fd)
        assert dtable.built_epoch == world.framework.avc.core.epoch
        assert dtable.stale_served == 0


class TestDispatch:
    def test_steady_state_hits_bypass_the_avc(self):
        world = _dtable_world()
        dtable = world.framework.dtable
        avc = world.framework.avc.core
        task = world.task("media_app")
        kernel = world.kernel
        hits, avc_hits = dtable.hits, avc.hits
        for _ in range(10):
            fd = kernel.sys_open(task, "/dev/car/audio",
                                 OpenFlags.O_RDONLY)
            kernel.sys_read(task, fd, 16)
            kernel.sys_close(task, fd)
        assert dtable.hits >= hits + 20     # open + permission per loop
        assert avc.hits == avc_hits         # the AVC never saw them
        assert dtable.stale_served == 0

    def test_denial_still_walks_modules_and_audits(self):
        world = _dtable_world()
        obs = world.kernel.obs
        denials = world.sack.denial_count
        before = len(obs.audit.by_kind(AUDIT_AVC))
        with pytest.raises(KernelError):
            world.device_ioctl("media_app", "door", DOOR_UNLOCK)
        assert world.sack.denial_count == denials + 1
        assert len(obs.audit.by_kind(AUDIT_AVC)) == before + 1

    def test_e6_door_unlock_scenario_with_table_on(self):
        # The paper's E6 access pattern must behave identically with
        # the table enabled: denied parked, allowed in emergency.
        world = _dtable_world()
        with pytest.raises(KernelError):
            world.device_ioctl("rescue_daemon", "door", DOOR_UNLOCK)
        world.trigger_crash()
        world.device_ioctl("rescue_daemon", "door", DOOR_UNLOCK)
        with pytest.raises(KernelError):
            world.device_ioctl("media_app", "door", DOOR_UNLOCK)

    def test_untouched_table_exports_no_metrics(self):
        world = build_ivi_world(EnforcementConfig.SACK_INDEPENDENT)
        names = {sample["name"]
                 for sample in world.kernel.obs.metrics.to_dict()
                 .get("counters", [])}
        assert not any(name.startswith("lsm_dtable") for name in names)

    def test_used_table_exports_metrics(self):
        world = _dtable_world()
        task = world.task("media_app")
        fd = world.kernel.sys_open(task, "/dev/car/audio",
                                   OpenFlags.O_RDONLY)
        world.kernel.sys_close(task, fd)
        doc = world.kernel.obs.metrics.to_dict()
        names = {sample["name"] for sample in doc.get("counters", [])}
        assert "lsm_dtable_lookups_total" in names
        assert "lsm_dtable_builds_total" in names


class TestChaosI11:
    def test_i11_holds_under_fault_injection(self):
        from repro.faults.chaos import run_chaos
        report = run_chaos(5, ticks=150, dtable=True)
        assert report.ok, report.violations
        assert not [v for v in report.violations if "I11" in v]
        stats = report.stats["dtable"]
        assert stats["stale_served"] == 0
        assert stats["hits"] > 0
        assert stats["builds"] >= 1

    def test_chaos_with_table_is_deterministic(self):
        from repro.faults.chaos import run_chaos
        first = run_chaos(6, ticks=120, dtable=True)
        second = run_chaos(6, ticks=120, dtable=True)
        assert first.fingerprint() == second.fingerprint()
        assert first.stats["dtable"] == second.stats["dtable"]

    def test_baseline_chaos_carries_no_dtable_stats(self):
        from repro.faults.chaos import run_chaos
        report = run_chaos(7, ticks=60)
        assert "dtable" not in report.stats
