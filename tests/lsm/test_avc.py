"""Tests for the stack-level access vector cache (repro.lsm.avc)."""

import pytest

from repro.apparmor import AppArmorLsm
from repro.kernel import (Capability, Errno, KernelError, OpenFlags,
                          user_credentials)
from repro.lsm import AvcCore, Hook, LsmFramework, LsmModule, boot_kernel
from repro.sack import SackLsm, parse_policy
from repro.sack.events import SituationEvent

POLICY = """
policy avc_test;
initial normal;
states {
  normal = 0;
  emergency = 1;
}
transitions {
  normal -> emergency on crash_detected;
  emergency -> normal on emergency_cleared;
}
permissions {
  BASE;
  DOORS;
}
state_per {
  normal: BASE;
  emergency: BASE, DOORS;
}
per_rules {
  BASE {
    allow read /dev/car/**;
  }
  DOORS {
    allow write /dev/car/door subject=rescue_daemon;
  }
}
guard /dev/car/**;
"""

PROFILES = """
profile confined /usr/bin/confined {
  /usr/bin/confined rm,
  /data/** rw,
}

profile noisy /usr/bin/noisy flags=(complain) {
  /usr/bin/noisy rm,
}
"""


# -- the core in isolation ------------------------------------------------------

class TestAvcCore:
    def test_miss_insert_hit(self):
        core = AvcCore()
        hit, _ = core.lookup("k")
        assert not hit and core.misses == 1
        core.insert("k", 7)
        hit, value = core.lookup("k")
        assert hit and value == 7 and core.hits == 1

    def test_bump_epoch_invalidates_in_o1(self):
        core = AvcCore()
        for i in range(100):
            core.insert(i, i)
        core.bump_epoch("test")
        assert len(core) == 100  # nothing walked eagerly...
        hit, _ = core.lookup(3)
        assert not hit           # ...but nothing stale is served
        assert core.stale_drops == 1
        assert len(core) == 99   # the tripped-over entry is reclaimed

    def test_flush_empties(self):
        core = AvcCore()
        core.insert("k", 1)
        core.flush()
        assert len(core) == 0 and core.flushes == 1

    def test_vector_partial_coverage_is_a_miss(self):
        core = AvcCore()
        core.insert("k", 0b100)
        assert core.lookup_vector("k", 0b100)
        assert not core.lookup_vector("k", 0b110)
        core.extend_vector("k", 0b010)
        assert core.lookup_vector("k", 0b110)

    def test_extend_vector_refuses_stale_entry(self):
        core = AvcCore()
        core.insert("k", 0b100)
        core.bump_epoch("test")
        core.extend_vector("k", 0b010)
        # The stale 0b100 must not have been merged in.
        assert not core.lookup_vector("k", 0b110)
        assert core.lookup_vector("k", 0b010)

    def test_lru_eviction_prefers_cold_entries(self):
        core = AvcCore(capacity=4)
        for key in "abcd":
            core.insert(key, 1)
        core.lookup("a")         # refresh: a is now most recent
        core.insert("e", 1)      # evicts b, the coldest
        assert core.lookup("a")[0]
        assert not core.lookup("b")[0]
        assert len(core) <= 4
        assert core.evictions == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            AvcCore(capacity=0)


# -- the framework fast path ----------------------------------------------------

@pytest.fixture
def world():
    sack = SackLsm()
    kernel, framework = boot_kernel([sack])
    sack.load_policy(parse_policy(POLICY))
    kernel.vfs.makedirs("/dev/car")
    kernel.vfs.create_file("/dev/car/door", mode=0o666)
    kernel.vfs.create_file("/dev/car/speed", mode=0o666)
    return kernel, framework, sack


def make_task(kernel, comm, uid=1000):
    task = kernel.sys_fork(kernel.procs.init)
    task.comm = comm
    task.cred = user_credentials(uid)
    return task


def read_once(kernel, task, path):
    fd = kernel.sys_open(task, path, OpenFlags.O_RDONLY)
    kernel.sys_read(task, fd, 4)
    kernel.sys_close(task, fd)


class TestFrameworkAvc:
    def test_repeated_allow_hits(self, world):
        kernel, framework, _ = world
        task = make_task(kernel, "app")
        core = framework.avc.core
        read_once(kernel, task, "/dev/car/speed")
        hits_before = core.hits
        read_once(kernel, task, "/dev/car/speed")
        assert core.hits > hits_before

    def test_denials_are_never_cached(self, world):
        kernel, framework, sack = world
        task = make_task(kernel, "app")
        for expected in (1, 2):
            with pytest.raises(KernelError):
                kernel.sys_open(task, "/dev/car/door", OpenFlags.O_WRONLY)
            # Every denial reached the module (side effects intact).
            assert sack.denial_count == expected

    def test_transition_bumps_epoch_and_invalidates(self, world):
        kernel, framework, sack = world
        task = make_task(kernel, "app")
        read_once(kernel, task, "/dev/car/speed")
        read_once(kernel, task, "/dev/car/speed")
        core = framework.avc.core
        epoch = core.epoch
        sack.ssm.process_event(SituationEvent(name="crash_detected"))
        assert core.epoch > epoch
        stale_before = core.stale_drops
        read_once(kernel, task, "/dev/car/speed")
        assert core.stale_drops > stale_before

    def test_decisions_identical_after_transition(self, world):
        kernel, framework, sack = world
        rescue = make_task(kernel, "rescue_daemon")
        # normal: rescue_daemon may not write the door...
        with pytest.raises(KernelError):
            kernel.sys_open(rescue, "/dev/car/door", OpenFlags.O_WRONLY)
        sack.ssm.process_event(SituationEvent(name="crash_detected"))
        # ...but may after the crash; a cached denial would break this.
        fd = kernel.sys_open(rescue, "/dev/car/door", OpenFlags.O_WRONLY)
        kernel.sys_write(rescue, fd, b"x")
        sack.ssm.process_event(SituationEvent(name="emergency_cleared"))
        # And the revocation direction: the allow must not outlive the
        # emergency (sys_write consults file_permission on the open fd).
        with pytest.raises(KernelError):
            kernel.sys_write(rescue, fd, b"x")

    def test_mac_override_gets_its_own_cache_line(self, world):
        kernel, framework, _ = world
        app = make_task(kernel, "app")
        root = kernel.sys_fork(kernel.procs.init)
        root.comm = "app"  # same comm, different privilege
        fd = kernel.sys_open(root, "/dev/car/door", OpenFlags.O_WRONLY)
        kernel.sys_close(root, fd)
        with pytest.raises(KernelError):
            kernel.sys_open(app, "/dev/car/door", OpenFlags.O_WRONLY)

    def test_disable_stops_caching(self, world):
        kernel, framework, _ = world
        framework.avc.enabled = False
        task = make_task(kernel, "app")
        read_once(kernel, task, "/dev/car/speed")
        read_once(kernel, task, "/dev/car/speed")
        assert framework.avc.core.hits == 0

    def test_policy_load_bumps_epoch(self, world):
        kernel, framework, sack = world
        epoch = framework.avc.core.epoch
        sack.load_policy(parse_policy(POLICY))
        assert framework.avc.core.epoch > epoch

    def test_compute_av_fills_whole_vector(self, world):
        kernel, framework, sack = world
        rescue = make_task(kernel, "rescue_daemon")
        sack.ssm.process_event(SituationEvent(name="crash_detected"))
        # A read-only open walks the modules once; compute_av() proves
        # the write bit in the same fill...
        fd = kernel.sys_open(rescue, "/dev/car/door", OpenFlags.O_RDONLY)
        kernel.sys_close(rescue, fd)
        # ...so a write-side open hits without another policy walk.
        checks_before = sack.ape.check_count
        kernel.sys_open(rescue, "/dev/car/door", OpenFlags.O_WRONLY)
        assert sack.ape.check_count == checks_before

    def test_hook_stats_identical_with_and_without_cache(self):
        def run(enabled):
            sack = SackLsm()
            kernel, framework = boot_kernel([sack], collect_stats=True)
            framework.avc.enabled = enabled
            sack.load_policy(parse_policy(POLICY))
            kernel.vfs.makedirs("/dev/car")
            kernel.vfs.create_file("/dev/car/speed", mode=0o666)
            task = make_task(kernel, "app")
            for _ in range(5):
                read_once(kernel, task, "/dev/car/speed")
            return framework.stats.snapshot()

        assert run(True) == run(False)


class TestCacheabilityGates:
    def test_opaque_module_poisons_only_its_hooks(self):
        class Opaque(LsmModule):
            name = "opaque"
            calls = 0

            def file_open(self, task, file) -> int:
                type(self).calls += 1
                return 0

        opaque = Opaque()
        sack = SackLsm()
        kernel, framework = boot_kernel([sack, opaque])
        sack.load_policy(parse_policy(POLICY))
        kernel.vfs.makedirs("/dev/car")
        kernel.vfs.create_file("/dev/car/speed", mode=0o666)
        assert framework._plans[Hook.FILE_OPEN].extractor is None
        # file_permission has only cacheable modules on its list.
        assert framework._plans[Hook.FILE_PERMISSION].extractor is not None
        task = make_task(kernel, "app")
        read_once(kernel, task, "/dev/car/speed")
        read_once(kernel, task, "/dev/car/speed")
        assert Opaque.calls == 2  # every open reached the module

    def test_complain_mode_vetoes_caching(self):
        apparmor = AppArmorLsm()
        apparmor.policy.load_text(PROFILES)
        kernel, framework = boot_kernel([apparmor])
        kernel.vfs.create_file("/data", mode=0o666)
        task = make_task(kernel, "noisy")
        apparmor.confine(task, "noisy")
        before = apparmor.complain_count
        for _ in range(3):
            read_once(kernel, task, "/data")
        # Every complain-mode access produced its audit side effect —
        # two per read (file_open and file_permission), none swallowed.
        assert apparmor.complain_count == before + 6

    def test_profile_reload_bumps_epoch(self):
        apparmor = AppArmorLsm()
        apparmor.policy.load_text(PROFILES)
        kernel, framework = boot_kernel([apparmor])
        epoch = framework.avc.core.epoch
        apparmor.policy.load_text(PROFILES)
        assert framework.avc.core.epoch > epoch

    def test_profile_reload_revokes_cached_allow(self):
        apparmor = AppArmorLsm()
        apparmor.policy.load_text(PROFILES)
        kernel, framework = boot_kernel([apparmor])
        kernel.vfs.makedirs("/data")
        kernel.vfs.create_file("/data/f", mode=0o666)
        task = make_task(kernel, "confined")
        apparmor.confine(task, "confined")
        read_once(kernel, task, "/data/f")
        read_once(kernel, task, "/data/f")  # cached allow
        tightened = PROFILES.replace("/data/** rw,", "/tmp/** rw,")
        apparmor.policy.load_text(tightened)
        with pytest.raises(KernelError):
            kernel.sys_open(task, "/data/f", OpenFlags.O_RDONLY)


class TestHookBitmap:
    def test_bitmap_reflects_implemented_hooks(self):
        sack = SackLsm()
        _, framework = boot_kernel([sack])
        assert framework._plans[Hook.FILE_OPEN] is not None
        assert framework._plans[Hook.CAPABLE] is not None
        # Nobody in this stack implements socket hooks.
        assert framework._plans[Hook.SOCKET_SENDMSG] is None

    def test_unimplemented_hook_allows_without_dispatch(self):
        sack = SackLsm()
        kernel, framework = boot_kernel([sack])
        task = make_task(kernel, "app")
        assert framework.task_kill(task, task) == 0
