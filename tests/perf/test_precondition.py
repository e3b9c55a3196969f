"""Bulk preconditioning leaves exactly the drive the write loop leaves.

``BaseFTL.precondition`` is the repo's only way to a preconditioned
drive.  The reference here is the loop it replaced, written inline: one
``write`` per page, then the counter and pool-statistics reset.  The
loop runs with the pool detached, because the bulk pass never consults
the pool; for every system but ``adaptive-dvp`` a pool-attached loop
leaves the same drive too (each lookup misses and only moves statistics
the reset clears).  Equality is of the whole pickled FTL, so every
table, index, counter, insertion order and cross-reference is covered.
"""

import pickle

import pytest

from repro.check import InvariantChecker
from repro.core.dvp import PoolStats
from repro.core.hashing import fingerprint_of_value
from repro.experiments.device import Device
from repro.experiments.runner import config_for_profile, scaled_pool_entries
from repro.faults.model import FaultConfig, FaultModel
from repro.flash.config import SSDConfig
from repro.ftl.dvp_ftl import SYSTEMS, build_system
from repro.ftl.ftl import FTLCounters, PreconditionError
from repro.traces.profiles import profile_by_name
from repro.traces.synthetic import initial_value_of

#: A drive the workload nearly fills (mail) and a sparse one (web).
PROFILES = {
    "mail@0.05": profile_by_name("mail").scaled(0.05),
    "web@0.02": profile_by_name("web").scaled(0.02),
}
POOL_ENTRIES = scaled_pool_entries(200_000, 0.05)


def initial_fingerprints(pages, stride=1):
    return [
        fingerprint_of_value(initial_value_of(lpn * stride))
        for lpn in range(pages)
    ]


def write_loop(ftl, fingerprints, detach_pool=True):
    """The per-page reference: write each page, then reset the counters
    and pool statistics so only what follows is measured."""
    pool = ftl.pool
    if detach_pool:
        ftl.pool = None
    for lpn, fingerprint in enumerate(fingerprints):
        ftl.write(lpn, fingerprint)
    ftl.pool = pool
    ftl.counters = FTLCounters()
    if pool is not None:
        pool.stats = PoolStats()
    return ftl


def state(ftl):
    return pickle.dumps(ftl, protocol=pickle.HIGHEST_PROTOCOL)


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("system", sorted(SYSTEMS))
class TestMatchesWriteLoop:
    def test_precondition_matches_loop(self, system, profile):
        profile = PROFILES[profile]
        config = config_for_profile(profile)
        fingerprints = initial_fingerprints(profile.total_pages)
        bulk = build_system(system, config, POOL_ENTRIES)
        bulk.precondition(fingerprints)
        reference = write_loop(
            build_system(system, config, POOL_ENTRIES), fingerprints
        )
        assert state(bulk) == state(reference)
        bulk.check_invariants()

    def test_device_paths_match_loop(self, system, profile):
        profile = PROFILES[profile]
        config = config_for_profile(profile)
        device = Device(system, config, POOL_ENTRIES).precondition(profile)
        reference = write_loop(
            build_system(system, config, POOL_ENTRIES),
            initial_fingerprints(profile.total_pages),
        )
        assert state(device.ftl) == state(reference)
        # The fleet shard content model: local page i holds the initial
        # value of some global LBA (every third one here).
        shard = initial_fingerprints(profile.total_pages // 3, stride=3)
        device = Device(system, config, POOL_ENTRIES).precondition_pages(shard)
        reference = write_loop(
            build_system(system, config, POOL_ENTRIES), shard
        )
        assert state(device.ftl) == state(reference)


@pytest.mark.parametrize(
    "system", sorted(set(SYSTEMS) - {"adaptive-dvp"})
)
def test_pool_attached_loop_matches(system):
    profile = PROFILES["mail@0.05"]
    config = config_for_profile(profile)
    fingerprints = initial_fingerprints(profile.total_pages)
    bulk = build_system(system, config, POOL_ENTRIES)
    bulk.precondition(fingerprints)
    reference = write_loop(
        build_system(system, config, POOL_ENTRIES),
        fingerprints,
        detach_pool=False,
    )
    assert state(bulk) == state(reference)


def test_adaptive_window_starts_fresh():
    """The pool-attached loop would have ticked the adaptation window
    once per page; the bulk pass leaves it where a new pool starts."""
    profile = PROFILES["mail@0.05"]
    ftl = build_system("adaptive-dvp", config_for_profile(profile), 512)
    ftl.precondition(initial_fingerprints(profile.total_pages))
    assert ftl.pool._window_events == 0


class TestRefusals:
    """Every case the bulk pass cannot match raises before any change."""

    @pytest.fixture
    def ftl(self):
        config = config_for_profile(PROFILES["web@0.02"])
        return build_system("mq-dvp", config, POOL_ENTRIES)

    def refused(self, ftl, fingerprints, match):
        before = state(ftl)
        with pytest.raises(PreconditionError, match=match):
            ftl.precondition(fingerprints)
        assert state(ftl) == before

    def test_written_drive(self, ftl):
        ftl.write(0, fingerprint_of_value(1))
        self.refused(ftl, initial_fingerprints(4), "not fresh")

    def test_mapped_drive_with_zero_clock(self, ftl):
        ftl.write(0, fingerprint_of_value(1))
        ftl.write_clock = 0
        self.refused(ftl, initial_fingerprints(4), "not fresh")

    def test_repeated_fingerprint(self, ftl):
        fingerprints = initial_fingerprints(4)
        self.refused(ftl, fingerprints + fingerprints[:1], "repeats")

    def test_more_fingerprints_than_logical_pages(self, ftl):
        pages = ftl.config.logical_pages + 1
        self.refused(ftl, initial_fingerprints(pages), "logical pages")

    def test_faults_attached(self, ftl):
        ftl.attach_faults(FaultModel(FaultConfig()))
        self.refused(ftl, initial_fingerprints(4), "fault model")

    def test_checker_attached(self, ftl):
        ftl.attach_checker(InvariantChecker())
        self.refused(ftl, initial_fingerprints(4), "checker")

    def test_read_only_drive(self, ftl):
        ftl.enter_read_only()
        self.refused(ftl, initial_fingerprints(4), "read-only")

    def test_below_gc_low_watermark(self):
        # 2% spare: filling every logical page leaves each plane fewer
        # free blocks than the watermark, so the loop would collect.
        config = SSDConfig(
            channels=2,
            chips_per_channel=2,
            dies_per_chip=1,
            planes_per_die=1,
            blocks_per_plane=16,
            pages_per_block=16,
            overprovision=0.02,
        )
        ftl = build_system("baseline", config, POOL_ENTRIES)
        pages = config.logical_pages
        assert ftl.allocator.lowest_free_blocks(pages) < ftl.gc.low_watermark
        self.refused(ftl, initial_fingerprints(pages), "watermark")


@pytest.mark.parametrize("pages", [0, 1, 3, 4, 5, 63, 64, 65, 200, 870])
@pytest.mark.parametrize("warmup", [0, 1, 7, 70])
def test_lowest_free_blocks_matches_allocation(tiny_config, pages, warmup):
    """The prediction equals the fewest free blocks the plane of each of
    the next ``pages`` allocations held right before it."""
    allocator = build_system("baseline", tiny_config, 64).allocator
    for _ in range(warmup):
        allocator.allocate()
    predicted = allocator.lowest_free_blocks(pages)
    seen = len(allocator.free_blocks[allocator.plane_of_next_write()])
    for _ in range(pages):
        plane = allocator.plane_of_next_write()
        seen = min(seen, allocator.free_block_count(plane))
        allocator.allocate()
    assert predicted == seen
