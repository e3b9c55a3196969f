"""Fleet determinism: jobs=1 and jobs=N mint bit-identical shard digests.

The fleet's contract mirrors the matrix engine's: every shard is a pure
function of its :class:`~repro.fleet.ShardSpec`, results collect in
shard order, and the per-shard ``result_digest`` tuples must match
across any worker count.  Chunked stepping must also be invisible: the
chunk size only bounds batch memory, never the outcome.

``TRACKED_FLEET_DIGEST`` pins the GC-bound fleet cell ``make bench``
times (mail/mq-dvp, 4 shards, scale 0.2), so a change to routing, shard
remapping or any shard's replay shows here as well as in the small-scale
identity tests.
"""

import pytest

from repro.fleet import FleetSpec, execute_shard, run_fleet
from repro.perf.spec import result_digest

SCALE = 0.02
SPEC = FleetSpec(workload="mail", system="mq-dvp", shards=4, scale=SCALE)

TRACKED_FLEET_SPEC = FleetSpec(
    workload="mail", system="mq-dvp", shards=4, scale=0.2
)
TRACKED_FLEET_DIGEST = (
    "081c67986dc804522b1b58d500ff733cecdc36d596f9112f6312107f0cdc633e"
)


@pytest.mark.fleet_smoke
class TestFleetDeterminism:
    def test_jobs_1_vs_jobs_8_bit_identical(self):
        serial = run_fleet(SPEC, jobs=1)
        parallel = run_fleet(SPEC, jobs=8)
        assert serial.shard_digests == parallel.shard_digests
        assert serial.fleet_digest == parallel.fleet_digest
        # jobs are capped at the shard count: 8 workers for 4 long-lived
        # shards would fork 4 idle processes.
        assert parallel.jobs <= SPEC.shards

    def test_tracked_fleet_digest(self):
        fleet = run_fleet(TRACKED_FLEET_SPEC, jobs=1)
        assert fleet.fleet_digest == TRACKED_FLEET_DIGEST

    def test_serial_path_matches_execute_shard_by_hand(self):
        fleet = run_fleet(SPEC, jobs=1)
        by_hand = [execute_shard(SPEC.shard(i)) for i in range(SPEC.shards)]
        assert fleet.shard_digests == tuple(
            result_digest(r) for r in by_hand
        )

    def test_chunk_size_is_invisible(self):
        import dataclasses

        small = run_fleet(
            dataclasses.replace(SPEC, chunk_requests=64), jobs=1
        )
        large = run_fleet(
            dataclasses.replace(SPEC, chunk_requests=1_000_000), jobs=1
        )
        assert small.shard_digests == large.shard_digests

    def test_checker_does_not_perturb_digests(self):
        import dataclasses

        plain = run_fleet(SPEC, jobs=1)
        checked = run_fleet(
            dataclasses.replace(SPEC, check_interval=250, oracle=True),
            jobs=1,
        )
        assert plain.shard_digests == checked.shard_digests

    def test_shard_labels_carry_fleet_coordinates(self):
        fleet = run_fleet(SPEC, jobs=1)
        labels = [r.workload for r in fleet.shard_results]
        assert labels == [
            f"mail/shard{i}of{SPEC.shards}" for i in range(SPEC.shards)
        ]


@pytest.mark.fleet_smoke
class TestFleetCoverage:
    def test_shards_partition_the_trace(self):
        """Every trace request lands on exactly one shard."""
        from repro.experiments.runner import ExperimentContext

        fleet = run_fleet(SPEC, jobs=1)
        context = ExperimentContext.for_workload("mail", SCALE)
        assert sum(fleet.shard_requests) == len(context.trace)

    def test_single_shard_fleet_equals_whole_trace(self):
        """A 1-shard fleet routes everything to shard 0."""
        from repro.experiments.runner import ExperimentContext

        one = run_fleet(
            FleetSpec(
                workload="mail", system="mq-dvp", shards=1, scale=SCALE
            ),
            jobs=1,
        )
        context = ExperimentContext.for_workload("mail", SCALE)
        assert one.shard_requests == (len(context.trace),)
