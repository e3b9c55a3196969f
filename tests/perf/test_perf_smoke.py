"""perf-smoke marker: a tiny end-to-end pass through the parallel engine.

Selected with ``-m perf_smoke`` (``make perf-smoke``); also runs as part
of the plain tier-1 suite.  Kept tiny — two workloads, three systems,
``--jobs 2`` — so it exercises the process-pool round trip and the
caches in seconds.
"""

import pytest

from repro.perf.parallel import pool_chunksize, resolve_jobs, run_specs
from repro.perf.spec import RunSpec, result_digest

SCALE = 0.004
SPECS = [
    RunSpec(w, s, scale=SCALE)
    for w in ("web", "trans")
    for s in ("baseline", "mq-dvp", "dedup")
]


@pytest.mark.perf_smoke
class TestPerfSmoke:
    def test_tiny_matrix_parallel_round_trip(self):
        results = run_specs(SPECS, jobs=2)
        assert len(results) == len(SPECS)
        for spec, result in zip(SPECS, results):
            assert result.system == spec.system
            assert result.workload == spec.workload
            assert result.reads.count + result.writes.count > 0

    def test_parallel_identical_to_serial(self):
        serial = [result_digest(r) for r in run_specs(SPECS, jobs=1)]
        parallel = [result_digest(r) for r in run_specs(SPECS, jobs=2)]
        assert serial == parallel


class TestResolveJobs:
    def test_explicit(self):
        assert resolve_jobs(3) == 3

    def test_all_cores(self):
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(None) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)

    def test_capped_at_task_count(self):
        # A fleet of 4 long-lived shards can never keep 16 workers busy.
        assert resolve_jobs(16, tasks=4) == 4
        assert resolve_jobs(2, tasks=4) == 2
        assert resolve_jobs(0, tasks=1) == 1

    def test_task_cap_ignored_when_not_positive(self):
        assert resolve_jobs(3, tasks=0) == 3
        assert resolve_jobs(3, tasks=None) == 3


class TestPoolChunksize:
    def test_no_idle_workers_on_uneven_split(self):
        # The old ceil division gave 6 tasks / 4 workers chunksize 2 —
        # three chunks, one worker idle for the whole run.  Floor keeps
        # everyone busy.
        assert pool_chunksize(6, 4) == 1

    def test_exact_division_amortises_dispatch(self):
        assert pool_chunksize(8, 4) == 2
        assert pool_chunksize(4, 4) == 1

    def test_never_below_one(self):
        assert pool_chunksize(2, 4) == 1
        assert pool_chunksize(0, 4) == 1
        assert pool_chunksize(5, 0) == 1

    def test_long_lived_shard_shape(self):
        # One chunk per worker when shards == workers: each worker owns
        # exactly one long-lived shard.
        for shards in (2, 4, 8):
            assert pool_chunksize(shards, shards) == 1
