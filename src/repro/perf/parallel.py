"""Process-pool fan-out over run specs with deterministic collection.

``run_specs`` is the single entry point the matrix, replication and CLI
layers share.  Results come back **in spec order** regardless of which
worker finished first (``Executor.map`` preserves input order), and each
cell is a pure function of its spec, so ``jobs=N`` is observably identical
to ``jobs=1`` — the determinism tests compare digests across both paths.

Workers are plain module-level functions (picklable by reference).
Before the pool spawns, the parent generates the trace of each distinct
profile once into the trace cache; under the default ``fork`` start
method on Linux the children inherit the warm cache copy-on-write and
skip generation.  (Under ``spawn`` each worker redoes the work —
results are identical either way, it only costs time.)  Each cell
preconditions its own drive in one bulk pass.

Cells are dispatched in contiguous chunks (one chunk per worker when the
spec list divides evenly) rather than one task per cell: a worker runs
its whole chunk in-process, so its local caches stay warm across the
chunk's cells and per-task dispatch overhead is paid per chunk.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence

from ..sim.metrics import RunResult
from .spec import RunSpec, execute_spec
from .trace_cache import default_trace_cache

__all__ = ["pool_chunksize", "resolve_jobs", "run_specs"]


def resolve_jobs(jobs: Optional[int], tasks: Optional[int] = None) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0`` means all cores.

    With ``tasks`` the result is additionally capped at the task count —
    a fleet of 4 long-lived shards can never keep more than 4 workers
    busy, so asking for 16 must not fork 12 idle processes.
    """
    if jobs is None or jobs == 0:
        jobs = os.cpu_count() or 1
    elif jobs < 0:
        raise ValueError("jobs must be >= 0")
    if tasks is not None and tasks > 0:
        jobs = min(jobs, tasks)
    return jobs


def pool_chunksize(task_count: int, workers: int) -> int:
    """Contiguous tasks per worker dispatch (at least 1).

    Floor division, deliberately: the old ceil division produced
    *oversized* chunks whenever the task count was not a multiple of the
    worker count — 6 cells over 4 workers became 3 chunks of 2, leaving
    one worker idle for the whole run.  That was tolerable for 8 tiny
    matrix cells but ruinous for the fleet's long-lived shards, where one
    idle worker is a whole shard-lifetime of lost parallelism.  Floor
    keeps at least ``workers`` dispatches whenever ``task_count >=
    workers`` (6 over 4 → chunksize 1 → six dispatches, everyone works)
    and still amortises dispatch overhead when the division is exact.
    """
    if task_count <= 0 or workers <= 0:
        return 1
    return max(1, task_count // workers)


def _prewarm_traces(specs: Sequence[RunSpec]) -> None:
    """Generate each distinct trace once in the parent process."""
    cache = default_trace_cache()
    seen = set()
    for spec in specs:
        profile = spec.profile()
        key = (profile.name, profile.seed, spec.scale)
        if key not in seen:
            seen.add(key)
            cache.get(profile)


def _run_spec_worker(spec: RunSpec) -> RunResult:
    return execute_spec(spec)


def run_specs(
    specs: Sequence[RunSpec], jobs: Optional[int] = 1
) -> List[RunResult]:
    """Execute ``specs``, returning results in spec order.

    ``jobs=1`` (the default) runs serially in-process — no pool, no
    pickling, observability intact.  ``jobs=None``/``0`` uses every core.
    An explicit ``jobs>1`` always uses the pool (the determinism tests
    rely on ``jobs=2`` actually exercising the parallel path).
    """
    jobs = resolve_jobs(jobs)
    if jobs == 1 or len(specs) <= 1:
        return [execute_spec(spec) for spec in specs]
    _prewarm_traces(specs)
    workers = min(jobs, len(specs))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(
            pool.map(
                _run_spec_worker,
                specs,
                chunksize=pool_chunksize(len(specs), workers),
            )
        )

