"""repro.perf — parallel, cache-aware experiment engine.

Cooperating pieces turn the serial one-process evaluation matrix into
a parallel one without changing a single result bit:

- :mod:`.trace_cache` — content-keyed trace cache (profile hash →
  materialised trace, in-memory LRU + optional disk tier), so each
  workload's trace is generated once per matrix instead of once per cell.
- :mod:`.spec` / :mod:`.parallel` — picklable :class:`RunSpec` cells and
  a ``ProcessPoolExecutor`` fan-out with ordered deterministic collection
  (``jobs=N`` is digest-identical to ``jobs=1``).

Each cell preconditions its own drive in one bulk pass
(:meth:`~repro.ftl.ftl.BaseFTL.precondition`); :mod:`.snapshot` holds
only the serve layer's live mid-run checkpoint.

Host-time measurement lives outside the package: ``replaybench/``
times replays and ``make bench`` (``benchmarks/bench.py``) writes the
tracked ``BENCH_replay.json`` from it.

Attribute access is lazy (PEP 562): :mod:`repro.experiments.runner`
imports the trace cache at module level while :mod:`.spec` imports the
runner, so eager re-exports here would complete a cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

__all__ = [
    "RunSpec",
    "execute_spec",
    "result_digest",
    "pool_chunksize",
    "resolve_jobs",
    "run_specs",
    "TraceCache",
    "profile_cache_key",
    "default_trace_cache",
    "cached_trace",
]

_EXPORTS = {
    "RunSpec": ".spec",
    "execute_spec": ".spec",
    "result_digest": ".spec",
    "pool_chunksize": ".parallel",
    "resolve_jobs": ".parallel",
    "run_specs": ".parallel",
    "TraceCache": ".trace_cache",
    "profile_cache_key": ".trace_cache",
    "default_trace_cache": ".trace_cache",
    "cached_trace": ".trace_cache",
}

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from .parallel import pool_chunksize, resolve_jobs, run_specs
    from .spec import RunSpec, execute_spec, result_digest
    from .trace_cache import (
        TraceCache,
        cached_trace,
        default_trace_cache,
        profile_cache_key,
    )


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(module, __name__), name)


def __dir__():
    return sorted(__all__)
