"""repro.fleet — fleet-scale sharded simulation over the Device lifecycle.

A fleet consistent-hashes the logical address space across ``N``
simulated drives (shards) and replays each shard's slice of the workload
on its own :class:`~repro.experiments.device.Device`.  Shards are pure
functions of their :class:`ShardSpec`, so they fan out to long-lived
worker processes on the :mod:`repro.perf` engine and collect in
deterministic shard order — ``jobs=1`` and ``jobs=N`` produce
bit-identical per-shard digests (the fleet determinism tests enforce
it, and ``make bench`` checks it on the fleet cell it times).

Layering: this package sits in the harness layer next to
:mod:`repro.experiments` and :mod:`repro.perf`; device-model packages
(core/flash/ftl/sim) must never import it (enforced by
``tests/unit/test_import_layers.py``).
"""

from .aggregate import FleetResult, PoolModeComparison
from .fleet import (
    FleetSpec,
    ShardSpec,
    compare_pool_modes,
    execute_shard,
    run_fleet,
)
from .ring import HashRing

__all__ = [
    "FleetResult",
    "FleetSpec",
    "HashRing",
    "PoolModeComparison",
    "ShardSpec",
    "compare_pool_modes",
    "execute_shard",
    "run_fleet",
]
