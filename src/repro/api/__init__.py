"""repro.api — the versioned, frozen result/session schema surface.

Every machine-readable output in the repo (CLI ``--json``, the obs/fleet
JSONL exporters, every ``repro serve`` response) emits one shape: the
:class:`~repro.api.schema.ResultRecord` under schema ``repro.api/v1``.
:func:`~repro.api.schema.parse_record` is the only sanctioned way back
in; it refuses unknown versions and kinds instead of guessing.

Layering: sits above the device layers, below the front-ends that
serialise records.  ``repro.core``/``repro.sim``/``repro.ftl`` must
never import it (enforced by ``tests/unit/test_import_layers.py``).
"""

from .schema import (
    KINDS,
    SCHEMA,
    SCHEMA_VERSION,
    LatencySummary,
    ResultRecord,
    SchemaError,
    aggregate_record,
    parse_record,
    record_from_kv_run,
    record_from_run,
    records_from_fleet,
    records_from_kv_ablation,
    session_digest,
)

__all__ = [
    "KINDS",
    "SCHEMA",
    "SCHEMA_VERSION",
    "LatencySummary",
    "ResultRecord",
    "SchemaError",
    "aggregate_record",
    "parse_record",
    "record_from_kv_run",
    "record_from_run",
    "records_from_fleet",
    "records_from_kv_ablation",
    "session_digest",
]
