"""repro.serve — streamed multi-tenant trace service over the Device layer.

An asyncio TCP service accepting line-delimited JSON trace traffic from
many concurrent tenants (DESIGN.md §12).  Each tenant session drives
the same :class:`~repro.experiments.device.Device` lifecycle the batch
entry points use, so a streamed session finishes **digest-identical**
to the same trace run in batch — through
:func:`~repro.experiments.runner.run_system` for one drive, through
the fleet layer for a shard set.  Sessions checkpoint via
:mod:`repro.perf.snapshot` live-state capture, so a killed server
resumes every tenant's device state exactly.

Layering: the top of the stack.  Nothing below it — core, sim, ftl,
fleet, experiments — may import it (enforced by
``tests/unit/test_import_layers.py``); it emits only the unified
:mod:`repro.api` record schema.
"""

from .checkpoint import (
    CheckpointError,
    drop_checkpoint,
    list_checkpoints,
    load_checkpoint,
    save_checkpoint,
)
from .client import ServeClient, ServeClientError
from .config import ServeSettings, settings_from_env
from .manager import SessionManager
from .protocol import (
    CLIENT_TYPES,
    PROTOCOL_VERSION,
    SERVER_TYPES,
    ProtocolError,
    decode_message,
    encode_message,
)
from .server import ServeServer, run_server
from .session import (
    SESSION_STATE_VERSION,
    SessionConfig,
    SessionError,
    TenantSession,
    session_config_of_open,
)

__all__ = [
    "PROTOCOL_VERSION",
    "SESSION_STATE_VERSION",
    "CLIENT_TYPES",
    "SERVER_TYPES",
    "ProtocolError",
    "SessionError",
    "ServeClientError",
    "CheckpointError",
    "ServeSettings",
    "settings_from_env",
    "SessionConfig",
    "session_config_of_open",
    "TenantSession",
    "SessionManager",
    "ServeServer",
    "run_server",
    "ServeClient",
    "encode_message",
    "decode_message",
    "save_checkpoint",
    "load_checkpoint",
    "drop_checkpoint",
    "list_checkpoints",
]
