"""Serve settings: the server-level knobs, env-readable for Docker.

This module is the *only* place the serve layer reads the environment
(``tests/perf/test_hashseed_determinism.py`` allows env reads solely in
``config`` modules and the trace cache): the Docker entrypoint configures the server entirely through
``REPRO_SERVE_*`` variables, and the ``repro serve`` CLI flags override
whatever the environment provided.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, Optional

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "DEFAULT_BATCH_REQUESTS",
    "DEFAULT_MAX_SESSIONS",
    "ServeSettings",
    "settings_from_env",
]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 9911
#: Requests a tenant buffers before the server steps its devices.
DEFAULT_BATCH_REQUESTS = 256
DEFAULT_MAX_SESSIONS = 64


@dataclass(frozen=True)
class ServeSettings:
    """How one ``repro serve`` process runs.

    ``checkpoint_dir`` enables durability: sessions checkpoint there on
    detach, on periodic ``checkpoint_every`` boundaries and during
    graceful shutdown, and an ``open`` for a checkpointed tenant
    resumes its device state exactly.  ``obs_path`` streams every
    incremental/final session record through the
    :class:`~repro.obs.export.JsonlWriter` JSONL surface.  ``jobs``
    bounds the worker threads that step tenant devices (``0`` = all
    cores).
    """

    host: str = DEFAULT_HOST
    port: int = DEFAULT_PORT
    checkpoint_dir: Optional[str] = None
    obs_path: Optional[str] = None
    max_sessions: int = DEFAULT_MAX_SESSIONS
    batch_requests: int = DEFAULT_BATCH_REQUESTS
    #: Checkpoint a session every N served requests (None = only on
    #: detach/shutdown).  Periodic checkpoints are what make a *hard*
    #: kill (SIGKILL) resumable; graceful shutdown checkpoints anyway.
    checkpoint_every: Optional[int] = None
    jobs: int = 1
    #: Session defaults applied when an ``open`` message omits them.
    default_seed: Optional[int] = None
    check_interval: Optional[int] = None
    oracle: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ValueError("port must be in [0, 65535] (0 = ephemeral)")
        if self.max_sessions <= 0:
            raise ValueError("max_sessions must be positive")
        if self.batch_requests <= 0:
            raise ValueError("batch_requests must be positive")
        if self.checkpoint_every is not None and self.checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive when set")
        if self.jobs < 0:
            raise ValueError("jobs must be >= 0 (0 = all cores)")


def _env_int(
    environ: Mapping[str, str], key: str, default: Optional[int]
) -> Optional[int]:
    raw = environ.get(key)
    if raw is None or raw == "":
        return default
    return int(raw)


def settings_from_env(
    environ: Optional[Mapping[str, str]] = None,
) -> ServeSettings:
    """Settings from ``REPRO_SERVE_*`` variables (Docker's surface).

    Unset variables fall back to the dataclass defaults; the CLI layers
    its flags on top of the result.
    """
    env = os.environ if environ is None else environ
    return ServeSettings(
        host=env.get("REPRO_SERVE_HOST", DEFAULT_HOST),
        port=_env_int(env, "REPRO_SERVE_PORT", DEFAULT_PORT),
        checkpoint_dir=env.get("REPRO_SERVE_CHECKPOINT_DIR") or None,
        obs_path=env.get("REPRO_SERVE_OBS") or None,
        max_sessions=_env_int(
            env, "REPRO_SERVE_MAX_SESSIONS", DEFAULT_MAX_SESSIONS
        ),
        batch_requests=_env_int(
            env, "REPRO_SERVE_BATCH_REQUESTS", DEFAULT_BATCH_REQUESTS
        ),
        checkpoint_every=_env_int(env, "REPRO_SERVE_CHECKPOINT_EVERY", None),
        jobs=_env_int(env, "REPRO_SERVE_JOBS", 1),
    )
