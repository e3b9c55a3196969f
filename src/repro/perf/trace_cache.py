"""Content-keyed trace cache: one generation per profile, not per cell.

The evaluation matrix (Figures 5, 9-12) replays the *same* workload trace
against many systems and pool sizes.  Before this layer existed every cell
re-ran :func:`~repro.traces.synthetic.generate_trace`, so an N-system sweep
paid the (substantial) generation cost N times.

A trace is fully determined by its :class:`~repro.traces.profiles.
WorkloadProfile` — the generator is seeded and pure — so the cache keys on
a stable content hash of the profile (:func:`profile_cache_key`): equal
profiles share one materialised trace, and changing *any* field (the seed
included) produces a different key.  Entries live in a bounded in-memory
LRU; an optional on-disk layer (``disk_dir``, or the ``REPRO_TRACE_CACHE``
environment variable for the process-default cache) persists traces across
processes and sessions, which is what lets parallel workers and repeated
benchmark invocations skip regeneration entirely.

Cached traces are shared objects: callers must treat them as immutable
(the simulator only ever iterates them).
"""

from __future__ import annotations

import hashlib
import os
import pickle
from collections import OrderedDict
from typing import Optional, Tuple

from ..sim.request import IORequest
from ..traces.profiles import WorkloadProfile
from ..traces.synthetic import generate_trace

__all__ = [
    "profile_cache_key",
    "TraceCache",
    "default_trace_cache",
    "cached_trace",
]

#: Bump when the trace format or generator semantics change, so stale
#: on-disk entries can never be mistaken for current ones.  v2: traces
#: are stored and returned as tuples (shared entries must be immutable).
_KEY_VERSION = "repro-trace/v2"

#: What reading a truncated or foreign entry can raise: the pickle
#: module documents the last four besides ``UnpicklingError``;
#: ``ValueError`` is an unsupported protocol and ``TypeError`` a pickle
#: that does not hold a sequence.
_UNREADABLE = (
    OSError,
    pickle.UnpicklingError,
    ValueError,
    TypeError,
    AttributeError,
    EOFError,
    ImportError,
    IndexError,
)


def profile_cache_key(profile: WorkloadProfile) -> str:
    """Stable content key of a workload profile.

    Hashes every generator input (the dataclass repr covers all fields,
    targets and seed included) plus a format version.  Deterministic
    across processes and platforms — unlike ``hash()``, which is salted.
    """
    payload = f"{_KEY_VERSION}:{profile!r}".encode()
    return hashlib.sha256(payload).hexdigest()


class TraceCache:
    """Bounded in-memory LRU of materialised traces, with optional disk tier.

    Parameters
    ----------
    disk_dir:
        Directory for pickled traces (created on first write), or ``None``
        for memory-only operation.  Writes are atomic (temp file + rename),
        so concurrent worker processes race benignly.
    max_entries:
        In-memory entry bound; least recently used traces are dropped
        (they remain on disk if a disk tier is configured).
    """

    def __init__(
        self, disk_dir: Optional[str] = None, max_entries: int = 16
    ):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.disk_dir = disk_dir
        self.max_entries = max_entries
        self._mem: "OrderedDict[str, Tuple[IORequest, ...]]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._mem)

    def __contains__(self, profile: WorkloadProfile) -> bool:
        return profile_cache_key(profile) in self._mem

    # ------------------------------------------------------------------

    def get(self, profile: WorkloadProfile) -> Tuple[IORequest, ...]:
        """The trace for ``profile`` — generated at most once per key,
        returned as an immutable tuple (the entry is shared)."""
        key = profile_cache_key(profile)
        trace = self._mem.get(key)
        if trace is not None:
            self._mem.move_to_end(key)
            self.hits += 1
            return trace
        trace = self._load_disk(key)
        if trace is not None:
            self.hits += 1
            self._remember(key, trace)
            return trace
        self.misses += 1
        trace = tuple(generate_trace(profile))
        self._remember(key, trace)
        self._store_disk(key, trace)
        return trace

    def clear(self) -> None:
        """Drop every in-memory entry (the disk tier is left alone)."""
        self._mem.clear()

    # ------------------------------------------------------------------

    def _remember(self, key: str, trace: Tuple[IORequest, ...]) -> None:
        self._mem[key] = trace
        self._mem.move_to_end(key)
        while len(self._mem) > self.max_entries:
            self._mem.popitem(last=False)

    def _disk_path(self, key: str) -> str:
        return os.path.join(self.disk_dir, f"{key}.trace.pkl")

    def _load_disk(self, key: str) -> Optional[Tuple[IORequest, ...]]:
        if self.disk_dir is None:
            return None
        path = self._disk_path(key)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "rb") as f:
                return tuple(pickle.load(f))
        except _UNREADABLE:
            # A torn or foreign entry is a miss: the caller regenerates
            # and ``_store_disk`` atomically replaces the file.
            return None

    def _store_disk(self, key: str, trace: Tuple[IORequest, ...]) -> None:
        if self.disk_dir is None:
            return
        os.makedirs(self.disk_dir, exist_ok=True)
        path = self._disk_path(key)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as f:
            pickle.dump(trace, f, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)


_default: Optional[TraceCache] = None


def default_trace_cache() -> TraceCache:
    """The process-wide cache (disk tier from ``REPRO_TRACE_CACHE``)."""
    global _default
    if _default is None:
        _default = TraceCache(disk_dir=os.environ.get("REPRO_TRACE_CACHE"))
    return _default


def cached_trace(profile: WorkloadProfile) -> Tuple[IORequest, ...]:
    """One-call helper against the process-default cache."""
    return default_trace_cache().get(profile)
