"""Reference model for the MultiQueue differential test.

A verbatim copy of ``MQEntry``, ``MultiQueue`` and
``queue_index_for_popularity`` as ``repro.core.mq`` defined them before
the touch/settle rewrite (one helper per step: ``_refresh``,
``_note_access``, ``_run_demotions``; hottest entry tracked by key).
``test_mq_differential.py`` drives it and the live class in lockstep.
Do not edit the class bodies: they are the oracle.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Generic, Hashable, List, Optional, Tuple, TypeVar


K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

#: Fallback expiration interval used before the hottest entry has been
#: re-accessed at least twice (mirrors the ``lifeTime`` parameter of the
#: original MQ algorithm).
DEFAULT_LIFETIME = 128


def queue_index_for_popularity(popularity: int, num_queues: int) -> int:
    """Target queue for an entry with the given reference count.

    Implements the paper's logarithmic placement rule
    ``floor(log2(popularity + 1))`` clamped to the available queues.
    """
    if popularity < 0:
        raise ValueError("popularity must be non-negative")
    index = (popularity + 1).bit_length() - 1
    return min(index, num_queues - 1)


@dataclass(slots=True)
class MQEntry(Generic[V]):
    """Bookkeeping attached to every key resident in the multi-queue."""

    payload: V
    popularity: int = 1
    queue_index: int = 0
    expire_time: int = 0
    last_access: int = 0
    prev_access: int = field(default=-1)


class MultiQueue(Generic[K, V]):
    """A capacity-bounded multi-queue container.

    Parameters
    ----------
    capacity:
        Maximum number of resident entries; inserting beyond it evicts.
    num_queues:
        Number of LRU queues (the paper uses 8 for the dead-value pool).
    default_lifetime:
        Expiration interval used until a hottest-entry re-access interval
        has been observed.
    """

    def __init__(
        self,
        capacity: int,
        num_queues: int = 8,
        default_lifetime: int = DEFAULT_LIFETIME,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if num_queues <= 0:
            raise ValueError("num_queues must be positive")
        self._capacity = capacity
        self._num_queues = num_queues
        self._queues: List["OrderedDict[K, None]"] = [
            OrderedDict() for _ in range(num_queues)
        ]
        self._entries: dict[K, MQEntry[V]] = {}
        self._hottest_key: Optional[K] = None
        self._hottest_interval = default_lifetime
        self._default_lifetime = default_lifetime
        # Counters exposed for tests and the ablation benchmarks.
        self.promotions = 0
        self.demotions = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def num_queues(self) -> int:
        return self._num_queues

    @property
    def hottest_interval(self) -> int:
        """Interval between the last two accesses of the hottest entry."""
        return self._hottest_interval

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def entry(self, key: K) -> Optional[MQEntry[V]]:
        """The :class:`MQEntry` for ``key``, or ``None`` if absent."""
        return self._entries.get(key)

    def get(self, key: K) -> Optional[V]:
        """Payload for ``key`` without touching recency/frequency."""
        entry = self._entries.get(key)
        return entry.payload if entry is not None else None

    def queue_lengths(self) -> List[int]:
        """Length of each queue, ``Q0`` first (used by tests and reports)."""
        return [len(q) for q in self._queues]

    def keys_in_queue(self, index: int) -> List[K]:
        """Keys of queue ``index`` from LRU head to MRU tail."""
        # Dict insertion order is the LRU->MRU contract, not hash order;
        # sorting here would destroy exactly the order callers want.
        return list(self._queues[index].keys())

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------

    def insert(
        self, key: K, payload: V, now: int, popularity: int = 1
    ) -> Optional[Tuple[K, V]]:
        """Insert a new ``key`` at the tail of the lowest queue.

        Returns the evicted ``(key, payload)`` when the insert pushed the
        container over capacity, else ``None``.  Inserting a resident key is
        a programming error; use :meth:`access` for that.
        """
        if key in self._entries:
            raise KeyError(f"key already resident: {key!r}")
        evicted = None
        if len(self._entries) >= self._capacity:
            evicted = self.evict_one()
        entry = MQEntry(
            payload=payload,
            popularity=max(1, popularity),
            queue_index=0,
            last_access=now,
        )
        entry.expire_time = now + self._hottest_interval
        self._entries[key] = entry
        self._queues[0][key] = None
        self._note_access(key, entry, now)
        self._run_demotions(now)
        return evicted

    def access(self, key: K, now: int) -> Optional[V]:
        """Record an access to ``key``: bump popularity, refresh, promote.

        Returns the payload, or ``None`` when the key is not resident.
        """
        entry = self._entries.get(key)
        if entry is None:
            return None
        entry.popularity += 1
        self._refresh(key, entry, now)
        self._note_access(key, entry, now)
        self._run_demotions(now)
        return entry.payload

    def set_popularity(self, key: K, popularity: int, now: int) -> None:
        """Overwrite the reference count (used when restoring the 1-byte
        popularity persisted in the LPN-to-PPN table) and re-place the entry.

        Unlike :meth:`access` — which promotes one queue per touch — a
        restore moves the entry straight to queue
        ``floor(log2(popularity + 1))``: the persisted count is history
        that was already earned, not a fresh access streak.
        """
        entry = self._entries.get(key)
        if entry is None:
            raise KeyError(key)
        entry.popularity = max(1, popularity)
        target = queue_index_for_popularity(entry.popularity, self._num_queues)
        if target != entry.queue_index:
            del self._queues[entry.queue_index][key]
            if target > entry.queue_index:
                self.promotions += 1
            else:
                self.demotions += 1
            entry.queue_index = target
            self._queues[target][key] = None
        else:
            # Same queue: refresh recency (move to MRU tail).
            queue = self._queues[target]
            del queue[key]
            queue[key] = None
        entry.expire_time = now + self._hottest_interval
        self._note_access(key, entry, now)
        self._run_demotions(now)

    def _refresh(self, key: K, entry: MQEntry[V], now: int) -> None:
        """Move ``key`` to the tail of its (possibly promoted) queue."""
        target = queue_index_for_popularity(entry.popularity, self._num_queues)
        del self._queues[entry.queue_index][key]
        if target > entry.queue_index:
            # The paper promotes one queue at a time.
            entry.queue_index += 1
            self.promotions += 1
        self._queues[entry.queue_index][key] = None
        entry.prev_access = entry.last_access
        entry.last_access = now
        entry.expire_time = now + self._hottest_interval

    def _note_access(self, key: K, entry: MQEntry[V], now: int) -> None:
        """Update the hottest-entry tracking described in Section IV-C."""
        hottest = (
            self._entries.get(self._hottest_key)
            if self._hottest_key is not None
            else None
        )
        if hottest is None or entry.popularity >= hottest.popularity:
            self._hottest_key = key
        if key == self._hottest_key and entry.prev_access >= 0:
            interval = entry.last_access - entry.prev_access
            if interval > 0:
                self._hottest_interval = interval

    def _run_demotions(self, now: int) -> None:
        """Check each queue's LRU head and demote it if expired."""
        for index in range(1, self._num_queues):
            queue = self._queues[index]
            if not queue:
                continue
            head_key = next(iter(queue))
            entry = self._entries[head_key]
            if entry.expire_time <= now:
                del queue[head_key]
                entry.queue_index = index - 1
                self._queues[index - 1][head_key] = None
                entry.expire_time = now + self._hottest_interval
                self.demotions += 1

    def set_capacity(self, capacity: int) -> List[Tuple[K, V]]:
        """Resize the container; shrinking evicts coldest-first.

        Returns the entries evicted to fit the new capacity (empty when
        growing).  Supports the dynamic-capacity extension the paper lists
        as future work (Section V-A, footnote 5).
        """
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        evicted: List[Tuple[K, V]] = []
        while len(self._entries) > self._capacity:
            victim = self.evict_one()
            if victim is None:
                break
            evicted.append(victim)
        return evicted

    def evict_one(self) -> Optional[Tuple[K, V]]:
        """Evict the LRU head of the lowest non-empty queue."""
        for queue in self._queues:
            if queue:
                key, _ = queue.popitem(last=False)
                entry = self._entries.pop(key)
                if key == self._hottest_key:
                    self._hottest_key = None
                self.evictions += 1
                return key, entry.payload
        return None

    def remove(self, key: K) -> Optional[V]:
        """Remove ``key`` outright (reuse by a write, or erased by GC)."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return None
        del self._queues[entry.queue_index][key]
        if key == self._hottest_key:
            self._hottest_key = None
        return entry.payload

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` on internal inconsistency (test hook)."""
        total = sum(len(q) for q in self._queues)
        assert total == len(self._entries), "queue/entry count mismatch"
        assert total <= self._capacity, "capacity exceeded"
        for index, queue in enumerate(self._queues):
            for key in queue:
                entry = self._entries[key]
                assert entry.queue_index == index, f"stale queue index for {key!r}"
