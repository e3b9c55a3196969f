"""Key→LPN translation: a KV store that speaks the simulator's page ops.

:class:`KVStore` maps string/int keys to flash locations and turns each
:class:`~repro.kv.requests.KVRequest` into the page-level
:class:`~repro.sim.request.IORequest`\\ s any in-tree FTL consumes:

* values of at least ``inline_threshold`` bytes occupy a private *extent*
  of whole pages (one WRITE per page; page ``i`` of content ``c`` always
  carries the same derived ``value_id``, so a recurring value reproduces
  recurring page contents — the hook value-locality revival needs).
  Overwrites reuse the extent's pages in place (the new WRITEs invalidate
  the old copies at the FTL) and TRIM any excess pages a shrinking value
  leaves behind;
* smaller values go through the revival-aware
  :class:`~repro.kv.inline.InlinePacker`;
* DELETE issues TRIMs for every page the key owned (the keyed workloads'
  TRIM-heavy profile rides on this) and frees the LPNs for reuse.

Keys are validated once per PUT/GET/DELETE, whatever the value size:
non-negative ``int`` or ``str`` only (:func:`~repro.kv.requests.check_key`).

The store is the *translation* layer only: it owns a logical address
allocator (smallest-free-first, deterministic) but never touches an FTL.
:func:`KVStore.translate` converts a lazy stream of KV requests into a
lazy stream of page requests, so billion-op keyed workloads stream
through without materialising either side — the same contract as the
trace transforms.  It services each op in one frame: the op's internal
handler returns the op's page requests as a list, each
:class:`~repro.sim.request.IORequest` built once, positionally, and
``translate`` yields them.  The public ``put``/``get``/``delete``/
``scan``/``flush`` generators wrap the same handlers and stay lazy.
Feeding that stream to a :class:`~repro.experiments.device.Device`
happens in :mod:`repro.kv.scenario`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..sim.request import IORequest, OpType
from .inline import FlashAction, InlinePacker, InlineSlot
from .requests import Key, KVOp, KVRequest, check_key, key_to_int, mix64

__all__ = ["KVStats", "KVStore", "page_value_id"]

_READ, _WRITE, _TRIM = OpType.READ, OpType.WRITE, OpType.TRIM


def page_value_id(content_id: int, page_index: int) -> int:
    """Content identity of page ``page_index`` of a multi-page value.

    Distinct ``(content_id, page_index)`` pairs spread over the 64-bit
    ``value_id`` space; the same content always reproduces the same page
    identities, whichever key (or extent) carries it."""
    return mix64(mix64(content_id) + 0x100000001 * (page_index + 1))


@dataclass(slots=True)
class KVStats:
    """Operation and translation counters of one KV run."""

    gets: int = 0
    get_misses: int = 0
    buffer_hits: int = 0        # GETs served from the open pack buffer
    puts: int = 0
    inserts: int = 0            # PUTs that created the key
    deletes: int = 0
    delete_misses: int = 0
    scans: int = 0
    scanned_keys: int = 0
    flash_reads: int = 0
    flash_writes: int = 0
    flash_trims: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            name: getattr(self, name)
            for name in self.__dataclass_fields__
        }


class KVStore:
    """One tenant's key→LPN translation state."""

    def __init__(
        self,
        page_bytes: int = 4096,
        inline_threshold: Optional[int] = None,
        repack_threshold: float = 0.5,
        max_pages: int = 0,
    ):
        if page_bytes <= 0:
            raise ValueError("page_bytes must be positive")
        if inline_threshold is None:
            inline_threshold = page_bytes // 2
        if not 0 < inline_threshold <= page_bytes:
            raise ValueError("inline_threshold must be in (0, page_bytes]")
        self.page_bytes = page_bytes
        self.inline_threshold = inline_threshold
        self.max_pages = max_pages
        self.stats = KVStats()
        #: key -> the LPNs of its extent, page order.
        self._extents: Dict[Key, Tuple[int, ...]] = {}
        self._free: List[int] = []
        self._next_lpn = 0
        self._packer = InlinePacker(
            page_bytes,
            alloc=self._alloc,
            release=self._release,
            repack_threshold=repack_threshold,
        )

    # -- allocator -----------------------------------------------------

    def _alloc(self) -> int:
        if self._free:
            return heapq.heappop(self._free)
        lpn = self._next_lpn
        if self.max_pages and lpn >= self.max_pages:
            raise RuntimeError(
                f"KV store exhausted its {self.max_pages}-page space"
            )
        self._next_lpn += 1
        return lpn

    def _release(self, lpn: int) -> None:
        heapq.heappush(self._free, lpn)

    @property
    def allocated_pages(self) -> int:
        """High-water logical footprint (drive sizing)."""
        return self._next_lpn

    @property
    def live_keys(self) -> int:
        return len(self._extents) + self._packer.live_count

    @property
    def packer(self) -> InlinePacker:
        return self._packer

    def counters(self) -> Dict[str, int]:
        """Operation counters plus the packer's, one flat dict."""
        merged = self.stats.as_dict()
        pack = self._packer.stats
        merged.update(
            pack_seals=pack.seals,
            pack_repacks=pack.repacks,
            pack_trims=pack.trims,
            inline_live=self._packer.live_count,
            extent_live=len(self._extents),
        )
        return merged

    # -- keyed operations ----------------------------------------------

    def put(
        self, key: Key, value_bytes: int, content_id: int, arrival_us: float
    ) -> Iterator[IORequest]:
        """(Over)write ``key``; yields this op's page requests."""
        yield from self._put(key, value_bytes, content_id, arrival_us)

    def get(self, key: Key, arrival_us: float) -> Iterator[IORequest]:
        yield from self._get(key, arrival_us)

    def delete(self, key: Key, arrival_us: float) -> Iterator[IORequest]:
        yield from self._delete(key, arrival_us)

    def scan(
        self, start_key: int, length: int, arrival_us: float
    ) -> Iterator[IORequest]:
        """Read up to ``length`` consecutive integer keys from
        ``start_key`` (missing keys are skipped, like an iterator over a
        sorted store)."""
        yield from self._scan(start_key, length, arrival_us)

    def flush(self, arrival_us: float) -> Iterator[IORequest]:
        """Seal a partially filled pack buffer (load-phase epilogue)."""
        requests: List[IORequest] = []
        self._emit(self._packer.flush(), arrival_us, requests)
        yield from requests

    # -- the streaming translator --------------------------------------

    def translate(
        self, stream: Iterable[KVRequest]
    ) -> Iterator[IORequest]:
        """Lazily translate a KV request stream into page requests."""
        put, get = self._put, self._get
        delete, scan = self._delete, self._scan
        PUT, GET, DELETE = KVOp.PUT, KVOp.GET, KVOp.DELETE
        for request in stream:
            op = request.op
            if op is PUT:
                yield from put(
                    request.key, request.value_bytes,
                    request.content_id, request.arrival_us,
                )
            elif op is GET:
                yield from get(request.key, request.arrival_us)
            elif op is DELETE:
                yield from delete(request.key, request.arrival_us)
            else:
                yield from scan(
                    request.key, request.scan_length, request.arrival_us,
                )

    # -- one op each: its page requests, in order ----------------------

    def _put(
        self, key: Key, value_bytes: int, content_id: int, arrival_us: float
    ) -> List[IORequest]:
        if value_bytes <= 0:
            raise ValueError("value_bytes must be positive")
        if type(key) is not int or key < 0:
            check_key(key)
        stats = self.stats
        stats.puts += 1
        requests: List[IORequest] = []
        packer = self._packer
        old = self._extents.pop(key, None)
        if old is None:
            actions = packer.kill(key)
            if actions is None:
                stats.inserts += 1
            elif actions:
                self._emit(actions, arrival_us, requests)
        if value_bytes < self.inline_threshold:
            if old is not None:
                # extent → inline: the whole old extent is discarded.
                self._trim(old, arrival_us, requests)
            actions = packer.add(
                key, InlineSlot(key_to_int(key), content_id, value_bytes)
            )
            if actions:
                self._emit(actions, arrival_us, requests)
            return requests
        pages = -(-value_bytes // self.page_bytes)
        if old is None:
            lpns: Tuple[int, ...] = ()
        elif len(old) > pages:              # value shrank
            self._trim(old[pages:], arrival_us, requests)
            lpns = old[:pages]
        else:
            lpns = old
        if len(lpns) < pages:
            alloc = self._alloc
            lpns += tuple([alloc() for _ in range(pages - len(lpns))])
        self._extents[key] = lpns
        stats.flash_writes += pages
        requests += [
            IORequest(arrival_us, _WRITE, lpn,
                      page_value_id(content_id, index))
            for index, lpn in enumerate(lpns)
        ]
        return requests

    def _get(self, key: Key, arrival_us: float) -> List[IORequest]:
        if type(key) is not int or key < 0:
            check_key(key)
        self.stats.gets += 1
        reads = self._read(key, arrival_us)
        if reads is None:
            self.stats.get_misses += 1
            return []
        return reads

    def _delete(self, key: Key, arrival_us: float) -> List[IORequest]:
        if type(key) is not int or key < 0:
            check_key(key)
        self.stats.deletes += 1
        requests: List[IORequest] = []
        lpns = self._extents.pop(key, None)
        if lpns is not None:
            self._trim(lpns, arrival_us, requests)
            return requests
        actions = self._packer.kill(key)
        if actions is None:
            self.stats.delete_misses += 1
        elif actions:
            self._emit(actions, arrival_us, requests)
        return requests

    def _scan(
        self, start_key: int, length: int, arrival_us: float
    ) -> List[IORequest]:
        if type(start_key) is not int or start_key < 0:
            if isinstance(start_key, str):
                raise TypeError("scans require integer keys")
            check_key(start_key)
        if length <= 0:
            raise ValueError("scan length must be positive")
        self.stats.scans += 1
        requests: List[IORequest] = []
        for key in range(start_key, start_key + length):
            reads = self._read(key, arrival_us)
            if reads is not None:
                self.stats.scanned_keys += 1
                requests += reads
        return requests

    # -- internals -----------------------------------------------------

    def _read(self, key: Key, arrival_us: float) -> Optional[List[IORequest]]:
        """Flash reads serving ``key``, ``[]`` for a RAM buffer hit,
        ``None`` for a missing key."""
        lpns = self._extents.get(key)
        if lpns is not None:
            self.stats.flash_reads += len(lpns)
            return [IORequest(arrival_us, _READ, lpn, 0) for lpn in lpns]
        packer = self._packer
        lpn = packer.lpn_of(key)
        if lpn is not None:
            self.stats.flash_reads += 1
            return [IORequest(arrival_us, _READ, lpn, 0)]
        if key in packer:
            self.stats.buffer_hits += 1
            return []
        return None

    def _trim(
        self, lpns: Tuple[int, ...], arrival_us: float,
        requests: List[IORequest],
    ) -> None:
        """Discard ``lpns``: one TRIM each, and the LPNs go back to the
        allocator in the same order."""
        release = self._release
        for lpn in lpns:
            requests.append(IORequest(arrival_us, _TRIM, lpn, 0))
            release(lpn)
        self.stats.flash_trims += len(lpns)

    def _emit(
        self, actions: List[FlashAction], arrival_us: float,
        requests: List[IORequest],
    ) -> None:
        """Append the packer's flash actions to ``requests``."""
        stats = self.stats
        for kind, lpn, value_id in actions:
            if kind == "write":
                stats.flash_writes += 1
                op = _WRITE
            elif kind == "read":
                stats.flash_reads += 1
                op = _READ
            else:
                stats.flash_trims += 1
                op = _TRIM
            requests.append(IORequest(arrival_us, op, lpn, value_id))
