"""Page-level address mapping: LPN → PPN, with the paper's popularity byte.

The mapping unit (paper Section IV-B/C, Figure 8) is a page-level table
from Logical Page Number to Physical Page Number, extended with one byte
per LPN that persists the write-popularity of the data block mapped there
so the popularity degree survives dead-value-pool evictions.

The table also supports many-to-one mappings (several LPNs pointing at the
same PPN) because the deduplicated FTL of Section VII needs reference
counting; the plain FTL simply keeps every PPN's reference set at size one.

Layout (columnar-state rework, ISSUE 6).  The forward table is a flat
``array('q')`` indexed by LPN (-1 = unmapped) and the popularity byte is a
``bytearray`` — exactly the densely-packed tables a real controller keeps
in DRAM, at 9 bytes per logical page instead of dict-of-boxed-ints rates.
The reverse index is a second ``array('q')`` indexed by PPN holding the
*single owning LPN* (the overwhelmingly common case, and the only case in
a non-dedup FTL); only PPNs with two or more referencing LPNs spill into
the ``_shared`` dict of sets that reference counting for dedup requires.
Sentinels in the owner column: ``-1`` = unreferenced, ``-2`` = spilled.

Construct with explicit sizes (``MappingTable(logical_pages, total_pages)``)
to preallocate the columns; without sizes the columns auto-grow by
doubling, so small tests and crash-recovery rebuilds can stay lazy.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Set

__all__ = ["MappingTable", "POPULARITY_MAX"]

#: The popularity field is 1 byte (Section IV-C), so it saturates at 255.
POPULARITY_MAX = 255

#: Owner-column sentinels.
_NONE = -1       # no LPN references this PPN
_SHARED = -2     # two or more LPNs reference this PPN (see ``_shared``)

_EMPTY_CELL = array("q", [-1])


def _unmapped_column(length: int) -> array:
    """A fresh ``array('q')`` of ``length`` cells, all -1."""
    return _EMPTY_CELL * length


class MappingTable:
    """LPN→PPN table with reverse index and per-LPN popularity byte."""

    __slots__ = ("_l2p", "_pop", "_owner", "_shared", "_mapped")

    def __init__(
        self,
        logical_pages: Optional[int] = None,
        total_pages: Optional[int] = None,
    ) -> None:
        #: Forward column: LPN → PPN, -1 when unmapped.
        self._l2p: array = _unmapped_column(logical_pages or 0)
        #: Popularity byte per LPN (grows in lockstep with ``_l2p``).
        self._pop = bytearray(logical_pages or 0)
        #: Reverse column: PPN → owning LPN, ``_NONE`` or ``_SHARED``.
        self._owner: array = _unmapped_column(total_pages or 0)
        #: Spill store for many-to-one PPNs only (dedup's refcounts).
        self._shared: Dict[int, Set[int]] = {}
        #: Forward entries currently mapped (kept incrementally).
        self._mapped = 0

    # ------------------------------------------------------------------
    # Column growth (no-ops when constructed with full sizes)
    # ------------------------------------------------------------------

    def _grow_lpn(self, lpn: int) -> None:
        if lpn < 0:
            raise ValueError("LPN must be non-negative")
        grow = max(lpn + 1 - len(self._l2p), len(self._l2p), 64)
        self._l2p.extend(_unmapped_column(grow))
        self._pop.extend(bytes(grow))

    def _grow_ppn(self, ppn: int) -> None:
        if ppn < 0:
            raise ValueError("PPN must be non-negative")
        grow = max(ppn + 1 - len(self._owner), len(self._owner), 64)
        self._owner.extend(_unmapped_column(grow))

    # ------------------------------------------------------------------
    # Forward mapping
    # ------------------------------------------------------------------

    def lookup(self, lpn: int) -> Optional[int]:
        """PPN currently mapped at ``lpn``, or ``None`` if unmapped."""
        if 0 <= lpn < len(self._l2p):
            ppn = self._l2p[lpn]
            if ppn >= 0:
                return ppn
        return None

    def map(self, lpn: int, ppn: int) -> None:
        """Point ``lpn`` at ``ppn`` (the LPN must currently be unmapped)."""
        if not 0 <= lpn < len(self._l2p):
            self._grow_lpn(lpn)
        if not 0 <= ppn < len(self._owner):
            self._grow_ppn(ppn)
        if self._l2p[lpn] >= 0:
            raise RuntimeError(f"LPN {lpn} is already mapped; unmap first")
        self._l2p[lpn] = ppn
        self._mapped += 1
        self._attach(lpn, ppn)

    def map_fresh(self, ppns: Sequence[int], popularity: int) -> None:
        """Map LPN ``i`` to ``ppns[i]`` with popularity byte ``popularity``
        on an empty table whose columns already cover them — the columns
        a ``map`` plus ``set_popularity`` per LPN would leave."""
        count = len(ppns)
        if self._mapped or count > len(self._l2p) or (
            count and max(ppns) >= len(self._owner)
        ):
            raise ValueError("map_fresh needs an empty, presized table")
        self._l2p[:count] = array("q", ppns)
        self._pop[:count] = bytes((popularity,)) * count
        owner = self._owner
        for lpn, ppn in enumerate(ppns):
            owner[ppn] = lpn
        self._mapped = count

    def _attach(self, lpn: int, ppn: int) -> None:
        """Add ``lpn`` to ``ppn``'s reverse entry (forward already set)."""
        owner = self._owner
        current = owner[ppn]
        if current == _NONE:
            owner[ppn] = lpn
        elif current == _SHARED:
            self._shared[ppn].add(lpn)
        else:
            self._shared[ppn] = {current, lpn}
            owner[ppn] = _SHARED

    def unmap(self, lpn: int) -> Optional[int]:
        """Remove ``lpn``'s mapping; return the PPN it pointed at."""
        if not 0 <= lpn < len(self._l2p):
            return None
        ppn = self._l2p[lpn]
        if ppn < 0:
            return None
        self._l2p[lpn] = -1
        self._mapped -= 1
        owner = self._owner
        current = owner[ppn]
        if current == _SHARED:
            lpns = self._shared[ppn]
            lpns.discard(lpn)
            if len(lpns) == 1:
                # Collapse back to the dense single-owner representation.
                owner[ppn] = lpns.pop()
                del self._shared[ppn]
        elif current == lpn:
            owner[ppn] = _NONE
        return ppn

    def remap_ppn(self, old_ppn: int, new_ppn: int) -> int:
        """Repoint every LPN referencing ``old_ppn`` to ``new_ppn``.

        Used by GC relocation; returns the number of LPNs moved.  Shared
        (dedup) LPN sets are walked in ascending-LPN order so relocation
        is order-deterministic.
        """
        owner = self._owner
        if not 0 <= old_ppn < len(owner):
            return 0
        current = owner[old_ppn]
        if current == _NONE:
            return 0
        if not 0 <= new_ppn < len(owner):
            self._grow_ppn(new_ppn)
        l2p = self._l2p
        if current != _SHARED:
            owner[old_ppn] = _NONE
            l2p[current] = new_ppn
            self._attach(current, new_ppn)
            return 1
        lpns = self._shared.pop(old_ppn)
        owner[old_ppn] = _NONE
        for lpn in sorted(lpns):
            l2p[lpn] = new_ppn
            self._attach(lpn, new_ppn)
        return len(lpns)

    # ------------------------------------------------------------------
    # Reverse mapping / reference counts
    # ------------------------------------------------------------------

    def lpns_of(self, ppn: int) -> Set[int]:
        """LPNs currently referencing ``ppn`` (copy-safe view)."""
        if not 0 <= ppn < len(self._owner):
            return set()
        current = self._owner[ppn]
        if current == _NONE:
            return set()
        if current == _SHARED:
            return set(self._shared[ppn])
        return {current}

    def refcount(self, ppn: int) -> int:
        """How many LPNs point at ``ppn`` (dedup keeps this > 1)."""
        if not 0 <= ppn < len(self._owner):
            return 0
        current = self._owner[ppn]
        if current == _NONE:
            return 0
        if current == _SHARED:
            return len(self._shared[ppn])
        return 1

    def mapped_lpn_count(self) -> int:
        return self._mapped

    def mapped_ppns(self) -> List[int]:
        """Every PPN at least one LPN references (ascending order)."""
        owner = self._owner
        return [ppn for ppn in range(len(owner)) if owner[ppn] != _NONE]

    def forward_items(self) -> Dict[int, int]:
        """A copy of the full LPN→PPN table (crash-recovery verification)."""
        l2p = self._l2p
        return {lpn: l2p[lpn] for lpn in range(len(l2p)) if l2p[lpn] >= 0}

    # ------------------------------------------------------------------
    # Popularity byte (Figure 8)
    # ------------------------------------------------------------------

    def popularity(self, lpn: int) -> int:
        if 0 <= lpn < len(self._pop):
            return self._pop[lpn]
        return 0

    def set_popularity(self, lpn: int, value: int) -> None:
        if not 0 <= lpn < len(self._pop):
            self._grow_lpn(lpn)
        # Clamp to the byte (comparisons: every host write lands here).
        if value > POPULARITY_MAX:
            value = POPULARITY_MAX
        elif value < 0:
            value = 0
        self._pop[lpn] = value

    def bump_popularity(self, lpn: int) -> int:
        """Saturating increment of ``lpn``'s popularity byte; returns it."""
        if not 0 <= lpn < len(self._pop):
            self._grow_lpn(lpn)
        value = self._pop[lpn]
        if value < POPULARITY_MAX:
            value += 1
            self._pop[lpn] = value
        return value

    def check_invariants(self) -> None:
        """Forward, reverse and counter columns must agree (test hook)."""
        owner = self._owner
        shared = self._shared
        forward_count = 0
        for lpn in range(len(self._l2p)):
            ppn = self._l2p[lpn]
            if ppn < 0:
                continue
            forward_count += 1
            assert 0 <= ppn < len(owner), f"LPN {lpn} maps beyond the owner column"
            current = owner[ppn]
            assert current == lpn or (
                current == _SHARED and lpn in shared.get(ppn, ())
            ), f"reverse map missing LPN {lpn} -> PPN {ppn}"
        assert forward_count == self._mapped, "mapped-count column out of sync"
        reverse_count = 0
        for ppn in range(len(owner)):
            current = owner[ppn]
            if current == _NONE:
                continue
            if current == _SHARED:
                lpns = shared.get(ppn, set())
                assert len(lpns) >= 2, f"spilled PPN {ppn} has < 2 owners"
                reverse_count += len(lpns)
            else:
                assert ppn not in shared, f"PPN {ppn} is both dense and spilled"
                reverse_count += 1
        assert set(shared) <= {
            ppn for ppn in range(len(owner)) if owner[ppn] == _SHARED
        }, "spill store holds PPNs the owner column does not mark shared"
        assert reverse_count == forward_count, "reverse map has stale LPNs"
