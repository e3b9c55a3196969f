"""Content-aware deduplicating FTL (CAFTL / value-locality style).

Reimplements the deduplicated SSD the paper compares against and composes
with (Sections V and VII): a fingerprint store maps each *live* value to
the single physical page holding it, the LPN→PPN table becomes many-to-one,
and a physical page dies only when its last logical pointer is removed.

A write whose content is already live is serviced by pointer manipulation
alone (a *dedup hit*).  When constructed with a dead-value pool the class
becomes the paper's DVP+Dedup system: writes missing the live store still
get a chance to revive a garbage page before programming flash — the
window Figure 13 illustrates (from the value's death at t3 to its rebirth
at t4, which dedup alone cannot capture).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.dvp import DeadValuePool
from ..core.hashing import Fingerprint
from ..flash.config import SSDConfig
from .ftl import BaseFTL, WriteOutcome

__all__ = ["DedupFTL"]


class DedupFTL(BaseFTL):
    """Page-mapping FTL with inline chunk-level deduplication."""

    def __init__(
        self,
        config: SSDConfig,
        pool: Optional[DeadValuePool] = None,
        popularity_aware_gc: bool = False,
        gc_weight: float = 1.0,
        wear_levelling: bool = False,
        verify_hits: bool = False,
    ):
        super().__init__(
            config,
            pool=pool,
            popularity_aware_gc=popularity_aware_gc,
            gc_weight=gc_weight,
            wear_levelling=wear_levelling,
            verify_hits=verify_hits,
        )
        #: Live fingerprint store: value → the one PPN holding it.
        self._live_index: Dict[Fingerprint, int] = {}

    @property
    def content_aware(self) -> bool:
        # Dedup hashes every write even without a dead-value pool.
        return True

    def live_value_count(self) -> int:
        """Distinct values currently live on flash."""
        return len(self._live_index)

    def live_ppn_of(self, fp: Fingerprint) -> Optional[int]:
        return self._live_index.get(fp)

    def precondition(self, fingerprints: Sequence[Fingerprint]) -> None:
        """The base bulk pass, plus the live index each page's write
        would have recorded (every value is new, so each is a miss)."""
        super().precondition(fingerprints)
        self._live_index.update((fp, ppn) for ppn, fp in self._ppn_fp.items())

    # ------------------------------------------------------------------
    # Write path: live store first, then (optionally) the dead-value pool
    # ------------------------------------------------------------------

    def _handle_write(
        self, lpn: int, fp: Fingerprint, outcome: WriteOutcome
    ) -> None:
        live = self._live_index.get(fp)
        if live is not None:
            # Live-value dedup hit: pointer manipulation only.  The hash is
            # checked *before* invalidating the old mapping, so rewriting
            # identical content in place is a pure no-op.
            if self.verify_hits:
                outcome.verify_read_ppn = live
                self.counters.flash_reads += 1
            if self.mapping.lookup(lpn) != live:
                self._invalidate_lpn(lpn)
                self.mapping.map(lpn, live)
            self.counters.dedup_hits += 1
            outcome.dedup_hit = True
            return
        self._invalidate_lpn(lpn)
        self._service_write(lpn, fp, outcome)
        new_home = (
            outcome.revived_ppn
            if outcome.revived_ppn is not None
            else outcome.program_ppn
        )
        if new_home is not None:
            self._live_index[fp] = new_home

    # ------------------------------------------------------------------
    # Death and relocation keep the live index coherent
    # ------------------------------------------------------------------

    def _on_page_death(self, ppn: int, fp: Fingerprint, lpn: int) -> None:
        if self._live_index.get(fp) == ppn:
            del self._live_index[fp]
        super()._on_page_death(ppn, fp, lpn)

    def relocate_page(self, old_ppn: int, new_ppn: int) -> None:
        fp = self._ppn_fp.get(old_ppn)
        super().relocate_page(old_ppn, new_ppn)
        if fp is not None and self._live_index.get(fp) == old_ppn:
            self._live_index[fp] = new_ppn

    def erase_cleanup(self, block_global: int, invalid_ppns: List[int]) -> None:
        # Garbage pages are never in the live index (they were removed at
        # death), so the base cleanup suffices; kept explicit for clarity.
        super().erase_cleanup(block_global, invalid_ppns)

    def check_invariants(self) -> None:
        super().check_invariants()
        from ..flash.block import PageState

        for fp, ppn in self._live_index.items():
            assert self.array.state_of(ppn) is PageState.VALID, (
                f"live index points at non-valid PPN {ppn}"
            )
            assert self._ppn_fp.get(ppn) == fp, (
                f"live index fingerprint mismatch at PPN {ppn}"
            )
