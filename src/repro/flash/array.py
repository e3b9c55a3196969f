"""The NAND array: every block of the drive plus drive-level accounting.

:class:`FlashArray` owns all :class:`~repro.flash.block.Block` objects and
keeps incremental totals (free / valid / invalid pages, erase counts) that
the FTL's garbage collector polls on every write.  It enforces the physical
rules; *policy* (which block to write, which victim to erase) lives in
:mod:`repro.ftl`.
"""

from __future__ import annotations

from typing import List

from .block import INVALID_BYTE, VALID_BYTE, Block, PageState
from .config import SSDConfig
from .geometry import Geometry

__all__ = ["FlashArray"]


class FlashArray:
    """All blocks of one drive, addressed by flat block index / PPN."""

    def __init__(self, config: SSDConfig):
        self.config = config
        self.geometry = Geometry(config)
        # PPNs are linear (block * pages_per_block + page); the hot
        # per-page methods below do the arithmetic inline with this cached
        # size instead of bouncing through Geometry calls.
        self._pages_per_block = config.pages_per_block
        self.blocks: List[Block] = [
            Block(config.pages_per_block) for _ in range(config.total_blocks)
        ]
        self.free_pages = config.total_pages
        self.valid_pages = 0
        self.invalid_pages = 0
        self.total_erases = 0
        self.total_programs = 0
        self.retired_blocks = 0

    # ------------------------------------------------------------------

    def block(self, block_global: int) -> Block:
        return self.blocks[block_global]

    def block_of(self, ppn: int) -> Block:
        return self.blocks[self.geometry.block_of_ppn(ppn)]

    def state_of(self, ppn: int) -> PageState:
        block, page = divmod(ppn, self._pages_per_block)
        return self.blocks[block].state_of(page)

    def program_in_block(self, block_global: int) -> int:
        """Program the next page of ``block_global``; return its PPN."""
        block = self.blocks[block_global]
        page = block.program_next()
        self.free_pages -= 1
        self.valid_pages += 1
        self.total_programs += 1
        return block_global * self._pages_per_block + page

    def invalidate(self, ppn: int) -> None:
        """A value copy died at ``ppn`` (out-of-place update or unmap).
        The state byte flips here; :meth:`Block.invalidate` only raises."""
        block = self.blocks[ppn // self._pages_per_block]
        page = ppn % self._pages_per_block
        if block.states[page] != VALID_BYTE:
            block.invalidate(page)
        block.states[page] = INVALID_BYTE
        block.valid_count -= 1
        block.invalid_count += 1
        self.valid_pages -= 1
        self.invalid_pages += 1

    def revive(self, ppn: int) -> None:
        """Dead-value-pool hit: turn the garbage page back to valid.
        The state byte flips here; :meth:`Block.revive` only raises."""
        block = self.blocks[ppn // self._pages_per_block]
        page = ppn % self._pages_per_block
        if block.states[page] != INVALID_BYTE:
            block.revive(page)
        block.states[page] = VALID_BYTE
        block.invalid_count -= 1
        block.valid_count += 1
        self.invalid_pages -= 1
        self.valid_pages += 1

    def erase(self, block_global: int) -> int:
        """Erase a block (must hold no valid pages); return pages reclaimed."""
        block = self.blocks[block_global]
        reclaimed = block.write_pointer
        invalid = block.invalid_count
        block.erase()
        self.free_pages += reclaimed
        self.invalid_pages -= invalid
        self.total_erases += 1
        return reclaimed

    def retire_block(self, block_global: int) -> None:
        """Remove a grown-bad block from service (fault layer).

        The block's remaining pages leave the drive's accounting entirely:
        they are neither free (nothing may program here again) nor invalid
        (nothing is left to reclaim).  Capacity shrinks; ``free_fraction``
        keeps the raw-capacity denominator so retirement raises GC pressure
        exactly like a real drive losing spare area.
        """
        block = self.blocks[block_global]
        self.invalid_pages -= block.invalid_count
        self.free_pages -= block.free_pages
        block.retire()
        self.retired_blocks += 1

    # ------------------------------------------------------------------

    def free_fraction(self) -> float:
        """Free pages as a fraction of raw capacity (GC trigger input)."""
        return self.free_pages / self.config.total_pages

    def check_invariants(self) -> None:
        """Recompute totals from scratch and compare (test hook)."""
        free = valid = invalid = retired = 0
        for block in self.blocks:
            block.check_invariants()
            if block.retired:
                retired += 1
                continue
            valid += block.valid_count
            invalid += block.invalid_count
            free += block.pages_per_block - block.write_pointer
        assert retired == self.retired_blocks, "retired_blocks out of sync"
        assert free == self.free_pages, "free_pages out of sync"
        assert valid == self.valid_pages, "valid_pages out of sync"
        assert invalid == self.invalid_pages, "invalid_pages out of sync"
