"""Per-block flash state: page validity, write pointer, erase wear.

NAND constraints enforced here (Section IV-B of the paper):

* pages within a block are programmed strictly in order (the write pointer);
* a programmed page cannot be reprogrammed until the whole block is erased;
* erase resets every page to FREE and increments the wear counter.

Validity transitions are the raw material of the whole study: a page going
``VALID → INVALID`` is exactly the paper's "death" of a value copy, and the
dead-value pool's revival flips it back ``INVALID → VALID`` without any
flash operation.

Page states are packed one byte per page in a ``bytearray`` (columnar-state
rework, ISSUE 6): a 256-page block costs 256 bytes instead of a list of 256
enum references, erase/retire reset the buffer in place (one C-level
memset) rather than reallocating it, and the valid/invalid recounts in
``check_invariants`` run at ``bytes.count`` speed.  ``state_of`` still
returns the :class:`PageState` enum.  The byte encoding is this module's
and :class:`~repro.flash.array.FlashArray`'s business: the array flips
VALID and INVALID bytes in place on its per-page hot path.
"""

from __future__ import annotations

from enum import Enum
from typing import List

__all__ = ["PageState", "Block"]


class PageState(Enum):
    FREE = 0
    VALID = 1
    INVALID = 2


#: Byte values stored in ``Block.states`` — the enum's values, fixed here
#: so the packed representation is explicit.
FREE_BYTE, VALID_BYTE, INVALID_BYTE = 0, 1, 2

#: Byte → enum, indexable by the stored state byte.
_STATE_OF_BYTE = (PageState.FREE, PageState.VALID, PageState.INVALID)


class Block:
    """One erase block: a packed array of page-state bytes plus counters."""

    __slots__ = (
        "pages_per_block",
        "states",
        "write_pointer",
        "valid_count",
        "invalid_count",
        "erase_count",
        "retired",
    )

    def __init__(self, pages_per_block: int):
        if pages_per_block <= 0:
            raise ValueError("pages_per_block must be positive")
        self.pages_per_block = pages_per_block
        #: One state byte per page (``PageState`` values); all FREE.
        self.states = bytearray(pages_per_block)
        self.write_pointer = 0
        self.valid_count = 0
        self.invalid_count = 0
        self.erase_count = 0
        #: Grown-bad block: permanently removed from service (fault layer).
        self.retired = False

    # ------------------------------------------------------------------

    @property
    def free_pages(self) -> int:
        return self.pages_per_block - self.write_pointer

    @property
    def is_full(self) -> bool:
        return self.write_pointer >= self.pages_per_block

    def state_of(self, page: int) -> PageState:
        return _STATE_OF_BYTE[self.states[page]]

    def program_next(self) -> int:
        """Program the next free page as VALID; return its in-block index."""
        if self.retired:
            raise RuntimeError("programming a retired (grown-bad) block")
        page = self.write_pointer
        if page >= self.pages_per_block:
            raise RuntimeError("programming a full block")
        self.states[page] = VALID_BYTE
        self.write_pointer = page + 1
        self.valid_count += 1
        return page

    def invalidate(self, page: int) -> None:
        """VALID → INVALID: the copy stored here just died."""
        if self.states[page] != VALID_BYTE:
            raise RuntimeError(
                f"invalidating page {page} in state "
                f"{_STATE_OF_BYTE[self.states[page]].name}"
            )
        self.states[page] = INVALID_BYTE
        self.valid_count -= 1
        self.invalid_count += 1

    def revive(self, page: int) -> None:
        """INVALID → VALID: a dead-value-pool hit resurrected this page."""
        if self.states[page] != INVALID_BYTE:
            raise RuntimeError(
                f"reviving page {page} in state "
                f"{_STATE_OF_BYTE[self.states[page]].name}"
            )
        self.states[page] = VALID_BYTE
        self.invalid_count -= 1
        self.valid_count += 1

    def _reset_states(self) -> None:
        """Memset the programmed prefix back to FREE, in place."""
        pointer = self.write_pointer
        if pointer:
            self.states[:pointer] = bytes(pointer)
        self.write_pointer = 0
        self.valid_count = 0
        self.invalid_count = 0

    def erase(self) -> None:
        """Erase the block; only legal when no valid data remains."""
        if self.retired:
            raise RuntimeError("erasing a retired (grown-bad) block")
        if self.valid_count != 0:
            raise RuntimeError("erasing a block that still holds valid pages")
        self._reset_states()
        self.erase_count += 1

    def retire(self) -> None:
        """Remove the block from service after an unrecoverable failure.

        Only legal once its valid data has been relocated; the page states
        are cleared (nothing is addressable here any more) and the block
        never accepts programs or erases again.
        """
        if self.valid_count != 0:
            raise RuntimeError("retiring a block that still holds valid pages")
        self._reset_states()
        self.retired = True

    def valid_page_indexes(self) -> List[int]:
        """In-block indexes of VALID pages (relocation set during GC)."""
        states = self.states
        return [
            i for i in range(self.write_pointer) if states[i] == VALID_BYTE
        ]

    def invalid_page_indexes(self) -> List[int]:
        states = self.states
        return [
            i for i in range(self.write_pointer) if states[i] == INVALID_BYTE
        ]

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` on inconsistent counters (test hook)."""
        valid = self.states.count(VALID_BYTE)
        invalid = self.states.count(INVALID_BYTE)
        assert valid == self.valid_count, "valid_count out of sync"
        assert invalid == self.invalid_count, "invalid_count out of sync"
        assert valid + invalid <= self.write_pointer, "programmed-count mismatch"
        assert not any(self.states[self.write_pointer:]), "free tail violated"
