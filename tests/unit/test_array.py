"""Unit tests for the drive-level flash array accounting."""

import pytest

from repro.flash.array import FlashArray
from repro.flash.block import PageState


class TestArrayAccounting:
    def test_initial_state(self, tiny_config):
        array = FlashArray(tiny_config)
        assert array.free_pages == tiny_config.total_pages
        assert array.valid_pages == 0
        assert array.invalid_pages == 0

    def test_program_updates_totals(self, tiny_config):
        array = FlashArray(tiny_config)
        ppn = array.program_in_block(0)
        assert ppn == 0
        assert array.free_pages == tiny_config.total_pages - 1
        assert array.valid_pages == 1
        assert array.total_programs == 1

    def test_invalidate_and_revive(self, tiny_config):
        array = FlashArray(tiny_config)
        ppn = array.program_in_block(0)
        array.invalidate(ppn)
        assert array.invalid_pages == 1
        assert array.state_of(ppn) is PageState.INVALID
        array.revive(ppn)
        assert array.invalid_pages == 0
        assert array.valid_pages == 1

    def test_erase_reclaims(self, tiny_config):
        array = FlashArray(tiny_config)
        ppns = [array.program_in_block(0) for _ in range(4)]
        for ppn in ppns:
            array.invalidate(ppn)
        reclaimed = array.erase(0)
        assert reclaimed == 4
        assert array.free_pages == tiny_config.total_pages
        assert array.invalid_pages == 0
        assert array.total_erases == 1

    def test_free_fraction(self, tiny_config):
        array = FlashArray(tiny_config)
        assert array.free_fraction() == 1.0
        array.program_in_block(0)
        assert array.free_fraction() < 1.0

    def test_program_across_blocks(self, tiny_config):
        array = FlashArray(tiny_config)
        ppb = tiny_config.pages_per_block
        first_other = array.geometry.first_ppn_of_block(3)
        for _ in range(2):
            array.program_in_block(3)
        assert array.block(3).write_pointer == 2
        assert array.state_of(first_other) is PageState.VALID

    def test_invariants_after_mixed_ops(self, tiny_config):
        array = FlashArray(tiny_config)
        ppns = [array.program_in_block(1) for _ in range(8)]
        for ppn in ppns[:5]:
            array.invalidate(ppn)
        array.revive(ppns[0])
        array.check_invariants()

    def test_block_of_matches_geometry(self, tiny_config):
        array = FlashArray(tiny_config)
        ppn = array.program_in_block(2)
        assert array.block_of(ppn) is array.block(2)

    def test_erase_with_valid_pages_refused(self, tiny_config):
        array = FlashArray(tiny_config)
        array.program_in_block(0)
        with pytest.raises(RuntimeError):
            array.erase(0)

    def test_illegal_state_flips_refused(self, tiny_config):
        """invalidate needs a VALID page and revive an INVALID one; a
        refused flip leaves every counter as it was."""
        array = FlashArray(tiny_config)
        ppn = array.program_in_block(0)
        free_ppn = ppn + 1
        with pytest.raises(RuntimeError):
            array.revive(ppn)
        for flip in (array.invalidate, array.revive):
            with pytest.raises(RuntimeError):
                flip(free_ppn)
        array.invalidate(ppn)
        with pytest.raises(RuntimeError):
            array.invalidate(ppn)
        assert (array.valid_pages, array.invalid_pages) == (0, 1)
        array.check_invariants()
