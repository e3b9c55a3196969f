"""The page-level mapping table stays densely packed.

``MappingTable`` keeps its forward table as one ``array('q')`` (8 bytes
per LPN) plus a ``bytearray`` popularity byte (1 byte per LPN), and its
reverse index as one ``array('q')`` (8 bytes per PPN).  That is the
columnar-state claim of DESIGN.md section 10: 9 bytes per logical page,
where boxed dict entries cost over 100.  ``tracemalloc`` counts every
byte the table allocates, so a column that turns into a list, a dict or
a wider array type breaks a bound: an empty list column costs its 8-byte
slots, and a mapped one also boxes every PPN or LPN it holds.
"""

import gc
import tracemalloc

from repro.ftl.mapping import MappingTable

#: The 10x-geometry drive of the canonical mail footprint: 200k logical
#: pages over 235,520 physical pages.
LOGICAL_PAGES = 200_000
TOTAL_PAGES = 235_520

#: Measured on CPython 3.11 x86-64: 9.01 bytes per LPN (``_l2p`` plus
#: ``_pop``) and 8.0 bytes per PPN (``_owner``).  A ``list`` popularity
#: column alone would read 17 bytes per LPN.
BYTES_PER_LPN = 9.1
BYTES_PER_PPN = 8.1


def traced_bytes(logical_pages: int, total_pages: int,
                 mapped: int = 0) -> int:
    """Bytes a presized table holds, as ``tracemalloc`` sees them, after
    mapping LPN ``i`` to PPN ``total_pages - 1 - i`` for ``i < mapped``."""
    ppns = list(range(total_pages - 1, total_pages - 1 - mapped, -1))
    gc.collect()
    tracemalloc.start()
    try:
        table = MappingTable(
            logical_pages=logical_pages, total_pages=total_pages
        )
        table.map_fresh(ppns, popularity=1)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del table
    return retained


def test_forward_columns_bytes_per_lpn():
    assert traced_bytes(LOGICAL_PAGES, 0) / LOGICAL_PAGES <= BYTES_PER_LPN


def test_reverse_column_bytes_per_ppn():
    assert traced_bytes(0, TOTAL_PAGES) / TOTAL_PAGES <= BYTES_PER_PPN


def test_fully_mapped_table_allocates_nothing_per_page():
    assert traced_bytes(LOGICAL_PAGES, TOTAL_PAGES, mapped=LOGICAL_PAGES) <= (
        BYTES_PER_LPN * LOGICAL_PAGES + BYTES_PER_PPN * TOTAL_PAGES
    )
