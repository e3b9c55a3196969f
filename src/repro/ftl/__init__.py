"""Flash Translation Layer: mapping, allocation, GC, wear, FTL variants.

Rebuilds the FTL of the paper's modified SSDSim (Section IV): page-level
mapping with a 1-byte popularity field, watermark-driven GC with greedy and
popularity-aware victim selection, and the write/update/eviction protocol
of the MQ dead-value pool, plus the deduplicating FTL of Section VII and
the LX-SSD prior-art baseline.
"""

from .allocator import OutOfSpaceError, PageAllocator
from .dedup import DedupFTL
from .dftl import CachedMappingTable, DFTLFtl, TranslationStats
from .dvp_ftl import (
    SYSTEMS,
    build_system,
    make_baseline,
    make_dedup,
    make_dvp_dedup,
    make_adaptive_dvp,
    make_ideal,
    make_lru_dvp,
    make_lxssd,
    make_mq_dvp,
)
from .ftl import (
    BaseFTL,
    FTLCounters,
    PreconditionError,
    ReadOutcome,
    WriteOutcome,
)
from .gc import (
    GarbageCollector,
    GCWork,
    GreedyVictimPolicy,
    PopularityAwareVictimPolicy,
)
from .mapping import MappingTable, POPULARITY_MAX
from .wear import WearStats, WearTracker

__all__ = [
    "BaseFTL",
    "DedupFTL",
    "DFTLFtl",
    "CachedMappingTable",
    "TranslationStats",
    "FTLCounters",
    "WriteOutcome",
    "ReadOutcome",
    "PreconditionError",
    "MappingTable",
    "POPULARITY_MAX",
    "PageAllocator",
    "OutOfSpaceError",
    "GarbageCollector",
    "GCWork",
    "GreedyVictimPolicy",
    "PopularityAwareVictimPolicy",
    "WearTracker",
    "WearStats",
    "SYSTEMS",
    "build_system",
    "make_baseline",
    "make_lru_dvp",
    "make_mq_dvp",
    "make_ideal",
    "make_lxssd",
    "make_adaptive_dvp",
    "make_dedup",
    "make_dvp_dedup",
]
