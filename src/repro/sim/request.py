"""Host I/O requests as the simulator consumes them.

Every request is one 4KB page operation — the granularity of the FIU/OSU
traces the paper uses (Section II-A: "All traces contain identical request
sizes of 4KB with 16B hash of the content for each request").  Multi-page
host requests are split into page requests by the trace layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from ..core.hashing import Fingerprint, fingerprint_of_value

__all__ = ["OpType", "IORequest", "CompletedRequest"]


class OpType(Enum):
    READ = "R"
    WRITE = "W"
    #: Host discard/TRIM: the logical page's content is dropped.  Not part
    #: of the paper's traces; supported as an FTL substrate feature (the
    #: dead-value pool keeps trimmed content revivable until erased).
    TRIM = "T"


@dataclass(frozen=True, slots=True)
class IORequest:
    """One 4KB host operation.

    ``value_id`` identifies the 4KB content being written (or expected to be
    read); it is the synthetic stand-in for the traces' MD5 digest.  Reads
    carry it only for analysis purposes — the device never checks it.
    """

    arrival_us: float
    op: OpType
    lpn: int
    value_id: int

    @property
    def is_write(self) -> bool:
        return self.op is OpType.WRITE

    @property
    def fingerprint(self) -> Fingerprint:
        return fingerprint_of_value(self.value_id)


class CompletedRequest(NamedTuple):
    """A serviced request with its measured latency.

    Built once per serviced request, so it is a named tuple: immutable
    like a frozen dataclass, at well under half the construction cost.
    """

    request: IORequest
    start_us: float
    finish_us: float
    short_circuited: bool = False
    dedup_hit: bool = False

    @property
    def latency_us(self) -> float:
        return self.finish_us - self.request.arrival_us
