"""Multi-page host requests: splitting and joint completion.

The paper's traces are strictly 4KB per request, so the core simulator
works page-at-a-time.  Real hosts issue larger I/Os; a 64KB write is
striped over 16 pages across chips and *completes when its last page
does*.  :class:`HostAdapter` provides that layer: it splits a
:class:`HostRequest` into page operations, feeds them through the device,
and reports the host-visible latency (max page finish − arrival).

Useful for replaying block traces with mixed request sizes and for
studying how striping hides (or fails to hide) the paper's GC stalls on
large requests — one slow page stalls the whole I/O.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .metrics import LatencyStats
from .request import IORequest, OpType
from .ssd import SimulatedSSD

__all__ = ["HostRequest", "HostCompletion", "HostAdapter"]


@dataclass(frozen=True)
class HostRequest:
    """One host I/O spanning ``len(value_ids)`` consecutive pages.

    For reads, ``value_ids`` may be zeros — the device ignores them.
    """

    arrival_us: float
    op: OpType
    lpn: int
    value_ids: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.value_ids:
            raise ValueError("a host request spans at least one page")

    @property
    def size_pages(self) -> int:
        return len(self.value_ids)

    def pages(self) -> List[IORequest]:
        """The page-granular operations this request decomposes into."""
        return [
            IORequest(self.arrival_us, self.op, self.lpn + offset, value_id)
            for offset, value_id in enumerate(self.value_ids)
        ]


@dataclass(frozen=True)
class HostCompletion:
    """Joint completion of a multi-page host request."""

    request: HostRequest
    finish_us: float          # when the *last* page finished
    first_page_finish_us: float

    @property
    def latency_us(self) -> float:
        return self.finish_us - self.request.arrival_us

    @property
    def stripe_skew_us(self) -> float:
        """Gap between the fastest and slowest page — how unevenly the
        stripe was serviced (GC on one chip shows up here)."""
        return self.finish_us - self.first_page_finish_us


class HostAdapter:
    """Feeds multi-page host requests through a page-granular device."""

    def __init__(self, device: SimulatedSSD):
        self.device = device
        self.host_latencies = LatencyStats()

    def submit(self, request: HostRequest) -> HostCompletion:
        finishes = [
            self.device.submit(page).finish_us for page in request.pages()
        ]
        completion = HostCompletion(
            request=request,
            finish_us=max(finishes),
            first_page_finish_us=min(finishes),
        )
        self.host_latencies.record(completion.latency_us)
        return completion

    def run(self, requests: Sequence[HostRequest]) -> LatencyStats:
        for request in requests:
            self.submit(request)
        return self.host_latencies
