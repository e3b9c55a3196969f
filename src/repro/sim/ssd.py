"""The simulated SSD: trace-driven timing on top of the FTL state machine.

This is the reproduction of the paper's evaluation platform — a modified
SSDSim (Section V-A).  The FTL (:mod:`repro.ftl`) decides *what* physical
work each host request causes; this module decides *when* it happens, by
charging every operation to per-chip, per-channel and hash-unit FIFO
timelines (:mod:`repro.flash.timing`):

* a write is hashed first when the system is content-aware (12µs on the
  hash unit, which serialises with other incoming writes — "we modeled its
  impact on the queuing latency of the incoming write requests");
* a short-circuited or dedup-hit write costs only mapping-table updates;
* a programmed write pays a channel transfer plus the 400µs array program
  on its target chip;
* GC triggered by a write appends relocation reads/programs and the 3.8ms
  erase to the victim chip's timeline, so later requests landing on that
  chip queue behind collection — the latency spikes the paper attacks;
* reads pay 75µs on their chip and can get stuck behind all of the above.

Requests are replayed in trace order (open loop), optionally throttled by a
host queue depth.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional

from ..core.hashing import fingerprint_of_value
from ..flash.timing import TimelineSet
from ..ftl.ftl import BaseFTL
from ..ftl.gc import GCWork
from .logging import CompletionLog
from .metrics import LatencyStats, RunResult
from .request import CompletedRequest, IORequest, OpType
from .scheduler import HostQueue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.sampler import TimeSeriesSampler

__all__ = ["SimulatedSSD", "replay"]

# Bound once: an enum member lookup costs several times a global read.
_WRITE, _READ = OpType.WRITE, OpType.READ


class SimulatedSSD:
    """Couples an FTL with the timing model and runs requests through both."""

    def __init__(
        self,
        ftl: BaseFTL,
        queue_depth: Optional[int] = None,
        log: Optional[CompletionLog] = None,
        observer: Optional["TimeSeriesSampler"] = None,
    ):
        self.ftl = ftl
        self.log = log
        #: Optional :class:`~repro.obs.TimeSeriesSampler`, ticked once
        #: per completed host request with the completion time.
        self.observer = observer
        if observer is not None:
            observer.attach(ftl)
        config = ftl.config
        self.timing = config.timing
        self.geometry = ftl.array.geometry
        # PPN -> chip is ``ppn // pages_per_chip``, cached for the
        # per-request pricing in :meth:`submit`.
        self._pages_per_chip = self.geometry.pages_per_chip
        self.timelines = TimelineSet(
            config.total_chips, config.channels, config.chips_per_channel
        )
        #: Admission control, only when the queue depth is bounded: at
        #: unlimited depth every request starts at its arrival time.
        self.host_queue = (
            HostQueue(queue_depth) if queue_depth is not None else None
        )
        self.reads = LatencyStats()
        self.writes = LatencyStats()
        self._horizon_us = 0.0
        #: Host requests serviced so far (across every :meth:`service`
        #: batch) — the global index crash injection counts against.
        self.requests_served = 0
        #: :class:`~repro.faults.recovery.RecoveryReport` per power-loss
        #: event injected during :meth:`run`.
        self.recovery_reports: list = []

    # ------------------------------------------------------------------

    @property
    def horizon_us(self) -> float:
        """Completion time of the last request serviced so far."""
        return self._horizon_us

    def submit(self, request: IORequest) -> CompletedRequest:
        """Service one request; returns its completion record."""
        host_queue = self.host_queue
        arrival_us = request.arrival_us
        start = (
            arrival_us if host_queue is None
            else host_queue.admit(arrival_us)
        )
        timing = self.timing
        timelines = self.timelines
        op = request.op
        short_circuited = dedup_hit = False
        if op is _WRITE:
            outcome = self.ftl.write(
                request.lpn, fingerprint_of_value(request.value_id)
            )
            now = start
            if outcome.hashed:
                now = timelines.hash_op(now, timing.hash_us)
            now += timing.mapping_us
            if outcome.translation_reads or outcome.translation_writes:
                now = self._charge_translation(request.lpn, outcome, now)
            if outcome.verify_read_ppn is not None:
                # Hit verification: the matching page is read back and
                # byte-compared before the tables are updated.
                now = timelines.chip_op(
                    outcome.verify_read_ppn // self._pages_per_chip,
                    now, timing.read_us, timing.channel_xfer_us,
                )
            finish = now
            if outcome.program_ppn is not None or outcome.failed_program_ppns:
                # GC ran before the allocation, so its reads/programs/erase
                # occupy the chip first and this write queues behind them —
                # "any requests that come during GC are queued up" (Section I).
                if outcome.gc is not None:
                    self._charge_gc(outcome.gc, now)
                if outcome.failed_program_ppns:
                    # Fault layer: every failed attempt still paid the full
                    # program latency before the status came back bad.
                    for ppn in outcome.failed_program_ppns:
                        finish = timelines.chip_op(
                            ppn // self._pages_per_chip,
                            finish, timing.program_us, timing.channel_xfer_us,
                        )
                if outcome.program_ppn is not None:
                    finish = timelines.chip_op(
                        outcome.program_ppn // self._pages_per_chip,
                        finish, timing.program_us, timing.channel_xfer_us,
                    )
            # Otherwise a revived garbage page, dedup pointer or rejected
            # write: tables only, no flash.
            short_circuited = outcome.short_circuited
            dedup_hit = outcome.dedup_hit
            self.writes.record(finish - arrival_us)
        elif op is _READ:
            outcome = self.ftl.read(request.lpn)
            finish = start + timing.mapping_us
            if outcome.translation_reads or outcome.translation_writes:
                finish = self._charge_translation(request.lpn, outcome, finish)
            if outcome.ppn is not None:
                read_us = timing.read_us
                faults = self.ftl.faults
                if faults is not None:
                    # ECC read-retry: extra sensing rounds at shifted
                    # reference voltages, all serialised on the page's chip.
                    read_us = timing.read_service_us(faults.read_retry_rounds())
                finish = timelines.chip_op(
                    outcome.ppn // self._pages_per_chip,
                    finish, read_us, timing.channel_xfer_us,
                )
            self.reads.record(finish - arrival_us)
        else:
            # TRIM is a metadata operation: table updates only.
            self.ftl.trim(request.lpn)
            finish = start + timing.mapping_us
        completed = CompletedRequest(
            request, start, finish, short_circuited, dedup_hit
        )
        if host_queue is not None:
            host_queue.register(finish)
        if self.log is not None:
            self.log.record(completed)
        if finish > self._horizon_us:
            self._horizon_us = finish
        if self.observer is not None:
            self.observer.on_request(finish)
        return completed

    def _charge_translation(self, lpn: int, outcome, now: float) -> float:
        """Price DFTL translation-page traffic, if the FTL produced any.

        Translation pages live in a reserved area; their flash ops are
        charged to a chip derived from the translation-page index, so hot
        mapping regions contend realistically.
        """
        reads = outcome.translation_reads
        writes = outcome.translation_writes
        chip = (lpn // 512) % len(self.timelines.chips)
        for _ in range(reads):
            now = self.timelines.chip_op(
                chip, now, self.timing.read_us, self.timing.channel_xfer_us
            )
        for _ in range(writes):
            now = self.timelines.chip_op(
                chip, now, self.timing.program_us, self.timing.channel_xfer_us
            )
        return now

    def _charge_gc(self, work: GCWork, start: float) -> None:
        """Append GC's physical ops to the victim chip's timeline."""
        for old_ppn, new_ppn in work.relocations:
            chip = self.geometry.chip_of_ppn(old_ppn)
            self.timelines.chip_op(
                chip, start, self.timing.read_us, self.timing.channel_xfer_us
            )
            self.timelines.chip_op(
                chip, start, self.timing.program_us, self.timing.channel_xfer_us
            )
        for block in work.erased_blocks:
            chip = self.geometry.chip_of_block(block)
            self.timelines.chips[chip].schedule(start, self.timing.erase_us)
        for block in work.retired_blocks:
            # The failed (or skipped-because-marked) erase attempt still
            # occupied the chip before the block could be retired.
            chip = self.geometry.chip_of_block(block)
            self.timelines.chips[chip].schedule(start, self.timing.erase_us)

    # ------------------------------------------------------------------

    def service(
        self,
        requests: Iterable[IORequest],
        progress: Optional[Callable[[int], None]] = None,
    ) -> int:
        """Service a batch of requests; returns how many were serviced.

        Batches compose: feeding a trace through several ``service`` calls
        is observably identical to one :meth:`run` over the whole trace —
        ``requests_served`` carries the global request index across
        batches, so crash injection (``crash_after_requests``) and the
        progress cadence count from the start of the *run*, not the
        batch.  This is what lets the fleet layer stream chunked request
        batches through a long-lived device without perturbing digests.
        """
        faults = self.ftl.faults
        crash_after = (
            faults.config.crash_after_requests if faults is not None else None
        )
        count = 0
        for request in requests:
            self.submit(request)
            index = self.requests_served
            self.requests_served += 1
            count += 1
            if crash_after is not None and self.requests_served == crash_after:
                self.power_loss()
            if progress is not None and index % 10000 == 0:
                progress(index)
        return count

    def result(self, system: str = "", workload: str = "") -> RunResult:
        """Package everything serviced so far as a :class:`RunResult`."""
        pool_stats = None
        if self.ftl.pool is not None:
            stats = self.ftl.pool.stats
            pool_stats = {
                "lookups": stats.lookups,
                "hits": stats.hits,
                "hit_rate": stats.hit_rate,
                "insertions": stats.insertions,
                "evictions": stats.evictions,
            }
        return RunResult(
            system=system,
            workload=workload,
            counters=self.ftl.counters,
            reads=self.reads,
            writes=self.writes,
            horizon_us=self._horizon_us,
            pool_stats=pool_stats,
            fault_stats=(
                self.ftl.faults.stats.summary()
                if self.ftl.faults is not None
                else None
            ),
        )

    def run(
        self,
        requests: Iterable[IORequest],
        system: str = "",
        workload: str = "",
        progress: Optional[Callable[[int], None]] = None,
    ) -> RunResult:
        """Replay a whole trace and package the results."""
        self.service(requests, progress=progress)
        return self.result(system=system, workload=workload)

    def power_loss(self):
        """Inject a power-loss event *now*: volatile FTL state is gone and
        the drive replays crash recovery (OOB scan) before servicing
        anything else.  Returns the
        :class:`~repro.faults.recovery.RecoveryReport`.
        """
        from ..faults.recovery import crash_and_recover

        report = crash_and_recover(self.ftl, at_us=self._horizon_us)
        # Nothing — host or GC — can start until the scan finishes.
        self.timelines.stall_all(self._horizon_us + report.recovery_us)
        self.recovery_reports.append(report)
        return report


def replay(
    ftl: BaseFTL,
    requests: Iterable[IORequest],
    system: str = "",
    workload: str = "",
    queue_depth: Optional[int] = None,
) -> RunResult:
    """One-shot convenience: build the device, run the trace, return results."""
    device = SimulatedSSD(ftl, queue_depth=queue_depth)
    return device.run(requests, system=system, workload=workload)
