"""Resource timelines: the contention model of the simulator.

The simulator charges every flash or controller operation to a
:class:`ResourceTimeline` — one per flash chip, one per channel, and one for
the controller's hash unit.  A timeline is a single-server FIFO resource:
an operation submitted at time *t* starts at ``max(t, busy_until)`` and
occupies the resource for its duration.  This is what produces the queueing
behaviour the paper measures: reads stuck behind a 400µs program or a 3.8ms
erase, and hash computation delaying incoming writes (Section V-A).

The model deliberately trades per-die granularity for speed: contention is
tracked per chip (plus the shared channel for data transfers), which is the
granularity at which the paper's latency effects — program/erase blocking —
arise.
"""

from __future__ import annotations

from typing import List

__all__ = ["ResourceTimeline", "TimelineSet"]


class ResourceTimeline:
    """A single-server FIFO resource with utilisation accounting."""

    __slots__ = ("name", "busy_until", "busy_time", "op_count")

    def __init__(self, name: str):
        self.name = name
        self.busy_until = 0.0
        self.busy_time = 0.0
        self.op_count = 0

    def schedule(self, arrival: float, duration: float) -> tuple[float, float]:
        """Occupy the resource for ``duration`` starting no earlier than
        ``arrival``; returns ``(start, end)`` and advances the timeline."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        start = max(arrival, self.busy_until)
        end = start + duration
        self.busy_until = end
        self.busy_time += duration
        self.op_count += 1
        return start, end

    def peek_start(self, arrival: float) -> float:
        """When an op arriving at ``arrival`` would start (no side effect)."""
        return max(arrival, self.busy_until)

    def utilisation(self, horizon: float) -> float:
        """Busy fraction over ``[0, horizon]``."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time / horizon)


class TimelineSet:
    """The full set of timelines for one simulated drive."""

    def __init__(self, num_chips: int, num_channels: int, chips_per_channel: int):
        if num_chips != num_channels * chips_per_channel:
            raise ValueError("chip/channel geometry mismatch")
        self.chips: List[ResourceTimeline] = [
            ResourceTimeline(f"chip{i}") for i in range(num_chips)
        ]
        self.channels: List[ResourceTimeline] = [
            ResourceTimeline(f"chan{i}") for i in range(num_channels)
        ]
        self.hash_unit = ResourceTimeline("hash")
        self._chips_per_channel = chips_per_channel

    def chip_op(
        self, chip: int, arrival: float, flash_us: float, xfer_us: float
    ) -> float:
        """Run one flash op on ``chip``: a channel transfer serialised with
        the chip's array operation.  Returns the completion time.

        The transfer occupies the shared channel, the array time only the
        chip; both are charged FIFO.  This captures the first-order
        interference the paper relies on (ops queueing behind programs and
        erases) without per-die bookkeeping.  Both schedules are
        :meth:`ResourceTimeline.schedule`, written out in place.
        """
        if xfer_us < 0 or flash_us < 0:
            raise ValueError("duration must be non-negative")
        channel = self.channels[chip // self._chips_per_channel]
        busy = channel.busy_until
        start = busy if busy > arrival else arrival
        xfer_end = start + xfer_us
        channel.busy_until = xfer_end
        channel.busy_time += xfer_us
        channel.op_count += 1
        timeline = self.chips[chip]
        busy = timeline.busy_until
        start = busy if busy > xfer_end else xfer_end
        end = start + flash_us
        timeline.busy_until = end
        timeline.busy_time += flash_us
        timeline.op_count += 1
        return end

    def hash_op(self, arrival: float, hash_us: float) -> float:
        """Charge a content-hash computation to the controller hash unit."""
        if hash_us < 0:
            raise ValueError("duration must be non-negative")
        unit = self.hash_unit
        busy = unit.busy_until
        end = (busy if busy > arrival else arrival) + hash_us
        unit.busy_until = end
        unit.busy_time += hash_us
        unit.op_count += 1
        return end

    def stall_all(self, until: float) -> None:
        """Hold every resource busy until ``until`` (crash-recovery stall).

        Used by the fault layer: after a power-loss event the drive spends
        the recovery scan rebuilding its mapping, during which no host or
        GC operation can start.  Idle time is pushed forward without being
        counted as busy time, so utilisation stays an activity measure.
        """
        for timeline in self.chips:
            timeline.busy_until = max(timeline.busy_until, until)
        for timeline in self.channels:
            timeline.busy_until = max(timeline.busy_until, until)
        self.hash_unit.busy_until = max(self.hash_unit.busy_until, until)
