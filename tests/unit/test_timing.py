"""Unit tests for resource timelines (the contention model)."""

import pytest

from repro.flash.timing import ResourceTimeline, TimelineSet


class TestResourceTimeline:
    def test_idle_resource_starts_immediately(self):
        tl = ResourceTimeline("chip")
        start, end = tl.schedule(arrival=100.0, duration=50.0)
        assert (start, end) == (100.0, 150.0)

    def test_busy_resource_queues(self):
        tl = ResourceTimeline("chip")
        tl.schedule(0.0, 100.0)
        start, end = tl.schedule(arrival=10.0, duration=5.0)
        assert start == 100.0
        assert end == 105.0

    def test_gap_leaves_idle_time(self):
        tl = ResourceTimeline("chip")
        tl.schedule(0.0, 10.0)
        start, _ = tl.schedule(arrival=50.0, duration=10.0)
        assert start == 50.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            ResourceTimeline("x").schedule(0.0, -1.0)

    def test_utilisation(self):
        tl = ResourceTimeline("chip")
        tl.schedule(0.0, 25.0)
        assert tl.utilisation(100.0) == 0.25
        assert tl.utilisation(0.0) == 0.0

    def test_peek_start_has_no_side_effect(self):
        tl = ResourceTimeline("chip")
        tl.schedule(0.0, 100.0)
        assert tl.peek_start(10.0) == 100.0
        assert tl.op_count == 1

    def test_op_count_and_busy_time(self):
        tl = ResourceTimeline("chip")
        tl.schedule(0.0, 10.0)
        tl.schedule(0.0, 10.0)
        assert tl.op_count == 2
        assert tl.busy_time == 20.0


class TestTimelineSet:
    def test_geometry_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TimelineSet(num_chips=5, num_channels=2, chips_per_channel=2)

    def test_channel_of_chip(self):
        """chip_op charges the transfer to channel chip // chips_per_channel."""
        ts = TimelineSet(num_chips=4, num_channels=2, chips_per_channel=2)
        for chip in (0, 1, 2):
            ts.chip_op(chip, 0.0, 400.0, 10.0)
        assert [c.op_count for c in ts.channels] == [2, 1]
        assert [c.op_count for c in ts.chips] == [1, 1, 1, 0]

    def test_negative_durations_rejected(self):
        ts = TimelineSet(num_chips=1, num_channels=1, chips_per_channel=1)
        for flash_us, xfer_us in ((-1.0, 10.0), (400.0, -1.0)):
            with pytest.raises(ValueError):
                ts.chip_op(0, 0.0, flash_us, xfer_us)
        with pytest.raises(ValueError):
            ts.hash_op(0.0, -1.0)
        assert ts.chips[0].op_count == ts.channels[0].op_count == 0
        assert ts.hash_unit.op_count == 0

    def test_chip_op_serialises_transfer_then_array(self):
        ts = TimelineSet(num_chips=2, num_channels=1, chips_per_channel=2)
        end = ts.chip_op(chip=0, arrival=0.0, flash_us=400.0, xfer_us=10.0)
        assert end == 410.0

    def test_channel_shared_between_chips(self):
        ts = TimelineSet(num_chips=2, num_channels=1, chips_per_channel=2)
        end0 = ts.chip_op(0, arrival=0.0, flash_us=400.0, xfer_us=10.0)
        # Second op on the other chip must wait for the shared channel.
        end1 = ts.chip_op(1, arrival=0.0, flash_us=400.0, xfer_us=10.0)
        assert end0 == 410.0
        assert end1 == 420.0  # xfer waited until 10, chip1 idle

    def test_chips_are_independent_resources(self):
        ts = TimelineSet(num_chips=2, num_channels=2, chips_per_channel=1)
        end0 = ts.chip_op(0, 0.0, 400.0, 10.0)
        end1 = ts.chip_op(1, 0.0, 400.0, 10.0)
        assert end0 == end1 == 410.0  # separate channels: full parallelism

    def test_same_chip_ops_queue(self):
        ts = TimelineSet(num_chips=1, num_channels=1, chips_per_channel=1)
        ts.chip_op(0, 0.0, 400.0, 10.0)
        end = ts.chip_op(0, 0.0, 400.0, 10.0)
        assert end == 810.0  # second array op waits for the first

    def test_hash_unit_serialises(self):
        ts = TimelineSet(num_chips=1, num_channels=1, chips_per_channel=1)
        assert ts.hash_op(0.0, 12.0) == 12.0
        assert ts.hash_op(0.0, 12.0) == 24.0
