"""Unit tests for IORequest / CompletedRequest."""

from repro.core.hashing import fingerprint_of_value
from repro.sim.request import CompletedRequest, IORequest, OpType


class TestIORequest:
    def test_write_flag(self):
        req = IORequest(0.0, OpType.WRITE, 1, 2)
        assert req.is_write

    def test_read_flag(self):
        req = IORequest(0.0, OpType.READ, 1, 2)
        assert not req.is_write

    def test_fingerprint_matches_value(self):
        req = IORequest(0.0, OpType.WRITE, 1, 42)
        assert req.fingerprint == fingerprint_of_value(42)

    def test_optype_values_match_trace_format(self):
        assert OpType.WRITE.value == "W"
        assert OpType.READ.value == "R"

    def test_frozen(self):
        req = IORequest(0.0, OpType.WRITE, 1, 2)
        try:
            req.lpn = 5  # type: ignore[misc]
            assert False, "should be immutable"
        except AttributeError:
            pass


class TestCompletedRequest:
    def test_latency_measured_from_arrival(self):
        req = IORequest(100.0, OpType.WRITE, 1, 2)
        done = CompletedRequest(request=req, start_us=150.0, finish_us=250.0)
        assert done.latency_us == 150.0  # includes host-queue wait

    def test_flags_default_false(self):
        req = IORequest(0.0, OpType.WRITE, 1, 2)
        done = CompletedRequest(request=req, start_us=0.0, finish_us=1.0)
        assert not done.short_circuited
        assert not done.dedup_hit

    def test_fields_cannot_be_assigned(self):
        req = IORequest(0.0, OpType.READ, 1, 2)
        done = CompletedRequest(req, 0.0, 1.0)
        for name in ("request", "start_us", "finish_us",
                     "short_circuited", "dedup_hit"):
            try:
                setattr(done, name, None)
                assert False, f"{name} should be immutable"
            except AttributeError:
                pass
