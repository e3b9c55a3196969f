"""In-memory span recorder for the traced replay pass.

A span is one call across a layer boundary: its name, start and end on
``time.perf_counter``, the span that was open when it started (its
parent) and the host request being serviced at the time (the
per-request identifier every span of one request shares).

Spans go into flat typed arrays while the replay runs and are only
turned into per-layer figures, or written to disk, after it ends.  A
layer's self time is its spans' durations minus the parts of them that
child spans cover, so the self times of every span under one root add
up to that root's duration.

The recorder instruments *live objects*: :meth:`SpanRecorder.wrap`
returns a timed stand-in for a bound method, which the caller stores as
an instance attribute so it shadows the class method for that object
only.  Nothing in the program is edited and nothing is installed unless
the traced pass asks for it.
"""

from __future__ import annotations

import json
import time
from array import array
from bisect import bisect_right
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

__all__ = ["SpanRecorder"]

#: Parent index of a root span.
NO_PARENT = -1


class SpanRecorder:
    """Buffers spans in memory; computes exclusive (self) time per name."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        self._open: List[int] = [NO_PARENT]
        #: Returns the index of the host request being serviced; the
        #: traced pass points it at the device's request counter.
        self.request_of: Callable[[], int] = lambda: -1

    def __len__(self) -> int:
        return len(self.start)

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _begin(self, nid: int) -> int:
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1])
        self.request.append(self.request_of())
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(self._clock())
        return index

    def _finish(self, index: int) -> None:
        self.end[index] = self._clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the ``with`` body as one span called ``name``."""
        index = self._begin(self._id(name))
        try:
            yield
        finally:
            self._finish(index)

    def wrap(self, name: str, method: Callable) -> Callable:
        """A stand-in for ``method`` that records each call as a span."""
        nid = self._id(name)
        begin, finish = self._begin, self._finish

        def traced(*args, **kwargs):
            index = begin(nid)
            try:
                return method(*args, **kwargs)
            finally:
                finish(index)

        traced.__wrapped__ = method  # type: ignore[attr-defined]
        return traced

    def wrap_iter(self, name: str, iterable: Iterable) -> Iterator:
        """Yield ``iterable``'s items, recording each ``next()`` as a span."""
        nid = self._id(name)
        begin, finish = self._begin, self._finish
        iterator = iter(iterable)
        while True:
            index = begin(nid)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                finish(index)
            yield item

    # -- after the run -------------------------------------------------

    def add_spans(self, name: str, intervals: Iterable[Tuple[float, float]]
                  ) -> None:
        """Record finished intervals that ran where no bookkeeping could,
        such as a signal handler: each becomes a child of the innermost
        recorded span that contains it, so its time leaves that span's
        self time."""
        nid = self._id(name)
        recorded = len(self.start)
        for start, end in intervals:
            # The last span to start before ``start`` is the innermost
            # container or a finished descendant of it; walk up.
            index = bisect_right(self.start, start, 0, recorded) - 1
            while index != NO_PARENT and self.end[index] < end:
                index = self.parent[index]
            self.name_id.append(nid)
            self.parent.append(index)
            self.request.append(
                self.request[index] if index != NO_PARENT else -1
            )
            self.start.append(start)
            self.end.append(end)

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """``{name: (self seconds, calls)}`` over every recorded span."""
        own = [e - s for s, e in zip(self.start, self.end)]
        durations = list(own)
        for index, parent in enumerate(self.parent):
            if parent != NO_PARENT:
                own[parent] -= durations[index]
        totals = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for nid, seconds in zip(self.name_id, own):
            totals[nid] += seconds
            calls[nid] += 1
        return {
            name: (totals[nid], calls[nid])
            for nid, name in enumerate(self.names)
        }

    def dump(self, path: Path) -> None:
        """Write the buffered spans: a JSON header line, then the raw
        arrays in header order (native byte order, ``array.tofile``)."""
        columns = ("name_id", "parent", "request", "start", "end")
        header = {
            "names": self.names,
            "spans": len(self),
            "columns": [[c, getattr(self, c).typecode] for c in columns],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in columns:
                getattr(self, column).tofile(out)
