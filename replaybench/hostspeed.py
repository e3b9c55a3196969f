"""Host-speed sampling, so a pass's times can be stated at a fixed speed.

On a shared VM the same Python work can take anywhere from 1x to 1.5x
as long from one second to the next, and neither CPU time nor steal
time shows it.  :class:`HostSampler` therefore interrupts the pass
every ``interval_s`` of wall time (``SIGALRM``) and runs a fixed piece
of pure-Python work, the calibration loop, timing it.  Afterwards
every timed segment of the pass can be given two ways:

* :meth:`HostSampler.work_s` -- its wall time minus the calibration
  time inside it (the raw host time of the program's own work);
* :meth:`HostSampler.scaled_s` -- each slice of work between two
  calibrations scaled by ``reference_s / (their mean loop time)``: the
  time the segment would have taken on a host where one loop takes
  ``reference_s``.

The calibration touches nothing in the program; the program only ever
sees a signal handler running between two of its bytecodes.  It does
share the CPU caches with the program, so a program that touches more
memory could slow the loop and hide part of its own regression.  The
benchmark's tests bound that: the loop's time right after work that
evicts the caches stays within 10% of its time right after work that
stays in them (measured: up to 6%).
"""

from __future__ import annotations

import gc
import signal
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Calibrator", "HostSampler"]


class _Probe:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def plus(self, x: int) -> int:
        return self.a + x


class Calibrator:
    """The calibration loop.

    Each iteration does what the replay does most: builds a small
    object, calls a method, updates a small hot dict and a 64K-entry
    dict at a scattered key (the replay's large tables miss the CPU
    caches; the small dict does not).  Other tenants slow these two
    kinds of work by different amounts, and a loop with only the first
    kind tracked the replay's slowdowns about half as well.  The table
    adds about 7 MiB to the process's RSS.
    """

    TABLE_SIZE = 1 << 16
    ITERATIONS = 3000

    def __init__(self) -> None:
        self._small: Dict[int, int] = {}
        self._table = {
            i * 2654435761 % (1 << 32): i for i in range(self.TABLE_SIZE)
        }
        self._keys = list(self._table)
        self._next = 0

    def loop(self) -> int:
        small, table, keys = self._small, self._table, self._keys
        n = len(keys)
        j = self._next
        total = 0
        for i in range(self.ITERATIONS):
            probe = _Probe(i, i & 7)
            slot = i & 1023
            small[slot] = small.get(slot, 0) + probe.plus(probe.b)
            j = (j + 7919) % n
            key = keys[j]
            table[key] = table[key] + probe.b
            total += len(small)
        self._next = j
        return total


class HostSampler:
    """Runs the calibration loop every ``interval_s`` while active.

    Use as a context manager around the whole pass.  ``interval_s=None``
    samples only on entry and exit.  The handler touches nothing but
    this object, so it is safe wherever the interrupted code was.
    """

    def __init__(
        self,
        interval_s: Optional[float] = 0.02,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.interval_s = interval_s
        self._clock = clock
        self._calibrator = Calibrator()
        self._busy = False
        self._previous = None
        #: ``(start, end)`` of every calibration, in time order.
        self.samples: List[Tuple[float, float]] = []

    def sample(self) -> None:
        """Run and time one calibration loop now."""
        if self._busy:
            return
        self._busy = True
        # A cyclic collection that fell inside the loop would walk the
        # program's whole heap and bill it to the host's speed.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = self._clock()
            self._calibrator.loop()
            self.samples.append((start, self._clock()))
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "HostSampler":
        self.sample()
        if self.interval_s is not None:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(
                signal.ITIMER_REAL, self.interval_s, self.interval_s
            )
        return self

    def __exit__(self, *exc) -> None:
        if self.interval_s is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    # -- after the pass ------------------------------------------------

    def mean_loop_s(self) -> float:
        return sum(e - s for s, e in self.samples) / len(self.samples)

    def work_s(self, start: float, end: float) -> float:
        """Wall time of ``[start, end]`` minus the calibrations in it."""
        inside = sum(
            max(0.0, min(e, end) - max(s, start)) for s, e in self.samples
        )
        return (end - start) - inside

    def scaled_s(self, start: float, end: float, reference_s: float) -> float:
        """``[start, end]``'s work at a loop time of ``reference_s``: each
        gap between two calibrations is scaled by their mean loop time."""
        total = 0.0
        samples = self.samples
        for (s0, e0), (s1, e1) in zip(samples, samples[1:]):
            overlap = min(s1, end) - max(e0, start)
            if overlap > 0:
                loop_s = ((e0 - s0) + (e1 - s1)) / 2
                total += overlap * reference_s / loop_s
        return total
