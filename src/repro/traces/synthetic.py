"""Synthetic trace generation calibrated to the paper's workloads.

This is the documented substitution for the FIU/OSU content-hashed traces
(see DESIGN.md): given a :class:`~repro.traces.profiles.WorkloadProfile`,
the generator emits a page-granular request stream reproducing the
properties the paper's analysis and proposal rely on:

* **value locality** — with probability ``new_value_prob`` a write
  introduces a brand-new value; otherwise it redraws an existing value with
  Zipf(``value_zipf_s``) skew over creation rank, so a small fraction of
  values receives most writes (Figure 3a);
* **update locality** — the target LPN is drawn Zipf(``lpn_zipf_s``) over
  the logical space, so hot pages are overwritten often, constantly turning
  popular values into garbage (deaths) that popular redraws then rebirth —
  the life-cycle dynamics of Figures 2–4;
* **pre-existing content** — the drive starts full: every LPN initially
  holds its own unique value (``INITIAL_VALUE_BASE + lpn``), the way a real
  trace window opens on an already-written filesystem.  Cold reads of pages
  the trace never overwrites therefore audit as unique-value reads, which
  is how mail shows 8% unique writes but 80% unique reads in Table II.
  Simulations should pre-fill the drive accordingly (see
  :func:`initial_value_of` and ``repro.experiments.runner.prefill``);
* **timing** — Poisson arrivals with the profile's mean inter-arrival gap,
  giving the open-loop queueing the latency experiments need.

Generation is fully deterministic given the profile (its seed included).
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List

from ..sim.request import IORequest, OpType
from .profiles import WorkloadProfile
# The block profiles' Table II knobs were calibrated under the legacy
# (truncating) sampler and the perf goldens pin the traces it produces,
# so this generator keeps it deliberately; new generators (repro.kv
# zoo) use the corrected ``zipf_rank``.
from .zipf import zipf_rank_legacy

__all__ = [
    "INITIAL_VALUE_BASE",
    "initial_value_of",
    "SyntheticTraceGenerator",
    "generate_trace",
]

#: Value ids at or above this base are the unique "already on the drive"
#: contents each logical page holds before the trace window opens.
INITIAL_VALUE_BASE = 1 << 40


def initial_value_of(lpn: int) -> int:
    """The unique value stored at ``lpn`` before the trace begins."""
    return INITIAL_VALUE_BASE + lpn


class SyntheticTraceGenerator:
    """Turns one workload profile into a deterministic request stream."""

    def __init__(self, profile: WorkloadProfile):
        self.profile = profile

    def __iter__(self) -> Iterator[IORequest]:
        return self.stream()

    def stream(self) -> Iterator[IORequest]:
        """Yield the trace lazily (one pass, O(written-set) memory)."""
        profile = self.profile
        rng = random.Random(profile.seed)
        clock_us = 0.0
        values_created = 0
        writes_done = 0
        scan_remaining = 0
        scan_lpn = 0
        # What each LPN currently holds; absent → its initial unique value.
        content: Dict[int, int] = {}
        write, read = OpType.WRITE, OpType.READ

        for _ in range(profile.num_requests):
            clock_us += rng.expovariate(1.0 / profile.mean_interarrival_us)
            if rng.random() < profile.targets.write_ratio:
                writes_done += 1
                if (
                    profile.scan_every_writes
                    and scan_remaining == 0
                    and writes_done % profile.scan_every_writes == 0
                ):
                    # A background job starts sweeping fresh content
                    # sequentially through a random stretch of the space.
                    scan_remaining = profile.scan_length
                    scan_lpn = rng.randrange(profile.working_set_pages)
                if scan_remaining > 0:
                    scan_remaining -= 1
                    value_id = values_created
                    values_created += 1
                    lpn = scan_lpn
                    scan_lpn = (scan_lpn + 1) % profile.working_set_pages
                else:
                    value_id = self._draw_value(rng, values_created)
                    if value_id == values_created:
                        values_created += 1
                    lpn = self._draw_write_lpn(rng, value_id, values_created)
                content[lpn] = value_id
                yield IORequest(clock_us, write, lpn, value_id)
            else:
                lpn = self._draw_read_lpn(rng)
                yield IORequest(
                    clock_us, read, lpn,
                    content.get(lpn, initial_value_of(lpn)),
                )

    def _draw_value(self, rng: random.Random, values_created: int) -> int:
        """A fresh value id with probability ``new_value_prob``, else an
        existing value redrawn Zipf over creation rank (rank 1 = oldest)."""
        profile = self.profile
        if values_created == 0 or rng.random() < profile.new_value_prob:
            return values_created
        return zipf_rank_legacy(rng, values_created, profile.value_zipf_s) - 1

    def _draw_write_lpn(
        self, rng: random.Random, value_id: int, values_created: int
    ) -> int:
        """Target page for a write.

        With probability ``placement_corr`` the page's heat matches the
        value's popularity rank (popular value -> hot page), which couples
        value popularity to update rate and reproduces Figure 4a's
        "highly popular values are invalidated more quickly".  Otherwise
        the page is an independent Zipf draw.
        """
        profile = self.profile
        pages = profile.working_set_pages
        if rng.random() < profile.placement_corr:
            # value_id is its creation rank (0 = oldest = most popular).
            fraction = (value_id + 1) / max(1, values_created)
            jitter = 0.5 + rng.random()          # +/- 2x spread
            rank = int(fraction * pages * jitter)
            return min(pages - 1, max(0, rank - 1))
        return zipf_rank_legacy(rng, pages, profile.lpn_zipf_s) - 1

    def _draw_read_lpn(self, rng: random.Random) -> int:
        """Cold uniform read over the full cold region (which extends past
        the write working set, holding only pre-existing unique content)
        with probability ``cold_read_frac``; else a hot read skewed like
        the writes."""
        profile = self.profile
        if rng.random() < profile.cold_read_frac:
            return rng.randrange(profile.total_pages)
        return zipf_rank_legacy(rng, profile.working_set_pages,
                         profile.read_zipf_s) - 1

    def generate(self) -> List[IORequest]:
        """Materialise the whole trace (convenient for repeated replays)."""
        return list(self.stream())


def generate_trace(profile: WorkloadProfile) -> List[IORequest]:
    """One-call helper: profile in, request list out."""
    return SyntheticTraceGenerator(profile).generate()
