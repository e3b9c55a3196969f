"""One replay pass of one benchmark workload, run in this process.

Usage (from the repository root, with the program's sources on the
path)::

    PYTHONPATH=src python3 replaybench/replay.py --workload mail-revive \\
        --mode untraced [--seed N]

prints one JSON object: the pass's phase timings, peak RSS, run digest
and the program's own counters read after ``finalize``.  The timings
are stated at a reference host speed (``hostspeed.py``); ``raw`` holds
the unscaled ones.  ``run.py`` starts one fresh interpreter per pass,
so every pass pays trace generation and preconditioning from cold
process caches, the way each ``repro run`` does.

The pass drives the program only through its public calls:
``generate_trace`` or the kv zoo streams, ``Device.build / precondition /
attach / step / finalize`` and ``result_digest`` / ``kv_result_digest``.

Modes:

``untraced``
    The measured pass.  Installs nothing: every object on the replay
    path is exactly what a freshly built ``Device`` holds.
``traced``
    Wraps the layer methods of the live objects with
    :class:`~spans.SpanRecorder` stand-ins and reports each layer's
    self time and call count.  Its times are never end-to-end numbers.
``count``
    Replays under ``cProfile`` and reports the Python function calls
    made inside ``Device.step``; the only figure it yields is that count.

Each workload's ``reference_digest`` computes the digest through the
program's own entry points (``execute_spec`` / ``execute_kv_spec``);
``digests.json`` records it (``report.py --record``).
"""

from __future__ import annotations

import argparse
import cProfile
import json
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple

from repro.core.dvp import PoolStats
from repro.core.hashing import fingerprint_of_value
from repro.experiments.config import RunConfig
from repro.experiments.device import Device
from repro.experiments.runner import config_for_profile, scaled_pool_entries
from repro.flash.config import scaled_config
from repro.ftl.ftl import FTLCounters
from repro.kv.inline import PackerStats
from repro.kv.scenario import (
    DEFAULT_FILL_FRACTION,
    KVSpec,
    execute_kv_spec,
    kv_result_digest,
)
from repro.kv.store import KVStats, KVStore
from repro.kv.zoo import kv_workload, load_stream, txn_stream
from repro.perf.spec import RunSpec, execute_spec, result_digest
from repro.sim.request import OpType
from repro.traces.profiles import profile_by_name
from repro.traces.synthetic import generate_trace

from hostspeed import HostSampler
from spans import SpanRecorder

MODES = ("untraced", "traced", "count")
#: Where traced passes write their span buffers, under the directory
#: the pass runs in.
SPANS_DIR = ".replaybench-spans"

#: The paper's 200K-entry pool label, scaled like every ``repro run``.
PAPER_POOL_ENTRIES = 200_000

#: Span names of the layers the traced pass instruments inside
#: ``Device.step``.
NAMED_LAYERS = (
    "sim.submit",
    "flash.timing",
    "ftl.write",
    "ftl.read",
    "ftl.trim",
    "ftl.gc",
    "core.dvp.lookup",
    "core.dvp.insert",
    "core.dvp.discard",
    "kv.translate",
    "kv.zoo",
)
#: ``replay.driver`` is the step itself: its self time is the part of
#: the replay that no layer span covers.
REPLAY_LAYERS = NAMED_LAYERS + ("replay.driver",)
#: Calibration cadence during a pass, and the calibration loop time
#: every reported time is scaled to (see ``hostspeed.py``).  The loop
#: takes about 4 ms on a quiet 2-vCPU x86-64 VM, so calibration fills
#: about a sixth of a pass; shorter or sparser loops tracked the host's
#: speed measurably worse.
SAMPLE_INTERVAL_S = 0.02
REFERENCE_LOOP_S = 4.0e-3
#: Root spans outside the replay.
PHASES = ("traces.generate", "experiments.precondition", "perf.digest")


@dataclass
class Drive:
    """A preconditioned device plus what its replay and digest need."""

    device: Device
    label: str
    requests: Callable[[Optional[SpanRecorder]], Iterable]
    store: Optional[KVStore] = None

    def digest(self, result) -> str:
        if self.store is None:
            return result_digest(result)
        return kv_result_digest(result, self.store.counters())


@dataclass(frozen=True)
class BlockWorkload:
    """A Table II profile replayed against one system."""

    profile: str
    system: str
    scale: float

    def default_seed(self) -> int:
        return profile_by_name(self.profile).seed

    def generate(self, seed: int):
        profile = profile_by_name(self.profile).scaled(self.scale)
        profile = replace(profile, seed=seed)
        return profile, generate_trace(profile)

    def precondition(self, generated,
                     recorder: Optional[SpanRecorder] = None) -> Drive:
        profile, trace = generated
        device = Device(
            self.system,
            config_for_profile(profile),
            scaled_pool_entries(PAPER_POOL_ENTRIES, self.scale),
        )
        # The default path, as ``run_system`` takes it: in a fresh
        # process the prefill cache misses, so this prefills and then
        # captures the snapshot.
        device.precondition(profile)
        return Drive(device, profile.name, lambda recorder: trace)

    def reference_digest(self, seed: int) -> str:
        spec = RunSpec(
            workload=self.profile,
            system=self.system,
            paper_pool_entries=PAPER_POOL_ENTRIES,
            scale=self.scale,
            seed=seed,
        )
        return result_digest(execute_spec(spec))


@dataclass(frozen=True)
class KVWorkloadRun:
    """A keyed zoo workload through the key→LPN store.

    Preconditioning is the load phase ``execute_kv_spec`` runs: the zoo's
    load stream applied straight to the FTL, then every counter reset.
    ``digests.json`` holds ``execute_kv_spec``'s own digest, so each
    default-seed run checks that this replay matches it.
    """

    zoo: str
    system: str
    scale: float

    def default_seed(self) -> int:
        return kv_workload(self.zoo).seed

    def generate(self, seed: int):
        return kv_workload(self.zoo).scaled(self.scale).reseeded(seed)

    def precondition(self, workload,
                     recorder: Optional[SpanRecorder] = None) -> Drive:
        # The load stream is consumed lazily, as ``execute_kv_spec``
        # consumes it; a traced pass times its ``next()`` calls as
        # ``traces.generate``.
        load = load_stream(workload)
        if recorder is not None:
            load = recorder.wrap_iter("traces.generate", load)
        config = scaled_config(
            int(workload.estimated_pages() / DEFAULT_FILL_FRACTION)
        )
        device = Device(
            self.system,
            config,
            scaled_pool_entries(PAPER_POOL_ENTRIES, self.scale),
        ).build()
        store = KVStore(
            page_bytes=config.page_size, max_pages=config.logical_pages
        )
        ftl = device.ftl
        for request in store.translate(load):
            if request.op is OpType.WRITE:
                ftl.write(request.lpn, fingerprint_of_value(request.value_id))
            elif request.op is OpType.READ:
                ftl.read(request.lpn)
            else:
                ftl.trim(request.lpn)
        for request in store.flush(arrival_us=0.0):
            ftl.write(request.lpn, fingerprint_of_value(request.value_id))
        ftl.counters = FTLCounters()
        if ftl.pool is not None:
            ftl.pool.stats = PoolStats()
        store.stats = KVStats()
        store.packer.stats = PackerStats()

        def requests(recorder: Optional[SpanRecorder]) -> Iterable:
            if recorder is None:
                return store.translate(txn_stream(workload))
            zoo = recorder.wrap_iter("kv.zoo", txn_stream(workload))
            return recorder.wrap_iter("kv.translate", store.translate(zoo))

        return Drive(device, f"kv:{workload.name}", requests, store)

    def reference_digest(self, seed: int) -> str:
        spec = KVSpec(
            workload=self.zoo,
            system=self.system,
            paper_pool_entries=PAPER_POOL_ENTRIES,
            scale=self.scale,
            seed=seed,
        )
        return execute_kv_spec(spec).digest


#: The benchmark's workloads; README.md says why each is there.
WORKLOADS = {
    "mail-revive": BlockWorkload("mail", "mq-dvp", 0.25),
    "web-gc": BlockWorkload("web", "baseline", 0.25),
    "hadoop-read": BlockWorkload("hadoop", "mq-dvp", 0.25),
    "ycsb-a-kv": KVWorkloadRun("ycsb-a", "mq-dvp", 2.0),
}


def instrument(recorder: SpanRecorder, device: Device) -> None:
    """Shadow the replay path's layer methods with timed stand-ins."""
    ssd, ftl = device.ssd, device.ftl
    recorder.request_of = lambda: ssd.requests_served
    targets = [
        (ssd, "submit", "sim.submit"),
        (ssd.timelines, "chip_op", "flash.timing"),
        (ssd.timelines, "hash_op", "flash.timing"),
        (ftl, "write", "ftl.write"),
        (ftl, "read", "ftl.read"),
        (ftl, "trim", "ftl.trim"),
        (ftl.gc, "maybe_collect", "ftl.gc"),
        (ftl.gc, "background_collect", "ftl.gc"),
    ]
    if ftl.pool is not None:
        targets += [
            (ftl.pool, "lookup_for_write", "core.dvp.lookup"),
            (ftl.pool, "insert_garbage", "core.dvp.insert"),
            (ftl.pool, "discard_ppn", "core.dvp.discard"),
        ]
    for obj, method, name in targets:
        setattr(obj, method, recorder.wrap(name, getattr(obj, method)))


def python_calls(profiler: cProfile.Profile) -> int:
    """Calls ``profiler`` saw, summed over its raw entries (one per code
    object).  ``pstats`` keys functions by (file, line, name), so the
    generated ``__init__`` of every dataclass collides at
    ``("<string>", 2)`` and only one survives, picked by memory address."""
    return sum(entry.callcount for entry in profiler.getstats())


def _rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def counts_of(result, served: int, store: Optional[KVStore]) -> Dict[str, int]:
    """The program's own counters after ``finalize``; deterministic."""
    counts = {"requests": served, **asdict(result.counters)}
    if result.pool_stats is not None:
        for key in ("lookups", "hits", "insertions", "evictions"):
            counts[f"pool.{key}"] = result.pool_stats[key]
    if store is not None:
        for key, value in store.counters().items():
            counts[f"kv.{key}"] = value
    return counts


def model_of(result) -> Dict[str, float]:
    """Simulated-time outputs: explanatory, covered by the digest."""
    c = result.counters
    writes = c.host_writes or 1
    return {
        "model.wa": (c.programs + c.gc_relocations) / writes,
        "model.revival_rate": c.short_circuits / writes,
        "model.read_p99_us": result.reads.p99,
        "model.write_p99_us": result.writes.p99,
    }


def run_pass(
    workload: str,
    seed: Optional[int] = None,
    mode: str = "untraced",
    scale: Optional[float] = None,
    spans_dir: Optional[Path] = None,
    keep_device: bool = False,
) -> dict:
    """Run one pass; returns its record (see the module docstring).

    ``scale`` overrides the workload's input size (the benchmark's own
    tests run at tiny scale); ``keep_device`` adds the live ``Device``
    under ``"device"`` for inspection.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")
    bench = WORKLOADS[workload]
    if scale is not None:
        bench = replace(bench, scale=scale)
    if seed is None:
        seed = bench.default_seed()
    recorder = SpanRecorder() if mode == "traced" else None
    clock = time.perf_counter
    marks: Dict[str, Tuple[float, float]] = {}

    @contextmanager
    def segment(name: str, span: Optional[str] = None) -> Iterator[None]:
        start = clock()
        if recorder is not None and span is not None:
            with recorder.span(span):
                yield
        else:
            yield
        marks[name] = (start, clock())

    profiler = cProfile.Profile() if mode == "count" else None
    sampler = HostSampler(
        None if profiler is not None else SAMPLE_INTERVAL_S, clock
    )
    with sampler:
        with segment("generate", "traces.generate"):
            generated = bench.generate(seed)
        with segment("precondition", "experiments.precondition"):
            drive = bench.precondition(generated, recorder)
        setup_rss_mb = _rss_mb()
        with segment("attach"):
            device = drive.device
            device.attach(RunConfig(
                paper_pool_entries=PAPER_POOL_ENTRIES, scale=bench.scale
            ))
            requests = drive.requests(recorder)
            if recorder is not None:
                instrument(recorder, device)
        with segment("replay", "replay.driver"):
            if profiler is not None:
                profiler.enable()
            served = device.step(requests)
            if profiler is not None:
                profiler.disable()
        with segment("finalize"):
            result = device.finalize(workload=drive.label)
        with segment("digest", "perf.digest"):
            digest = drive.digest(result)

    raw = {name: sampler.work_s(*span) for name, span in marks.items()}
    at_reference = {
        name: sampler.scaled_s(*span, REFERENCE_LOOP_S)
        for name, span in marks.items()
    }
    record = {
        "workload": workload,
        "mode": mode,
        "seed": seed,
        "requests": served,
        "setup_s": at_reference["generate"] + at_reference["precondition"],
        "replay_s": at_reference["replay"],
        "run_s": sum(at_reference.values()),
        "raw": raw,
        "host_loop_s": sampler.mean_loop_s(),
        "host_scale": REFERENCE_LOOP_S / sampler.mean_loop_s(),
        "setup_rss_mb": setup_rss_mb,
        "peak_rss_mb": _rss_mb(),
        "digest": digest,
        "counts": counts_of(result, served, drive.store),
        "model": model_of(result),
    }
    if recorder is not None:
        recorder.add_spans("host.calibration", sampler.samples)
        record["layers"] = {
            name: [seconds, calls]
            for name, (seconds, calls) in recorder.self_times().items()
        }
        if spans_dir is not None:
            spans_dir.mkdir(parents=True, exist_ok=True)
            recorder.dump(spans_dir / f"{workload}-seed{seed}.spans")
    if profiler is not None:
        record["py_calls"] = python_calls(profiler)
    if keep_device:
        record["device"] = device
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the profile's own)")
    parser.add_argument("--mode", choices=MODES, default="untraced")
    args = parser.parse_args(argv)
    record = run_pass(args.workload, args.seed, args.mode,
                      spans_dir=Path(SPANS_DIR))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
