"""Tests of the replay benchmark itself, at tiny input sizes.

Run from the repository root::

    python3 -m pytest -q replaybench/tests
"""

from __future__ import annotations

import cProfile
import gc
import json
import pstats
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

from replay import (
    REPLAY_LAYERS,
    WORKLOADS,
    instrument,
    python_calls,
    run_pass,
)
from run import (
    check_passes,
    coverage,
    end_to_end_metrics,
    per_layer_metrics,
)
from hostspeed import Calibrator, HostSampler
from spans import SpanRecorder

from repro.experiments.config import RunConfig

BENCH_DIR = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

#: Small enough that all four workloads run in a few seconds; large
#: enough that mail-revive and web-gc still collect garbage.
TINY = {
    "mail-revive": 0.05,
    "web-gc": 0.05,
    "hadoop-read": 0.05,
    "ycsb-a-kv": 0.1,
}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def passes(request):
    """One untraced, one traced and one count pass of a workload."""
    name = request.param
    return name, {
        mode: run_pass(name, mode=mode, scale=TINY[name], keep_device=True)
        for mode in ("untraced", "traced", "count")
    }


def test_every_metric_is_emitted_with_its_unit(passes):
    _, runs = passes
    e2e = end_to_end_metrics([runs["untraced"]])
    layers = per_layer_metrics(
        [runs["untraced"]], [runs["traced"]], runs["count"]
    )
    for declared, emitted in (
        (BENCHMARK["end_to_end"], e2e),
        (BENCHMARK["per_layer"], layers),
    ):
        assert {m["name"]: m["unit"] for m in declared} == {
            name: metric["unit"] for name, metric in emitted.items()
        }
    for metric in e2e.values():
        assert metric["value"] > 0


def test_passes_agree_on_digest_and_counts(passes):
    name, runs = passes
    digests = {run["digest"] for run in runs.values()}
    assert len(digests) == 1
    counts = [run["counts"] for run in runs.values()]
    assert counts[0] == counts[1] == counts[2]
    bench = replace(WORKLOADS[name], scale=TINY[name])
    assert bench.reference_digest(bench.default_seed()) in digests


def _fresh_device(name):
    bench = replace(WORKLOADS[name], scale=TINY[name])
    device = bench.precondition(bench.generate(bench.default_seed())).device
    return device.attach(RunConfig(scale=bench.scale))


def _replay_objects(device):
    ftl = device.ftl
    objects = {
        "ssd": device.ssd,
        "timelines": device.ssd.timelines,
        "ftl": ftl,
        "gc": ftl.gc,
    }
    if ftl.pool is not None:
        objects["pool"] = ftl.pool
    return objects


def _wrapped(obj):
    return sorted(
        key for key, value in vars(obj).items()
        if hasattr(value, "__wrapped__")
    )


def test_untraced_pass_installs_no_wrapper(passes):
    name, runs = passes
    used = _replay_objects(runs["untraced"]["device"])
    fresh = _replay_objects(_fresh_device(name))
    for key, obj in used.items():
        assert sorted(vars(obj)) == sorted(vars(fresh[key])), key
        assert _wrapped(obj) == [], key
    # The check can fail: the traced pass does shadow methods.
    traced = _replay_objects(runs["traced"]["device"])
    assert "submit" in _wrapped(traced["ssd"])
    assert "write" in _wrapped(traced["ftl"])


def test_layer_self_times_sum_to_traced_replay_time(passes):
    _, runs = passes
    traced = runs["traced"]
    # Layer self times plus replay.driver's are the replay, calibration
    # interrupts left out.
    total = sum(
        traced["layers"].get(name, [0.0, 0])[0] for name in REPLAY_LAYERS
    )
    replay_s = traced["raw"]["replay"]
    assert total == pytest.approx(replay_s, rel=1e-3)
    # The named layers alone, without replay.driver, cover most of it.
    assert coverage(traced) >= 0.9
    # The calibration interrupts are spans of their own, not layer time.
    assert traced["layers"]["host.calibration"][1] >= 2


def test_workloads_separate_the_layers(passes):
    name, runs = passes
    layers = runs["traced"]["layers"]

    def calls(layer):
        return layers.get(layer, [0.0, 0])[1]

    pool_calls = calls("core.dvp.lookup") + calls("core.dvp.insert")
    assert (pool_calls == 0) == (name == "web-gc")
    assert (calls("ftl.trim") > 0) == (name == "ycsb-a-kv")
    assert (calls("kv.translate") > 0) == (name == "ycsb-a-kv")
    assert runs["count"]["py_calls"] > runs["count"]["requests"]


def test_call_count_keeps_functions_that_share_a_label():
    # Both generated __init__ methods are labelled ("<string>", 2,
    # "__init__"); each call must still count.
    @dataclass
    class A:
        x: int

    @dataclass
    class B:
        y: int

    profiler = cProfile.Profile()
    profiler.enable()
    for i in range(5):
        A(i)
    B(0)
    profiler.disable()
    inits = sum(
        entry.callcount for entry in profiler.getstats()
        if getattr(entry.code, "co_name", "") == "__init__"
    )
    assert inits == 6
    # pstats keeps one of the two and loses the other's calls.
    lost = python_calls(profiler) - pstats.Stats(profiler).total_calls
    assert lost in (1, 5)


def test_recorder_exclusive_time_and_request_ids():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 20.0])
    recorder = SpanRecorder(clock=lambda: next(ticks))
    request = [7]
    recorder.request_of = lambda: request[0]

    class Layer:
        def inner(self):
            return "ok"

    layer = Layer()
    layer.inner = recorder.wrap("inner", layer.inner)
    with recorder.span("root"):              # 0 .. 20
        assert layer.inner() == "ok"         # 1 .. 3
        request[0] = 8
        with recorder.span("mid"):           # 4 .. 9
            # 5 .. 6 yields the item, 7 .. 8 meets StopIteration
            assert list(recorder.wrap_iter("it", [5])) == [5]
    times = recorder.self_times()
    assert times == {
        "root": (13.0, 1), "inner": (2.0, 1), "mid": (3.0, 1), "it": (2.0, 2)
    }
    assert list(recorder.request) == [7, 7, 8, 8, 8]
    total = sum(seconds for seconds, _ in times.values())
    assert total == pytest.approx(recorder.end[0] - recorder.start[0])
    assert recorder.parent[1] == 0 and recorder.parent[3] == 2

    # An interrupt inside "inner", one inside "mid" after "it" ended,
    # and one outside every span.
    recorder.add_spans("cal", [(1.5, 2.0), (8.5, 8.75), (30.0, 31.0)])
    assert list(recorder.parent[5:]) == [1, 2, -1]
    assert list(recorder.request[5:]) == [7, 8, -1]
    times = recorder.self_times()
    assert times["inner"] == (1.5, 1)
    assert times["mid"] == (2.75, 1)
    assert times["cal"] == (1.75, 3)


def test_recorder_dump_round_trips(tmp_path):
    recorder = SpanRecorder()
    with recorder.span("a"):
        with recorder.span("b"):
            pass
    path = tmp_path / "spans"
    recorder.dump(path)
    with open(path, "rb") as data:
        header = json.loads(data.readline())
        body = data.read()
    assert header["names"] == ["a", "b"] and header["spans"] == 2
    itemsizes = {"i": 4, "q": 8, "d": 8}
    assert len(body) == 2 * sum(itemsizes[t] for _, t in header["columns"])


def test_host_sampler_scales_each_gap_by_its_calibrations():
    sampler = HostSampler(interval_s=None)
    # Loops of 1 s, then 3 s: the host got three times slower.
    sampler.samples = [(0.0, 1.0), (5.0, 6.0), (10.0, 13.0)]
    assert sampler.work_s(0.5, 12.0) == pytest.approx(11.5 - 0.5 - 1.0 - 2.0)
    # Gap 1 (1..5) at loop time 1, gap 2 (6..10) at loop time 2.
    assert sampler.scaled_s(2.0, 8.0, reference_s=1.0) == pytest.approx(
        3.0 / 1.0 + 2.0 / 2.0
    )
    assert sampler.mean_loop_s() == pytest.approx(5.0 / 3)


def _scatter(buf: bytearray, seconds: float) -> None:
    """Touch ``buf`` at pseudo-random offsets for ``seconds``."""
    mask = len(buf) - 1
    j = 1
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        for _ in range(200):
            j = (j * 1103515245 + 12345) & 0x7FFFFFFF
            buf[j & mask] ^= 1


def test_calibration_loop_ignores_the_programs_memory_footprint():
    # The loop runs inside the program's process, so it shares the CPU
    # caches with it.  Time it right after 20 ms of work on 1 MiB
    # (cache-resident) and right after 20 ms on 64 MiB (evicting), in
    # alternation so the host's drift hits both alike: the loop must
    # not be slowed by what the work before it evicted, or the scaled
    # times would hide part of a memory-heavy regression.
    calibrator = Calibrator()
    light, heavy = bytearray(1 << 20), bytearray(64 << 20)
    ratios = []
    for _ in range(60):
        loop_s = []
        for buf in (light, heavy):
            _scatter(buf, 0.02)
            start = time.perf_counter()
            calibrator.loop()
            loop_s.append(time.perf_counter() - start)
        ratios.append(loop_s[1] / loop_s[0])
    # The scaling divides by this ratio, so it bounds the share of a
    # memory-heavy regression the scaled times could hide.  Measured
    # 1.00-1.06.
    assert abs(statistics.median(ratios) - 1.0) < 0.10


def test_calibration_runs_without_the_cyclic_collector():
    sampler = HostSampler(interval_s=None)
    seen = []
    sampler._calibrator.loop = lambda: seen.append(gc.isenabled())
    sampler.sample()
    assert seen == [False] and gc.isenabled()


def test_host_sampler_interrupts_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with HostSampler(interval_s=0.005) as sampler:
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    assert len(sampler.samples) >= 4
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_a_digest_mismatch_fails_the_pass():
    good = {"mode": "untraced", "digest": "x", "counts": {"a": 1},
            "requests": 5}
    bad = dict(good, digest="y")
    assert check_passes([dict(good), bad], None, "x")
    assert bad["failed"]
    reference = dict(good, digest="z")
    problems = check_passes([dict(good)], reference, "x")
    assert problems and reference["failed"]
    assert check_passes([dict(good)], None, "x") == []


def test_instrument_wraps_only_named_layers():
    device = _fresh_device("web-gc")
    recorder = SpanRecorder()
    instrument(recorder, device)
    assert device.ftl.pool is None
    assert _wrapped(device.ssd.timelines) == ["chip_op", "hash_op"]
    assert _wrapped(device.ftl.gc) == ["background_collect", "maybe_collect"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "replaybench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "replaybench/run.py", "--workload", "web-gc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
