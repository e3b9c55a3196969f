"""The per-request hot path does no I/O, logging, locking or sleeping.

``Device.step`` services every host request of every run, fleet shard
and serve batch.  A ``print``, a log call, a file open or a lock taken
below it costs host time on every request and, for logging and files,
couples replay to process state a digest never sees.

Each cell replays a small trace (with TRIMs injected, so the discard
path runs too) under :mod:`cProfile` and rejects the run if any callee
in the whole call tree is one of those effects.  A ``tracemalloc`` pass
bounds the bytes the replay *retains* per request on the pool-heavy and
the GC-heavy cell, so per-request state cannot start to leak.  Transient
allocation shows up as time in the replaybench per-layer ledger instead.
"""

import cProfile
import gc
import io
import logging
import os
import pstats
import re
import threading
import tracemalloc

import pytest

from repro.experiments.config import RunConfig
from repro.experiments.device import Device
from repro.experiments.runner import ExperimentContext, scaled_pool_entries
from repro.ftl.dvp_ftl import SYSTEMS
from repro.ftl.ftl import BaseFTL
from repro.traces.transforms import with_trims

SCALE = 0.01
TRIM_EVERY = 50
WORKLOADS = ("mail", "web")

#: Retained bytes per request after a replay.  Measured on x86-64 Linux
#: under CPython 3.10-3.13: 244-247 B/request on mail/mq-dvp and
#: 207-213 B/request on web/baseline.  The bound is about 2x the larger.
RETAINED_BYTES_PER_REQUEST = 512

#: Built-in callees (cProfile reports them with filename ``~``) that are
#: I/O, sleeping or locking.
_FORBIDDEN_BUILTIN = re.compile(
    r"builtins\.print|io\.open|of '_io\.|time\.sleep|"
    r"of '_thread\.(lock|RLock)' objects|_socket|"
    r"_posixsubprocess|posix\.(system|fork|spawn)"
)

#: Pure-Python stdlib modules whose functions must never run per request.
_FORBIDDEN_MODULES = ("logging", "socket.py", "subprocess.py")


def forbidden_callees(stats: pstats.Stats) -> list:
    """Every profiled function that is I/O, logging, locking or sleep."""
    found = []
    for filename, _, name in stats.stats:
        if filename == "~":
            if _FORBIDDEN_BUILTIN.search(name):
                found.append(name)
        elif any(
            part in _FORBIDDEN_MODULES for part in filename.split(os.sep)
        ):
            found.append(f"{filename}:{name}")
    return sorted(found)


def prepared_device(system: str, workload: str):
    """A preconditioned, attached device and its trimmed trace."""
    context = ExperimentContext.for_workload(workload, SCALE)
    device = Device(
        system, context.config, scaled_pool_entries(200_000, SCALE)
    )
    device.precondition(context.profile)
    device.attach(RunConfig(scale=SCALE))
    return device, list(with_trims(context.trace, TRIM_EVERY))


def profiled_step(system: str, workload: str) -> pstats.Stats:
    device, trace = prepared_device(system, workload)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        device.step(trace)
    finally:
        profiler.disable()
    return pstats.Stats(profiler)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_step_calls_no_effectful_function(system, workload):
    assert forbidden_callees(profiled_step(system, workload)) == []


@pytest.mark.parametrize(
    "system,workload", [("mq-dvp", "mail"), ("baseline", "web")]
)
def test_step_retains_bounded_bytes_per_request(system, workload):
    device, trace = prepared_device(system, workload)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        device.step(trace)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / len(trace) <= RETAINED_BYTES_PER_REQUEST


# -- the check trips on an FTL write that does any of the effects -------


def _print():
    print("write", file=io.StringIO())


def _log():
    logging.getLogger("repro.hot-path-probe").debug("write")


def _open():
    with open(os.devnull, "rb"):
        pass


def _lock():
    with threading.Lock():
        pass


@pytest.mark.parametrize(
    "effect,expected",
    [
        (_print, "builtins.print"),
        (_log, "logging"),
        (_open, "io.open"),
        (_lock, "_thread.lock"),
    ],
    ids=["print", "log", "open", "lock"],
)
def test_effect_in_ftl_write_is_caught(monkeypatch, effect, expected):
    original = BaseFTL.write

    def write_with_effect(self, lpn, fp):
        effect()
        return original(self, lpn, fp)

    monkeypatch.setattr(BaseFTL, "write", write_with_effect)
    found = forbidden_callees(profiled_step("mq-dvp", "mail"))
    assert any(expected in name for name in found), found
