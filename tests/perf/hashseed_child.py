"""Print the run digests of a few small cells, and the environment keys
read while computing them, as one JSON object.

``test_hashseed_determinism.py`` runs this script in two child
interpreters and compares their output.  The children differ in what no
digest may depend on.  Their hash seeds (``PYTHONHASHSEED``) differ, and
so, keyed by the hash seed and set before ``repro`` is imported, do the
offset of every clock function and the seed of the global ``random``
state.  ``os.environ`` is swapped for a mapping that records each key
read, with the module that read it.  Run it by hand as::

    PYTHONPATH=src PYTHONHASHSEED=0 python tests/perf/hashseed_child.py

Each ``--inject-*`` flag plants one leak in every generated trace; the
test uses them to show its checks catch such a leak:

``--inject-set-order``
    regroups requests in the iteration order of a set of strings;
``--inject-wallclock``
    shuffles requests with a generator seeded from ``time.time()``;
``--inject-global-random``
    shuffles requests with the process-global ``random`` state;
``--inject-env-read``
    shuffles requests with a generator seeded from an environment read.
"""

import json
import os
import random
import sys
import time
from collections.abc import MutableMapping

HASH_SEED = int(os.environ.get("PYTHONHASHSEED", "0"))
#: Every clock reads this many seconds later per step of the hash seed.
CLOCK_STEP_S = 1_000_003.25


def offset_clocks(seconds: float) -> None:
    for name in ("time", "perf_counter", "monotonic"):
        real, real_ns = getattr(time, name), getattr(time, name + "_ns")
        setattr(time, name, lambda real=real: real() + seconds)
        setattr(time, name + "_ns",
                lambda real_ns=real_ns: real_ns() + int(seconds * 1e9))


def reader() -> str:
    """The innermost caller outside the standard library."""
    frame = sys._getframe(2)
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module.partition(".")[0] not in sys.stdlib_module_names:
            return module
        frame = frame.f_back
    return ""


class RecordingEnviron(MutableMapping):
    """``os.environ`` that notes ``(reader, key)`` for every key read;
    ``get``, ``in`` and ``os.getenv`` all go through ``__getitem__``."""

    def __init__(self, real):
        self.real = real
        self.reads = set()

    def __getitem__(self, key):
        self.reads.add((reader(), key))
        return self.real[key]

    def __setitem__(self, key, value):
        self.real[key] = value

    def __delitem__(self, key):
        del self.real[key]

    def __iter__(self):
        return iter(self.real)

    def __len__(self):
        return len(self.real)


offset_clocks(HASH_SEED * CLOCK_STEP_S)
random.seed(HASH_SEED)
os.environ = RecordingEnviron(os.environ)

import repro.perf.trace_cache as trace_cache  # noqa: E402
from repro.fleet import FleetSpec, run_fleet  # noqa: E402
from repro.kv import KVSpec, execute_kv_spec  # noqa: E402
from repro.perf.spec import RunSpec, execute_spec, result_digest  # noqa: E402

#: Same scale and systems as ``test_columnar_goldens.GOLDEN``.
MAIL_SCALE = 0.004
MAIL_SYSTEMS = ("baseline", "dedup", "mq-dvp")
WINDOW = 64


def by_set_order(window):
    """Group requests by an LPN class, classes in the iteration order of
    a set of strings (which follows the hash seed)."""
    classes = {f"lpn-class-{r.lpn % 8}" for r in window}
    rank = {name: i for i, name in enumerate(classes)}
    return sorted(window, key=lambda r: rank[f"lpn-class-{r.lpn % 8}"])


def shuffled(window, rng):
    window = list(window)
    rng.shuffle(window)
    return window


INJECTIONS = {
    "--inject-set-order": by_set_order,
    "--inject-wallclock": lambda window: shuffled(
        window, random.Random(int(time.time()))
    ),
    "--inject-global-random": lambda window: shuffled(window, random),
    "--inject-env-read": lambda window: shuffled(
        window, random.Random(os.environ.get("PYTHONHASHSEED"))
    ),
}


def reorder_windows(trace, reorder):
    trace = list(trace)
    return [
        request
        for start in range(0, len(trace), WINDOW)
        for request in reorder(trace[start:start + WINDOW])
    ]


def digests() -> dict:
    out = {
        f"mail/{system}": result_digest(
            execute_spec(RunSpec("mail", system, scale=MAIL_SCALE))
        )
        for system in MAIL_SYSTEMS
    }
    out["kv/ycsb-a/mq-dvp"] = execute_kv_spec(
        KVSpec(workload="ycsb-a", system="mq-dvp", scale=0.01)
    ).digest
    out["fleet/mail/mq-dvp"] = run_fleet(
        FleetSpec(
            workload="mail", system="mq-dvp", shards=2, scale=MAIL_SCALE
        ),
        jobs=1,
    ).fleet_digest
    return out


def main(argv) -> int:
    for flag in argv:
        trace_cache.generate_trace = (
            lambda profile, generate=trace_cache.generate_trace,
            reorder=INJECTIONS[flag]:
            reorder_windows(generate(profile), reorder)
        )
    out = {"digests": digests(), "env_reads": sorted(os.environ.reads)}
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
