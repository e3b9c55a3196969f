"""Print the run digests of a few small cells as one JSON object.

``test_hashseed_determinism.py`` runs this script in child interpreters
under different ``PYTHONHASHSEED`` values and compares the output: a
digest that depends on ``str`` hashing or set iteration order changes
with the seed.  Run it by hand as::

    PYTHONPATH=src PYTHONHASHSEED=0 python tests/perf/hashseed_child.py

``--inject-set-order`` reorders every generated trace by iterating a set
of strings; the test uses it to show the comparison catches such a leak.
"""

import json
import sys

import repro.perf.trace_cache as trace_cache
from repro.fleet import FleetSpec, run_fleet
from repro.kv import KVSpec, execute_kv_spec
from repro.perf.spec import RunSpec, execute_spec, result_digest

#: Same scale and systems as ``test_columnar_goldens.GOLDEN``.
MAIL_SCALE = 0.004
MAIL_SYSTEMS = ("baseline", "dedup", "mq-dvp")
WINDOW = 64


def set_order_transform(trace):
    """Regroup each window of requests by an LPN class, classes in the
    iteration order of a set of strings (which follows the hash seed)."""
    trace = list(trace)
    out = []
    for start in range(0, len(trace), WINDOW):
        window = trace[start:start + WINDOW]
        classes = {f"lpn-class-{r.lpn % 8}" for r in window}
        rank = {name: i for i, name in enumerate(classes)}
        out.extend(
            sorted(window, key=lambda r: rank[f"lpn-class-{r.lpn % 8}"])
        )
    return out


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
    if "--inject-set-order" in argv:
        generate = trace_cache.generate_trace
        trace_cache.generate_trace = (
            lambda profile: set_order_transform(generate(profile))
        )
    print(json.dumps(digests(), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
