"""Run digests do not depend on the hash seed, the clocks, the global
``random`` state or the environment.

``str`` hashing, and so the iteration order of sets and of dicts built
from them, changes with ``PYTHONHASHSEED``.  A digest that picks up that
order is reproducible inside one process and wrong in the next, which
same-process re-runs and the jobs=1-vs-N identity tests cannot see.

Two child interpreters (``hashseed_child.py``) compute the mail goldens
of ``test_columnar_goldens.py``, a KV digest and a fleet digest.  They
run with hash seeds 0 and 1, with every clock function offset by a
different amount and with the global ``random`` state seeded
differently.  Every digest must match across the children, and the mail
digests must equal the tracked goldens.  Each child also records the
environment keys read while it ran: only the trace cache and ``config``
modules may read any.  Each check has a fixture that plants the leak it
exists to catch and shows the check fails.
"""

import json
import os
import subprocess
import sys

import pytest

from .test_columnar_goldens import GOLDEN

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "hashseed_child.py")
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

HASH_SEEDS = ("0", "1")


def child_runs(*flags: str) -> dict:
    """``{hash_seed: output}`` from one child per seed, run side by side."""
    children = {}
    for seed in HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC_DIR, env.get("PYTHONPATH")) if p
        )
        # a shared on-disk trace tier would hand both children one trace
        env.pop("REPRO_TRACE_CACHE", None)
        children[seed] = subprocess.Popen(
            [sys.executable, CHILD, *flags],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
    out = {}
    for seed, child in children.items():
        stdout, stderr = child.communicate(timeout=300)
        assert child.returncode == 0, stderr
        out[seed] = json.loads(stdout)
    return out


def leaked_digests(*flags: str) -> list:
    """The digests that differ between the two children."""
    first, second = (run["digests"] for run in child_runs(*flags).values())
    return sorted(k for k in first if first[k] != second[k])


def env_leaks(run: dict) -> list:
    """``reader:key`` for each environment read by code other than the
    trace cache and ``config`` modules."""
    return [
        f"{reader}:{key}" for reader, key in run["env_reads"]
        if reader != "repro.perf.trace_cache"
        and reader.rpartition(".")[2] != "config"
    ]


@pytest.fixture(scope="module")
def clean_runs():
    return child_runs()


def test_digests_identical_across_hash_seeds(clean_runs):
    first, second = (clean_runs[seed]["digests"] for seed in HASH_SEEDS)
    assert first == second
    assert sorted(first) == [
        "fleet/mail/mq-dvp", "kv/ycsb-a/mq-dvp",
        "mail/baseline", "mail/dedup", "mail/mq-dvp",
    ]
    for system, golden in GOLDEN.items():
        assert first[f"mail/{system}"] == golden, system


def test_environment_read_only_by_trace_cache_and_config(clean_runs):
    for run in clean_runs.values():
        assert env_leaks(run) == []
        # the recorder sees reads: the trace cache looks up its disk tier
        assert ["repro.perf.trace_cache", "REPRO_TRACE_CACHE"] in (
            run["env_reads"]
        )


#: The cells that replay a generated trace (the kv cell streams keys).
TRACE_CELLS = [
    "fleet/mail/mq-dvp", "mail/baseline", "mail/dedup", "mail/mq-dvp",
]


def test_set_of_str_order_in_a_trace_transform_is_caught():
    assert leaked_digests("--inject-set-order") == TRACE_CELLS


def test_wall_clock_read_in_a_trace_transform_is_caught():
    assert leaked_digests("--inject-wallclock") == TRACE_CELLS


def test_global_random_draw_in_a_trace_transform_is_caught():
    assert leaked_digests("--inject-global-random") == TRACE_CELLS


def test_environment_read_in_a_trace_transform_is_caught():
    for run in child_runs("--inject-env-read").values():
        assert env_leaks(run) == ["__main__:PYTHONHASHSEED"]
