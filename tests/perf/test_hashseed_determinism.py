"""Run digests do not depend on the interpreter's hash seed.

``str`` hashing, and so the iteration order of sets and of dicts built
from them, changes with ``PYTHONHASHSEED``.  A digest that picks up that
order is reproducible inside one process and wrong in the next, which
same-process re-runs and the jobs=1-vs-N identity tests cannot see.

Two child interpreters (``hashseed_child.py``) with hash seeds 0 and 1
compute the mail goldens of ``test_columnar_goldens.py``, a KV digest and
a fleet digest.  Every digest must match across the seeds, and the mail
digests must equal the tracked goldens.  Wall-clock and global-random
leaks show on any re-run, so they are covered by the golden comparisons.
"""

import json
import os
import subprocess
import sys

from .test_columnar_goldens import GOLDEN

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "hashseed_child.py")
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

HASH_SEEDS = ("0", "1")


def child_digests(*flags: str) -> dict:
    """``{hash_seed: digests}`` from one child per seed, run side by side."""
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


def test_digests_identical_across_hash_seeds():
    by_seed = child_digests()
    first, second = (by_seed[seed] for seed in HASH_SEEDS)
    assert first == second
    assert sorted(first) == [
        "fleet/mail/mq-dvp", "kv/ycsb-a/mq-dvp",
        "mail/baseline", "mail/dedup", "mail/mq-dvp",
    ]
    for system, golden in GOLDEN.items():
        assert first[f"mail/{system}"] == golden, system


def test_set_of_str_order_in_a_trace_transform_is_caught():
    by_seed = child_digests("--inject-set-order")
    first, second = (by_seed[seed] for seed in HASH_SEEDS)
    leaked = sorted(k for k in first if first[k] != second[k])
    assert [k for k in leaked if k.startswith("mail/")] == [
        "mail/baseline", "mail/dedup", "mail/mq-dvp",
    ]
