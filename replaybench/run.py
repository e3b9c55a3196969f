"""Host-time replay benchmark: one workload per call, one result line.

Run from the repository root::

    python3 replaybench/run.py --workload mail-revive --seed 3 \\
        --seconds 20 --trace 0

Every pass runs in a fresh interpreter (``replay.py``), one at a time,
so each pass pays trace generation and preconditioning from cold
process caches and has its own peak RSS.  ``--trace 0`` repeats
untraced passes for ``--seconds`` and reports the medians of the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
for ``--seconds``, then makes one count pass, and reports the per-layer
metrics.  Times are host seconds at a reference host speed: each pass
calibrates the host as it runs (``hostspeed.py``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Correctness: every pass's digest and counters must equal those of the
run's first pass (passes are separate processes, so this checks
determinism across interpreters, and count identity across the
untraced, traced and count passes).  At the workload's default seed
the digest must also equal the one ``digests.json`` records from the
program's own entry points; at any other seed one extra untimed pass at
the default seed makes that check.  A pass that fails a check counts
all of its requests as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
DIGESTS_FILE = HERE / "digests.json"

#: Untraced passes a ``--trace 0`` run makes even if ``--seconds`` is
#: already spent: the reported values are medians.
MIN_PASSES = 3
#: Hard stop for the whole run; a pass never starts after it.
RUN_LIMIT_S = 170.0

UNITS = {
    "replay_rps": "requests/s",
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MiB",
}


class PassFailed(RuntimeError):
    """A pass process exited non-zero or printed no record."""


def run_child(root: Path, workload: str, seed: Optional[int], mode: str,
              deadline: float) -> dict:
    """Run one ``replay.py`` pass in a fresh interpreter and wait for it."""
    command = [sys.executable, str(HERE / "replay.py"),
               "--workload", workload, "--mode", mode]
    if seed is not None:
        command += ["--seed", str(seed)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(command, cwd=root, env=env, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassFailed(
            f"{mode} pass of {workload} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end_metrics(passes: List[dict]) -> Dict[str, dict]:
    """Medians over the untraced passes, at reference host speed."""
    values = {
        "replay_rps": median([p["requests"] / p["replay_s"] for p in passes]),
        "setup_s": median([p["setup_s"] for p in passes]),
        "run_s": median([p["run_s"] for p in passes]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
    }
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}


def per_layer_metrics(untraced: List[dict], traced: List[dict],
                      count: dict) -> Dict[str, dict]:
    """Per-layer figures: medians over the traced passes for times (at
    reference host speed), the program's counters (identical in every
    pass) for counts."""
    from replay import PHASES, REPLAY_LAYERS

    metrics: Dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    def layer(name: str) -> List[float]:
        return [
            p["layers"].get(name, [0.0, 0])[0] * p["host_scale"]
            for p in traced
        ]

    for name in PHASES + REPLAY_LAYERS:
        put(f"{name}.self_s", median(layer(name)), "s")
        if name in REPLAY_LAYERS and name != "replay.driver":
            put(f"{name}.calls", traced[0]["layers"].get(name, [0, 0])[1],
                "count")
    put("experiments.setup_rss_mb",
        median([p["setup_rss_mb"] for p in untraced]), "MiB")

    counts = count["counts"]
    erases = counts["gc_erases"]
    relocations = counts["gc_relocations"]
    put("ftl.gc.erases", erases, "count")
    put("ftl.gc.relocations", relocations, "count")
    put("ftl.gc.relocations_per_erase",
        relocations / erases if erases else 0.0, "ratio")
    lookups = counts.get("pool.lookups", 0)
    hits = counts.get("pool.hits", 0)
    put("core.dvp.hits", hits, "count")
    put("core.dvp.hit_ratio", hits / lookups if lookups else 0.0, "ratio")
    put("core.dvp.evictions", counts.get("pool.evictions", 0), "count")
    put("kv.pack_repacks", counts.get("kv.pack_repacks", 0), "count")
    put("kv.buffer_hits", counts.get("kv.buffer_hits", 0), "count")

    put("replay.py_calls_per_request",
        count["py_calls"] / count["requests"], "calls")
    traced_replay = median([p["replay_s"] for p in traced])
    untraced_replay = median([p["replay_s"] for p in untraced])
    put("trace.overhead_frac", traced_replay / untraced_replay - 1.0,
        "ratio")
    put("trace.coverage_frac", median([coverage(p) for p in traced]),
        "ratio")
    put("host.calibration_ms", median(
        [p["host_loop_s"] * 1e3 for p in untraced + traced]
    ), "ms")
    for name, value in count["model"].items():
        unit = "us" if name.endswith("_us") else "ratio"
        put(name, value, unit)
    return metrics


def coverage(record: dict) -> float:
    """Share of a traced pass's replay time that the named layers'
    self times account for, ``replay.driver`` left out."""
    from replay import NAMED_LAYERS

    covered = sum(
        record["layers"].get(name, [0.0, 0])[0] for name in NAMED_LAYERS
    )
    return covered / record["raw"]["replay"]


def _calls(record: dict) -> Dict[str, int]:
    """Span counts per layer; calibration interrupts come by the clock."""
    return {
        name: calls for name, (_, calls) in record["layers"].items()
        if name != "host.calibration"
    }


def check_passes(passes: List[dict], reference: Optional[dict],
                 recorded: Optional[str]) -> List[str]:
    """Mark the passes that fail a correctness check; returns the
    problems found.  ``passes[0]`` sets the expected digest and counts."""
    problems = []
    expected = passes[0]
    traced = [p for p in passes if "layers" in p]
    for p in passes:
        p["failed"] = False
        if p["digest"] != expected["digest"]:
            problems.append(f"{p['mode']} pass digest differs from the first")
            p["failed"] = True
        if p["counts"] != expected["counts"]:
            problems.append(f"{p['mode']} pass counters differ from the first")
            p["failed"] = True
        if "layers" in p and _calls(p) != _calls(traced[0]):
            problems.append("traced pass span counts differ from the first")
            p["failed"] = True
    check = reference if reference is not None else expected
    check.setdefault("failed", False)
    if recorded is None:
        problems.append("no digest recorded for this workload")
        check["failed"] = True
    elif check["digest"] != recorded:
        problems.append(
            f"default-seed digest {check['digest']} != recorded {recorded}"
        )
        if reference is None:
            for p in passes:
                p["failed"] = True
        else:
            reference["failed"] = True
    return problems


def run(root: Path, workload: str, seed: Optional[int], seconds: float,
        trace: bool) -> dict:
    from replay import WORKLOADS

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    default_seed = WORKLOADS[workload].default_seed()
    recorded = json.loads(DIGESTS_FILE.read_text()).get(workload, {})
    if recorded.get("seed") != default_seed:
        recorded = {}

    def child(mode: str, child_seed: Optional[int] = seed) -> dict:
        if time.monotonic() >= deadline:
            raise PassFailed("run time limit reached")
        return run_child(root, workload, child_seed, mode, deadline)

    reference = None
    if seed is not None and seed != default_seed:
        reference = child("untraced", default_seed)

    untraced: List[dict] = []
    traced: List[dict] = []
    measure_start = time.monotonic()

    def measuring() -> bool:
        return time.monotonic() - measure_start < seconds

    if trace:
        while not traced or measuring():
            untraced.append(child("untraced"))
            traced.append(child("traced"))
        count = child("count")
        passes = untraced + traced + [count]
    else:
        while len(untraced) < MIN_PASSES or measuring():
            untraced.append(child("untraced"))
        passes = list(untraced)

    problems = check_passes(passes, reference, recorded.get("digest"))
    for problem in problems:
        print(f"replaybench: {workload}: {problem}", file=sys.stderr)
    checked = passes + ([reference] if reference is not None else [])
    attempted = sum(p["requests"] for p in checked)
    failed = sum(p["requests"] for p in checked if p["failed"])

    if trace:
        metrics = per_layer_metrics(untraced, traced, count)
    else:
        metrics = end_to_end_metrics(untraced)
    for p in untraced:
        raw = p["raw"]
        print(f"pass seed={p['seed']} requests={p['requests']} "
              f"host_scale={p['host_scale']:.4f} "
              f"replay_rps={p['requests'] / p['replay_s']:.1f} "
              f"(raw {p['requests'] / raw['replay']:.1f}) "
              f"setup_s={p['setup_s']:.4f} "
              f"(raw {raw['generate'] + raw['precondition']:.4f}) "
              f"run_s={p['run_s']:.4f} (raw {sum(raw.values()):.4f}) "
              f"peak_rss_mb={p['peak_rss_mb']:.2f}")
    for name, metric in metrics.items():
        print(f"{workload} {name} = {metric['value']} {metric['unit']}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the profile's own)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time per run (BENCHMARK.json's "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print("replaybench: run from the repository root "
              "(src/repro not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from replay import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"replaybench: unknown workload {args.workload!r}; choose "
              f"from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        result = run(root, args.workload, args.seed, args.seconds,
                     bool(args.trace))
    except (PassFailed, subprocess.TimeoutExpired) as exc:
        print(f"replaybench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
