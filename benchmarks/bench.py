"""Run the repo benchmark on this machine and record it in BENCH_replay.json.

Run from anywhere (``make bench`` runs it from the repository root)::

    python3 benchmarks/bench.py

It takes no arguments.  For each workload ``BENCHMARK.json`` declares,
it runs ``replaybench/run.py --trace 0`` for the declared
``run_seconds`` and keeps the result line: the medians of the
end-to-end metrics, ``correct``, ``attempted`` and ``failed``.  Then it
times the fleet cell (mail/mq-dvp, 4 long-lived shards, scale 0.2) at
``jobs=1`` and at ``jobs=min(4, cpu_count)``, each leg from a cold trace
cache.  ``BENCH_replay.json`` gets all of it, with the machine's CPU
count, Python version and platform.

Exit status 1 when a workload is not ``correct`` or has failed
requests, when the two fleet legs mint different digests, or when the
fleet speedup is below 1x (below 2x with 4 or more workers).  On one
CPU there is no parallel leg and the speedup is recorded as null.
"""

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_replay.json"

FLEET = {"workload": "mail", "system": "mq-dvp", "shards": 4, "scale": 0.2}
#: Speedup the parallel fleet leg must reach when it runs 4 or more
#: workers: four GC-bound shards that cannot double throughput on four
#: cores mean the fan-out is broken.
FLEET_SPEEDUP_FLOOR = 2.0


def replay(workload: str, seconds: float) -> dict:
    """One ``replaybench/run.py --trace 0`` run; its JSON result line."""
    proc = subprocess.run(
        [sys.executable, "replaybench/run.py", "--workload", workload,
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        return {"correct": False, "failed": None,
                "error": proc.stderr.strip()[-2000:]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fleet_leg(jobs: int) -> tuple:
    """(fleet digest, wall seconds) of the fleet cell at ``jobs``."""
    from repro.fleet import FleetSpec, run_fleet
    from repro.perf.trace_cache import default_trace_cache

    default_trace_cache().clear()
    start = time.perf_counter()
    result = run_fleet(FleetSpec(**FLEET), jobs=jobs)
    return result.fleet_digest, time.perf_counter() - start


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    problems = []

    workloads = {}
    for workload in (w["name"] for w in declared["workloads"]):
        result = workloads[workload] = replay(workload, seconds)
        if not result["correct"] or result["failed"]:
            problems.append(f"{workload}: correct={result['correct']} "
                            f"failed={result['failed']}")
        rps = result.get("metrics", {}).get("replay_rps", {}).get("value")
        print(f"{workload}: replay_rps={rps} correct={result['correct']}")

    cpus = os.cpu_count() or 1
    jobs = min(FLEET["shards"], cpus)
    digest, serial_s = fleet_leg(1)
    fleet = dict(FLEET, fleet_digest=digest, jobs=jobs,
                 serial_seconds=round(serial_s, 3),
                 parallel_seconds=None, speedup=None)
    if jobs > 1:
        parallel_digest, parallel_s = fleet_leg(jobs)
        speedup = serial_s / parallel_s
        fleet.update(parallel_seconds=round(parallel_s, 3),
                     speedup=round(speedup, 3))
        floor = FLEET_SPEEDUP_FLOOR if jobs >= 4 else 1.0
        if parallel_digest != digest:
            problems.append(f"fleet: jobs=1 and jobs={jobs} digests differ")
        if speedup < floor:
            problems.append(f"fleet: speedup {speedup:.2f} < {floor} "
                            f"at jobs={jobs}")
    print(f"fleet: serial {fleet['serial_seconds']}s, jobs={jobs} "
          f"{fleet['parallel_seconds']}s, speedup {fleet['speedup']}")

    report = {
        "cpu_count": cpus,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "run_seconds": seconds,
        "workloads": workloads,
        "fleet": fleet,
    }
    OUT.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT.name}")
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
