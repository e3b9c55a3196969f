"""Every workload, every metric, in one table; and the spread proof.

Run from the repository root::

    python3 replaybench/report.py                 # both trace modes, seed 1
    python3 replaybench/report.py --seeds 10      # spread over seeds 1..10
    python3 replaybench/report.py --record        # rewrite digests.json

The default prints every end-to-end metric (``--trace 0``) and every
per-layer metric (``--trace 1``) by name, with its unit, for each
workload.  ``--seeds N`` runs ``--trace 0`` once per seed and prints,
for each end-to-end metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median, beside the
metric's bound from BENCHMARK.json.  ``--record`` recomputes each
workload's default-seed digest through the program's own entry points
and writes ``digests.json``; only do that when a change is meant to
alter simulated results.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
BENCHMARK_FILE = HERE.parent / "BENCHMARK.json"


def bench_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    proc = subprocess.run(command, capture_output=True, text=True,
                          timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result\n"
                         f"{proc.stderr}")
    return result


def spread(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def record() -> None:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from replay import WORKLOADS

    digests = {}
    for name, bench in WORKLOADS.items():
        seed = bench.default_seed()
        digests[name] = {"seed": seed, "digest": bench.reference_digest(seed)}
        print(f"{name} seed {seed}: {digests[name]['digest']}")
    (HERE / "digests.json").write_text(json.dumps(digests, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=0,
                        help="spread proof: run --trace 0 on seeds 1..N")
    parser.add_argument("--record", action="store_true",
                        help="rewrite digests.json and exit")
    args = parser.parse_args(argv)
    if args.record:
        record()
        return 0

    bench = json.loads(BENCHMARK_FILE.read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    env_note = f"{os.cpu_count()} CPUs, Python {sys.version.split()[0]}"

    if args.seeds:
        print(f"# spread over seeds 1..{args.seeds}, {seconds} s runs, "
              f"{env_note}")
        print("workload metric median q1 q3 spread bound")
        for workload in workloads:
            runs = [bench_run(workload, seed, seconds, 0)
                    for seed in range(1, args.seeds + 1)]
            for name, bound in bounds.items():
                s = spread([r["metrics"][name]["value"] for r in runs])
                print(f"{workload} {name} {s['median']:.6g} {s['q1']:.6g} "
                      f"{s['q3']:.6g} {s['spread']:.4f} {bound}", flush=True)
        return 0

    print(f"# seed 1, {seconds} s runs, {env_note}")
    for workload in workloads:
        for trace in (0, 1):
            result = bench_run(workload, 1, seconds, trace)
            for name, metric in result["metrics"].items():
                print(f"{workload} {name} {metric['value']:.6g} "
                      f"{metric['unit']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
