"""Multi-seed replication: means, spreads and paired comparisons.

The paper reports single trace replays; with synthetic workloads we can do
better — regenerate each workload under several seeds and report the
sampling spread of every improvement number, so EXPERIMENTS.md claims are
not one-seed accidents.

:func:`replicate` runs one (workload, system) cell across seeds;
:func:`paired_improvement` compares a system against baseline *per seed*
(the strongest design: both systems see the identical trace) and returns
the mean, min and max improvement over seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean, stdev
from typing import List, Sequence

from ..ftl.ftl import FTLCounters
from ..sim.metrics import RunResult, percent_improvement
from .runner import DEFAULT_SCALE

__all__ = ["Replicates", "check_metric", "replicate", "paired_improvement"]


@dataclass(frozen=True)
class Replicates:
    """Per-seed samples of one scalar metric, with summary statistics."""

    metric: str
    samples: List[float]

    @property
    def mean(self) -> float:
        return mean(self.samples) if self.samples else 0.0

    @property
    def spread(self) -> float:
        """Sample standard deviation (0 for fewer than two samples)."""
        return stdev(self.samples) if len(self.samples) > 1 else 0.0

    @property
    def minimum(self) -> float:
        return min(self.samples) if self.samples else 0.0

    @property
    def maximum(self) -> float:
        return max(self.samples) if self.samples else 0.0

    def summary(self) -> str:
        return (
            f"{self.mean:.2f} ± {self.spread:.2f} "
            f"[{self.minimum:.2f}, {self.maximum:.2f}] (n={len(self.samples)})"
        )


def check_metric(metric: str) -> None:
    """Refuse a name that is not a ``RunResult.summary()`` key, before
    any cell runs."""
    valid = RunResult("", "", FTLCounters()).summary()
    if metric not in valid:
        raise ValueError(
            f"unknown metric {metric!r}; choose from "
            f"{', '.join(sorted(valid))}"
        )


def replicate(
    workload: str,
    system: str,
    metric: str,
    seeds: Sequence[int],
    scale: float = DEFAULT_SCALE,
    paper_pool_entries: int = 200_000,
    jobs: int = 1,
) -> Replicates:
    """Run one system over reseeded variants of a workload.

    ``metric`` is any key of ``RunResult.summary()``.  ``jobs`` fans the
    per-seed runs out over worker processes (each seed is an independent
    cell); sample order always follows ``seeds``.
    """
    from ..perf.parallel import run_specs
    from ..perf.spec import RunSpec

    check_metric(metric)
    specs = [
        RunSpec(
            workload=workload,
            system=system,
            paper_pool_entries=paper_pool_entries,
            scale=scale,
            seed=seed,
        )
        for seed in seeds
    ]
    results = run_specs(specs, jobs=jobs)
    samples = [float(result.summary()[metric]) for result in results]
    return Replicates(metric=metric, samples=samples)


def paired_improvement(
    workload: str,
    system: str,
    metric: str,
    seeds: Sequence[int],
    scale: float = DEFAULT_SCALE,
    paper_pool_entries: int = 200_000,
    baseline: str = "baseline",
    jobs: int = 1,
) -> Replicates:
    """Per-seed % improvement of ``system`` over ``baseline``.

    Both systems replay the *same* trace for each seed, so the pairs are
    directly comparable and trace-sampling noise cancels.  ``jobs`` runs
    the 2×len(seeds) cells in parallel; pairing is by position, which the
    ordered collection guarantees.
    """
    from ..perf.parallel import run_specs
    from ..perf.spec import RunSpec

    check_metric(metric)
    specs = []
    for seed in seeds:
        for name in (baseline, system):
            specs.append(
                RunSpec(
                    workload=workload,
                    system=name,
                    paper_pool_entries=paper_pool_entries,
                    scale=scale,
                    seed=seed,
                )
            )
    results = run_specs(specs, jobs=jobs)
    samples = [
        percent_improvement(
            base.summary()[metric], this.summary()[metric]
        )
        for base, this in zip(results[0::2], results[1::2])
    ]
    return Replicates(metric=f"{metric} improvement %", samples=samples)
