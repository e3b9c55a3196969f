"""Unit tests for the multi-seed replication harness."""

import pytest

from repro.experiments.replication import (
    Replicates,
    paired_improvement,
    replicate,
)


class TestReplicates:
    def test_summary_statistics(self):
        reps = Replicates("m", [10.0, 20.0, 30.0])
        assert reps.mean == 20.0
        assert reps.minimum == 10.0
        assert reps.maximum == 30.0
        assert reps.spread == pytest.approx(10.0)
        assert "n=3" in reps.summary()

    def test_single_sample_spread_zero(self):
        assert Replicates("m", [5.0]).spread == 0.0

    def test_empty(self):
        reps = Replicates("m", [])
        assert reps.mean == 0.0
        assert reps.spread == 0.0


class TestReplicate:
    SCALE = 0.02

    def test_different_seeds_different_samples(self):
        reps = replicate(
            "desktop", "baseline", "flash_writes", seeds=(1, 2, 3),
            scale=self.SCALE,
        )
        assert len(reps.samples) == 3
        assert len(set(reps.samples)) > 1  # reseeding actually varies

    def test_same_seed_reproduces(self):
        a = replicate("desktop", "baseline", "flash_writes", (7,), self.SCALE)
        b = replicate("desktop", "baseline", "flash_writes", (7,), self.SCALE)
        assert a.samples == b.samples

    def test_paired_improvement_positive_on_mail(self):
        reps = paired_improvement(
            "mail", "mq-dvp", "flash_writes", seeds=(1, 2), scale=self.SCALE,
        )
        assert len(reps.samples) == 2
        assert reps.minimum > 0.0  # DVP beats baseline under every seed

    def test_paired_vs_self_is_zero(self):
        reps = paired_improvement(
            "desktop", "baseline", "flash_writes", seeds=(3,), scale=self.SCALE,
        )
        assert reps.samples == [0.0]

    @pytest.mark.parametrize("run", [replicate, paired_improvement])
    def test_unknown_metric_refused_before_any_cell_runs(
        self, run, monkeypatch
    ):
        def no_cells(*args, **kwargs):
            raise AssertionError("a cell ran before the metric was checked")

        monkeypatch.setattr("repro.perf.parallel.run_specs", no_cells)
        with pytest.raises(ValueError, match="mean_latency_us"):
            run("mail", "mq-dvp", "mean_latency", seeds=(1,), scale=self.SCALE)
