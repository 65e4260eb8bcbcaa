"""Unit tests for cross-seed replication."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import replicate
from repro.harness import FigureResult
from repro.runtime.rng import Pcg64Stream


class TestReplicate:
    @staticmethod
    def fake_experiment(seed: int) -> FigureResult:
        r = FigureResult(experiment_id="figF", title="Fake",
                         xlabel="x", ylabel="y")
        r.add_series("s", [1, 2], [10.0 + seed, 20.0 + seed])
        return r

    def test_means_across_seeds(self):
        agg = replicate(self.fake_experiment, seeds=[0, 2, 4])
        assert agg.get("s").y_at(1) == pytest.approx(12.0)
        assert agg.get("s").y_at(2) == pytest.approx(22.0)

    @pytest.mark.parametrize("n_seeds", range(2, 8))
    def test_means_equal_numpys_bit_for_bit(self, n_seeds):
        """Below 8 values numpy's pairwise mean is a left-to-right sum
        over the count, so the mean of 2-7 seeds is numpy's exactly."""
        xs = list(range(50))

        def noisy(seed):
            rng = Pcg64Stream(seed, n_seeds)
            r = FigureResult(experiment_id="figF", title="Fake",
                             xlabel="x", ylabel="y")
            r.add_series("s", xs, [rng.uniform(-1e3, 1e6) for _ in xs])
            return r

        seeds = list(range(n_seeds))
        agg = replicate(noisy, seeds=seeds)
        runs = [noisy(seed).get("s").y for seed in seeds]
        assert list(agg.get("s").y) == [float(np.mean(column))
                                        for column in zip(*runs)]

    def test_title_and_notes_mention_seeds(self):
        agg = replicate(self.fake_experiment, seeds=[1, 2])
        assert "2 seeds" in agg.title
        assert "[1, 2]" in agg.notes

    def test_no_seeds_rejected(self):
        with pytest.raises(ValueError):
            replicate(self.fake_experiment, seeds=[])

    def test_mismatched_series_rejected(self):
        def flaky(seed):
            r = FigureResult(experiment_id="f", title="t",
                             xlabel="x", ylabel="y")
            r.add_series(f"s{seed}", [1], [1.0])
            return r

        with pytest.raises(ValueError, match="different series"):
            replicate(flaky, seeds=[1, 2])

    def test_real_experiment_replication(self):
        """End-to-end: replicate a tiny fig6 run over three seeds."""
        from repro.harness import fig6_submission_overhead

        def run(seed):
            return fig6_submission_overhead(nodes=(2,), duration=20.0,
                                            seed=seed)

        agg = replicate(run, seeds=[0, 1, 2])
        label = "update period=1s"
        samples = [run(seed).get(label).y_at(2) for seed in (0, 1, 2)]
        mean = agg.get(label).y_at(2)
        assert mean == pytest.approx(sum(samples) / 3)
        assert mean > 0
