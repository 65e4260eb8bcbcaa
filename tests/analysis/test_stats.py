"""Unit tests for replication statistics."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import replicate, summarize
from repro.harness import FigureResult


class TestSummarize:
    def test_known_values(self):
        s = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert s.mean == pytest.approx(3.0)
        assert s.n == 5
        assert s.std == pytest.approx(math.sqrt(2.5))
        assert s.lo < 3.0 < s.hi

    def test_single_sample_honest_interval(self):
        s = summarize([7.0])
        assert s.mean == 7.0
        assert math.isinf(s.half_width)

    def test_zero_variance(self):
        s = summarize([2.0] * 10)
        assert s.half_width == 0.0
        assert s.lo == s.hi == 2.0

    def test_higher_confidence_wider_interval(self):
        data = [1.0, 2.0, 3.0, 4.0]
        assert summarize(data, 0.99).half_width \
            > summarize(data, 0.90).half_width

    def test_validation(self):
        with pytest.raises(ValueError):
            summarize([])
        with pytest.raises(ValueError):
            summarize([1.0], confidence=1.5)

    def test_str_format(self):
        text = str(summarize([1.0, 2.0, 3.0]))
        assert "±" in text and "n=3" in text

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                    min_size=2, max_size=50))
    def test_mean_always_inside_interval(self, data):
        s = summarize(data)
        assert s.lo <= s.mean <= s.hi

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e3),
                    min_size=3, max_size=30),
           st.integers(min_value=2, max_value=5))
    def test_interval_shrinks_with_replication(self, data, k):
        """Repeating the same spread with more samples tightens CI."""
        small = summarize(data)
        big = summarize(data * k)
        assert big.half_width <= small.half_width + 1e-9


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

    def test_summaries_attached(self):
        agg = replicate(self.fake_experiment, seeds=[0, 2, 4])
        summary = agg.summaries["s"][1]
        assert summary.n == 3
        assert summary.lo <= 12.0 <= summary.hi

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

        agg = replicate(
            lambda seed: fig6_submission_overhead(
                nodes=(2,), duration=20.0, seed=seed),
            seeds=[0, 1, 2])
        point = agg.summaries["update period=1s"][2]
        assert point.n == 3
        assert point.mean > 0


class TestSummarizeNanPolicy:
    def test_propagate_is_default_and_visible(self):
        s = summarize([1.0, float("nan"), 3.0])
        assert math.isnan(s.mean)  # poisoned, never silently wrong

    def test_omit_drops_nans(self):
        s = summarize([1.0, float("nan"), 3.0], nan_policy="omit")
        assert s.n == 2
        assert s.mean == pytest.approx(2.0)

    def test_raise_rejects_nans(self):
        with pytest.raises(ValueError, match="NaN"):
            summarize([1.0, float("nan")], nan_policy="raise")

    def test_all_nan_omit_is_empty(self):
        with pytest.raises(ValueError, match="no samples"):
            summarize([float("nan")] * 3, nan_policy="omit")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="nan_policy"):
            summarize([1.0], nan_policy="ignore")
