"""Unit tests for replication statistics."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import histogram, replicate, summarize, \
    truncate_warmup
from repro.harness import FigureResult, SeriesResult


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


class TestTruncateWarmup:
    def test_drops_leading_fraction(self):
        s = SeriesResult("s", tuple(range(10)),
                         tuple(float(i) for i in range(10)))
        out = truncate_warmup(s, fraction=0.5)
        assert out.x[0] >= 4.5
        assert out.y == out.x  # values preserved

    def test_zero_fraction_keeps_all(self):
        s = SeriesResult("s", (0.0, 1.0), (5.0, 6.0))
        assert truncate_warmup(s, 0.0) == s

    def test_validation(self):
        s = SeriesResult("s", (0.0,), (1.0,))
        with pytest.raises(ValueError):
            truncate_warmup(s, 1.0)
        with pytest.raises(ValueError):
            truncate_warmup(SeriesResult("s", (), ()), 0.5)


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


class TestHistogram:
    def test_basic_binning(self):
        h = histogram([0.1, 0.2, 0.6, 0.9], bins=2,
                      value_range=(0.0, 1.0))
        assert h.counts == (2, 2)
        assert h.edges == (0.0, 0.5, 1.0)
        assert h.n == 4 and h.nan_count == 0
        assert h.mean == pytest.approx(0.45)
        assert (h.min, h.max) == (0.1, 0.9)

    def test_empty_series_is_not_an_error(self):
        h = histogram([], bins=4)
        assert h.counts == (0, 0, 0, 0)
        assert h.n == 0 and h.total == 0
        assert math.isnan(h.mean)
        assert math.isnan(h.min) and math.isnan(h.max)

    def test_empty_series_respects_range(self):
        h = histogram([], bins=2, value_range=(10.0, 20.0))
        assert h.edges == (10.0, 15.0, 20.0)

    def test_single_sample_widens_degenerate_range(self):
        h = histogram([5.0], bins=2)
        assert sum(h.counts) == 1
        assert h.edges[0] == pytest.approx(4.5)
        assert h.edges[-1] == pytest.approx(5.5)
        assert h.mean == 5.0

    def test_all_equal_samples(self):
        h = histogram([3.0, 3.0, 3.0], bins=3)
        assert sum(h.counts) == 3
        assert h.min == h.max == 3.0

    def test_nan_omit_counts_separately(self):
        h = histogram([1.0, float("nan"), 2.0, float("nan")], bins=2)
        assert h.n == 2
        assert h.nan_count == 2
        assert h.total == 4
        assert sum(h.counts) == 2
        assert h.mean == pytest.approx(1.5)  # NaNs never binned

    def test_nan_propagate_poisons_stats_not_counts(self):
        h = histogram([1.0, float("nan"), 2.0], bins=2,
                      nan_policy="propagate")
        assert sum(h.counts) == 2       # counts stay usable
        assert math.isnan(h.mean)       # stats are visibly poisoned
        assert math.isnan(h.min) and math.isnan(h.max)

    def test_nan_raise(self):
        with pytest.raises(ValueError, match="NaN"):
            histogram([float("nan")], nan_policy="raise")

    def test_all_nan_omit_behaves_like_empty(self):
        h = histogram([float("nan")] * 5, bins=2)
        assert h.n == 0 and h.nan_count == 5
        assert sum(h.counts) == 0
        assert math.isnan(h.mean)

    def test_validation(self):
        with pytest.raises(ValueError, match="bins"):
            histogram([1.0], bins=0)
        with pytest.raises(ValueError, match="value_range"):
            histogram([1.0], value_range=(2.0, 1.0))
        with pytest.raises(ValueError, match="nan_policy"):
            histogram([1.0], nan_policy="whatever")

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), max_size=50),
           st.integers(min_value=1, max_value=20))
    def test_every_finite_sample_lands_in_a_bin(self, data, bins):
        h = histogram(data, bins=bins)
        assert sum(h.counts) == len(data) == h.n
        assert len(h.counts) == bins
        assert len(h.edges) == bins + 1
        assert all(a <= b for a, b in zip(h.edges, h.edges[1:]))
