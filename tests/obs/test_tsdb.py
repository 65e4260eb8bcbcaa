"""The ring-buffer TSDB: tiers, queries, determinism."""

from __future__ import annotations

import json
import math

import pytest

from repro.obs import ObsError, Series, TimeSeriesDB, series_key


class TestSeriesKey:
    def test_bare_name(self):
        assert series_key("cpu") == "cpu"

    def test_labels_sorted_into_canonical_form(self):
        assert series_key("cpu", {"b": "2", "a": "1"}) \
            == "cpu{a=1,b=2}"
        assert series_key("cpu", (("b", "2"), ("a", "1"))) \
            == series_key("cpu", {"a": "1", "b": "2"})


class TestSeriesRings:
    def test_same_bucket_aggregates(self):
        s = Series("m", interval=1.0)
        s.observe(0.2, 1.0)
        s.observe(0.8, 3.0)
        ((t, bucket),) = s.samples()
        assert t == 0.0
        assert bucket.count == 2
        assert bucket.min == 1.0 and bucket.max == 3.0
        assert bucket.last == 3.0
        assert bucket.mean == pytest.approx(2.0)

    def test_interval_multiple_lands_in_its_own_bucket(self):
        s = Series("m", interval=1.0)
        s.observe(0.0, 1.0)
        s.observe(1.0, 2.0)
        assert [t for t, _ in s.samples()] == [0.0, 1.0]

    def test_time_backwards_raises(self):
        s = Series("m", interval=1.0)
        s.observe(5.0, 1.0)
        with pytest.raises(ObsError, match="time went backwards"):
            s.observe(2.0, 1.0)

    def test_nan_samples_ignored(self):
        s = Series("m", interval=1.0)
        s.observe(0.0, math.nan)
        assert s.samples() == []
        assert s.latest is None

    def test_overflow_folds_into_coarser_tier(self):
        s = Series("m", interval=1.0, capacity=4, rollup_factor=4,
                   n_tiers=2)
        for t in range(8):
            s.observe(float(t), float(t))
        base, coarse = s.tiers[0], s.tiers[1]
        assert len(base.buckets) == 4
        assert len(coarse.buckets) == 1
        folded = coarse.buckets[0]
        # t=0..3 rolled up into one 4s bucket.
        assert folded.count == 4
        assert folded.min == 0.0 and folded.max == 3.0
        assert folded.last == 3.0
        assert s.dropped == 0

    def test_coarsest_tier_drops_and_counts(self):
        s = Series("m", interval=1.0, capacity=2, rollup_factor=2,
                   n_tiers=2)
        for t in range(20):
            s.observe(float(t), 1.0)
        assert s.dropped > 0
        total_buckets = sum(len(t.buckets) for t in s.tiers)
        assert total_buckets <= 4  # 2 tiers x capacity 2

    def test_memory_is_bounded_regardless_of_run_length(self):
        s = Series("m", interval=1.0, capacity=8, rollup_factor=4,
                   n_tiers=3)
        for t in range(5000):
            s.observe(float(t), float(t))
        assert sum(len(t.buckets) for t in s.tiers) <= 24

    def test_samples_ordered_oldest_first_across_tiers(self):
        s = Series("m", interval=1.0, capacity=4, rollup_factor=4,
                   n_tiers=2)
        for t in range(12):
            s.observe(float(t), float(t))
        times = [t for t, _ in s.samples()]
        assert times == sorted(times)

    def test_latest_survives_folding(self):
        s = Series("m", interval=1.0, capacity=2, rollup_factor=2,
                   n_tiers=3)
        for t in range(30):
            s.observe(float(t), float(t) * 10)
        assert s.latest == 290.0

    def test_bad_geometry_rejected(self):
        with pytest.raises(ObsError):
            Series("m", interval=0.0)
        with pytest.raises(ObsError):
            Series("m", capacity=0)
        with pytest.raises(ObsError):
            Series("m", rollup_factor=1)


class TestQueries:
    @pytest.fixture
    def db(self):
        db = TimeSeriesDB(interval=1.0)
        for t in range(10):
            db.observe("gauge", (("node", "n0"),), float(t),
                       float(t))
            db.observe("cum", (("node", "n0"),), float(t),
                       float(t) * 2, kind="counter")
        return db

    def test_avg_over_time(self, db):
        # window [5, 9]: values 5..9
        assert db.avg_over_time("gauge", (("node", "n0"),),
                                window=4.0, now=9.0) \
            == pytest.approx(7.0)

    def test_min_max_over_time(self, db):
        labels = (("node", "n0"),)
        assert db.min_over_time("gauge", labels, window=4.0,
                                now=9.0) == 5.0
        assert db.max_over_time("gauge", labels, window=4.0,
                                now=9.0) == 9.0

    def test_quantile_over_time(self, db):
        labels = (("node", "n0"),)
        assert db.quantile_over_time(0.5, "gauge", labels,
                                     window=100.0, now=9.0) == 4.0
        assert db.quantile_over_time(1.0, "gauge", labels,
                                     window=100.0, now=9.0) == 9.0
        assert db.quantile_over_time(0.0, "gauge", labels,
                                     window=100.0, now=9.0) == 0.0

    def test_rate_of_cumulative_counter(self, db):
        # cum rises by 2 per second.
        assert db.rate("cum", (("node", "n0"),), window=5.0,
                       now=9.0) == pytest.approx(2.0)

    def test_rate_handles_counter_reset(self):
        db = TimeSeriesDB(interval=1.0)
        for t, v in enumerate([10.0, 20.0, 5.0]):
            db.observe("c", (), float(t), v, kind="counter")
        # 10 -> 20 is +10; 20 -> 5 is a reset contributing 5.
        assert db.rate("c", (), window=10.0, now=2.0) \
            == pytest.approx(15.0 / 2.0)

    def test_empty_windows_are_nan(self, db):
        labels = (("node", "n0"),)
        assert math.isnan(db.avg_over_time("missing", (),
                                           window=5.0, now=9.0))
        assert math.isnan(db.rate("gauge", labels, window=0.5,
                                  now=100.0))

    def test_bad_window_and_quantile_rejected(self, db):
        with pytest.raises(ObsError):
            db.avg_over_time("gauge", (), window=0.0, now=1.0)
        with pytest.raises(ObsError):
            db.quantile_over_time(1.5, "gauge", (), window=1.0,
                                  now=1.0)

    def test_keys_filter_and_sorted(self, db):
        assert db.keys() == ["cum{node=n0}", "gauge{node=n0}"]
        assert db.keys("gauge") == ["gauge{node=n0}"]
        assert len(db) == 2
        assert "cum{node=n0}" in db


class TestExportDeterminism:
    def _build(self):
        db = TimeSeriesDB(interval=0.5, capacity=8)
        for t in range(40):
            for node in ("b", "a"):
                db.observe("m", (("node", node),), t * 0.5,
                           float(t))
        return db

    def test_same_feed_same_bytes(self):
        assert self._build().export_json() \
            == self._build().export_json()

    def test_export_is_valid_canonical_json(self):
        text = self._build().export_json()
        doc = json.loads(text)
        assert json.dumps(doc, sort_keys=True,
                          separators=(",", ":")) == text
        assert sorted(doc["series"]) == list(doc["series"])
