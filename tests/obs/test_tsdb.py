"""The ring-buffer TSDB: one ring per series, queries, determinism."""

from __future__ import annotations

import json
import math

import pytest

from repro.obs import (SERIES_CAPACITY, ObsError, Series,
                       TimeSeriesDB, series_key)


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

    def test_full_ring_drops_oldest_and_counts(self):
        s = Series("m", interval=1.0, capacity=4)
        for t in range(6):
            s.observe(float(t), float(t))
        assert [t for t, _ in s.samples()] == [2.0, 3.0, 4.0, 5.0]
        assert s.dropped == 2

    def test_memory_is_bounded_regardless_of_run_length(self):
        s = Series("m", interval=1.0, capacity=8)
        for t in range(5000):
            s.observe(float(t), float(t))
        assert len(s.buckets) == 8
        assert s.dropped == 5000 - 8

    def test_default_capacity_is_the_module_constant(self):
        s = Series("m", interval=1.0)
        for t in range(SERIES_CAPACITY + 5):
            s.observe(float(t), 1.0)
        assert len(s.samples()) == SERIES_CAPACITY
        assert s.dropped == 5

    def test_samples_ordered_oldest_first(self):
        s = Series("m", interval=1.0, capacity=4)
        for t in range(12):
            s.observe(float(t), float(t))
        times = [t for t, _ in s.samples()]
        assert times == sorted(times)

    def test_latest_survives_dropping(self):
        s = Series("m", interval=1.0, capacity=2)
        for t in range(30):
            s.observe(float(t), float(t) * 10)
        assert s.latest == 290.0

    def test_bad_geometry_rejected(self):
        with pytest.raises(ObsError):
            Series("m", interval=0.0)
        with pytest.raises(ObsError):
            Series("m", capacity=0)


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

    @pytest.mark.parametrize("query", [
        lambda db, w: db.rate("m", (), window=w, now=299.0),
        lambda db, w: db.avg_over_time("m", (), window=w, now=299.0),
        lambda db, w: db.min_over_time("m", (), window=w, now=299.0),
        lambda db, w: db.max_over_time("m", (), window=w, now=299.0),
        lambda db, w: db.quantile_over_time(0.5, "m", (), window=w,
                                            now=299.0),
    ], ids=["rate", "avg", "min", "max", "quantile"])
    def test_window_past_a_full_ring_is_refused(self, query):
        """Once the ring has dropped buckets, a window that reaches one
        raises instead of answering from the buckets left."""
        db = TimeSeriesDB(interval=1.0)
        for t in range(300):
            db.observe("m", (), float(t), float(t), kind="counter")
        # The ring holds t = 60..299; t = 59 was the last dropped.
        assert not math.isnan(query(db, SERIES_CAPACITY - 1.0))
        with pytest.raises(ObsError, match="dropped bucket"):
            query(db, float(SERIES_CAPACITY))

    def test_a_ring_that_never_dropped_answers_any_window(self, db):
        assert db.avg_over_time("gauge", (("node", "n0"),),
                                window=1e6, now=9.0) == pytest.approx(4.5)

    def test_keys_filter_and_sorted(self, db):
        assert db.keys() == ["cum{node=n0}", "gauge{node=n0}"]
        assert db.keys("gauge") == ["gauge{node=n0}"]
        assert len(db) == 2
        assert "cum{node=n0}" in db


class TestExportDeterminism:
    def _build(self):
        db = TimeSeriesDB(interval=0.5)
        for t in range(SERIES_CAPACITY + 40):
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

    def test_a_run_longer_than_the_ring_exports_its_last_samples(self):
        doc = json.loads(self._build().export_json())
        assert set(doc) == {"interval", "series"}
        series = doc["series"]["m{node=a}"]
        assert series["dropped"] == 40
        assert len(series["samples"]) == SERIES_CAPACITY
        assert series["samples"][0][0] == 40 * 0.5
