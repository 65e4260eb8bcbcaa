"""Unit tests for the telemetry instrument primitives."""

from __future__ import annotations

import math

import pytest

from repro.telemetry import (DEFAULT_LATENCY_BOUNDS, Counter, Gauge,
                             Histogram)


class TestCounter:
    def test_starts_at_zero(self):
        c = Counter("c")
        assert c.value == 0.0
        assert c.updates == 0
        assert math.isnan(c.mean)

    def test_inc_accumulates(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)
        assert c.updates == 2
        assert c.mean == pytest.approx(1.75)

    def test_never_decreases(self):
        c = Counter("c")
        with pytest.raises(ValueError, match="only increase"):
            c.inc(-1.0)
        assert c.value == 0.0

    def test_zero_increment_counts_as_update(self):
        """inc(0) still bumps `updates` — a poll that cost nothing
        happened, and per-poll means must reflect it."""
        c = Counter("c")
        c.inc(0.0)
        assert c.updates == 1
        assert c.mean == 0.0

    def test_snapshot(self):
        c = Counter("c")
        c.inc(4.0)
        assert c.snapshot() == {"type": "counter", "value": 4.0,
                                "updates": 1}


class TestGauge:
    def test_tracks_extremes(self):
        g = Gauge("g")
        g.set(5.0)
        g.adjust(-3.0)
        g.adjust(10.0)
        assert g.value == pytest.approx(12.0)
        assert g.high == pytest.approx(12.0)
        assert g.low == pytest.approx(2.0)

    def test_untouched_snapshot_has_no_extremes(self):
        snap = Gauge("g").snapshot()
        assert snap["high"] is None and snap["low"] is None
        assert snap["updates"] == 0

    def test_queue_depth_pattern(self):
        g = Gauge("g")
        for _ in range(3):
            g.adjust(1)
        for _ in range(3):
            g.adjust(-1)
        assert g.value == 0.0
        assert g.high == 3.0  # high-water mark survives the drain


class TestHistogram:
    def test_default_bounds_are_latency_shaped(self):
        h = Histogram("h")
        assert h.bounds == DEFAULT_LATENCY_BOUNDS
        assert len(h.counts) == len(h.bounds) + 1  # overflow bucket

    def test_binning_and_overflow(self):
        h = Histogram("h", bounds=(1.0, 2.0))
        for v in (0.5, 1.0, 1.5, 99.0):
            h.observe(v)
        # bisect_right: 1.0 falls in the second bucket (bounds are
        # exclusive upper edges for equality).
        assert h.counts == [1, 2, 1]
        assert h.count == 4
        assert h.mean == pytest.approx((0.5 + 1.0 + 1.5 + 99.0) / 4)
        assert (h.min, h.max) == (0.5, 99.0)

    def test_nan_counted_not_binned(self):
        h = Histogram("h", bounds=(1.0,))
        h.observe(float("nan"))
        h.observe(0.5)
        assert h.nan_count == 1
        assert h.count == 1
        assert h.total == pytest.approx(0.5)

    def test_quantiles(self):
        h = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 0.6, 0.7, 3.0):
            h.observe(v)
        assert h.quantile(0.5) == 1.0
        assert h.quantile(1.0) == 4.0
        assert math.isnan(Histogram("e").quantile(0.5))
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_bounds_validation(self):
        with pytest.raises(ValueError, match="strictly increase"):
            Histogram("h", bounds=(1.0, 1.0))
        with pytest.raises(ValueError, match="strictly increase"):
            Histogram("h", bounds=(2.0, 1.0))
        with pytest.raises(ValueError, match="at least one"):
            Histogram("h", bounds=())

    def test_empty_snapshot(self):
        snap = Histogram("h", bounds=(1.0,)).snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None
        assert math.isnan(snap["mean"])
