"""Unit tests for the per-node telemetry registry."""

from __future__ import annotations

import pytest

from repro.errors import TelemetryError
from repro.telemetry import (Counter, Gauge, Histogram,
                             TelemetryRegistry)


class TestGetOrCreate:
    def test_same_name_same_instrument(self):
        reg = TelemetryRegistry(scope="n0")
        assert reg.counter("a.b") is reg.counter("a.b")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_kind_mismatch_rejected(self):
        reg = TelemetryRegistry()
        reg.counter("x")
        with pytest.raises(TelemetryError, match="not a Gauge"):
            reg.gauge("x")
        with pytest.raises(TelemetryError, match="not a Histogram"):
            reg.histogram("x")
        reg.histogram("h")
        with pytest.raises(TelemetryError, match="not a Counter"):
            reg.counter("h")

    def test_mismatch_error_names_the_scope(self):
        reg = TelemetryRegistry(scope="node7")
        reg.counter("x")
        with pytest.raises(TelemetryError, match="node7:x"):
            reg.gauge("x")

    def test_histogram_bounds_apply_on_first_creation_only(self):
        reg = TelemetryRegistry()
        h = reg.histogram("h", bounds=(1.0, 2.0))
        assert reg.histogram("h", bounds=(9.0,)) is h
        assert h.bounds == (1.0, 2.0)


class TestQueries:
    def test_value_and_get(self):
        reg = TelemetryRegistry()
        reg.counter("c").inc(3.0)
        reg.gauge("g").set(7.0)
        assert reg.value("c") == 3.0
        assert reg.value("g") == 7.0
        assert reg.value("missing") == 0.0
        assert reg.value("missing", default=-1.0) == -1.0
        assert reg.get("missing") is None

    def test_value_of_non_scalar_is_default(self):
        reg = TelemetryRegistry()
        reg.histogram("h").observe(1.0)
        assert reg.value("h", default=-1.0) == -1.0

    def test_names_sorted_and_filtered(self):
        reg = TelemetryRegistry()
        for name in ("b.two", "a.one", "b.one"):
            reg.counter(name)
        assert reg.names() == ["a.one", "b.one", "b.two"]
        assert reg.names("b.") == ["b.one", "b.two"]

    def test_empty_registry_is_truthy(self):
        """Regression: `telemetry or fallback` must never silently
        replace a real-but-still-empty registry."""
        assert TelemetryRegistry()

    def test_len_and_contains(self):
        reg = TelemetryRegistry()
        reg.counter("c")
        assert len(reg) == 1
        assert "c" in reg and "d" not in reg

    def test_snapshot_is_plain_data(self):
        import json

        reg = TelemetryRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(1.0)
        reg.histogram("h").observe(0.5)
        snap = reg.snapshot()
        json.dumps(snap)  # must be JSON-serialisable as-is
        assert set(snap) == {"c", "g", "h"}
        assert snap["c"]["type"] == "counter"


class TestInstrumentKinds:
    def test_factories_return_expected_types(self):
        reg = TelemetryRegistry()
        assert isinstance(reg.counter("c"), Counter)
        assert isinstance(reg.gauge("g"), Gauge)
        assert isinstance(reg.histogram("h"), Histogram)
