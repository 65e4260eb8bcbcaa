"""Unit tests for the per-node telemetry registry."""

from __future__ import annotations

import pytest

from repro.errors import TelemetryError
from repro.telemetry import (Counter, Gauge, Histogram,
                             TelemetryRegistry)


#: A schema as an owner declares it: one of each kind.
SCHEMA = {"c": Counter, "g": Gauge, "h": Histogram,
          "small": (Histogram, (1.0, 2.0))}


class TestGetOrCreate:
    def test_same_name_same_instrument(self):
        reg = TelemetryRegistry(scope="n0")
        assert reg.counter("a.b") is reg.counter("a.b")
        reg.declare("x.", SCHEMA)
        first = reg.bind("x.", "c", "g", "h")
        assert all(a is b for a, b in zip(first, reg.bind(
            "x.", "c", "g", "h")))
        assert reg.counter("x.c") is first[0]

    def test_kind_mismatch_rejected(self):
        reg = TelemetryRegistry()
        reg.declare("x.", SCHEMA)
        with pytest.raises(TelemetryError, match="Gauge, not a Counter"):
            reg.counter("x.g")
        reg.bind("x.", "h")
        with pytest.raises(TelemetryError,
                           match="Histogram, not a Counter"):
            reg.counter("x.h")
        with pytest.raises(TelemetryError, match="another schema"):
            reg.declare("x.", {"c": Counter})
        assert reg.version == 2  # a refusal builds nothing

    def test_mismatch_error_names_the_scope(self):
        reg = TelemetryRegistry(scope="node7")
        reg.declare("x.", SCHEMA)
        with pytest.raises(TelemetryError, match="node7:x.g"):
            reg.counter("x.g")

    def test_histogram_bounds_apply_on_first_creation_only(self):
        """A histogram's bounds are its schema's, whoever builds it."""
        reg = TelemetryRegistry()
        reg.declare("x.", SCHEMA)
        assert reg.get("x.small").bounds == (1.0, 2.0)
        h, = reg.bind("x.", "small")
        assert h.bounds == (1.0, 2.0)
        assert reg.bind("x.", "small")[0] is h


class TestDeclared:
    """A declared instrument is built by its first write; until then
    every reader sees its zero."""

    def test_declaring_builds_nothing(self):
        reg = TelemetryRegistry()
        reg.declare("x.", SCHEMA)
        assert reg.version == 1
        assert reg.names() == ["x.c", "x.g", "x.h", "x.small"]
        assert len(reg) == 4 and "x.h" in reg and "x.d" not in reg
        assert reg.value("x.c", default=-1.0) == 0.0
        assert reg.value("x.h", default=-1.0) == -1.0
        assert reg.counters() == {"x.c": 0.0}
        assert reg.snapshot() == {
            "x.c": Counter("x.c").snapshot(),
            "x.g": Gauge("x.g").snapshot(),
            "x.h": Histogram("x.h").snapshot(),
            "x.small": Histogram("x.small", (1.0, 2.0)).snapshot()}
        assert reg.version == 1

    def test_a_zero_view_is_not_kept(self):
        reg = TelemetryRegistry()
        reg.declare("x.", SCHEMA)
        reg.get("x.c").inc(5.0)
        assert reg.value("x.c") == 0.0
        assert reg.get("x.c") is not reg.get("x.c")

    def test_binding_builds_and_moves_the_version(self):
        reg = TelemetryRegistry()
        reg.declare("x.", SCHEMA)
        counter, gauge = reg.bind("x.", "c", "g")
        assert reg.version == 3
        counter.inc(2.0)
        gauge.set(7.0)
        assert reg.get("x.c") is counter
        assert reg.value("x.c") == 2.0 and reg.value("x.g") == 7.0
        assert len(reg) == 4

    def test_a_restarted_owner_shares_its_instruments(self):
        reg = TelemetryRegistry()
        reg.declare("x.", SCHEMA)
        counter, = reg.bind("x.", "c")
        reg.declare("x.", SCHEMA)
        assert reg.bind("x.", "c")[0] is counter
        assert reg.version == 2


class TestQueries:
    def test_value_and_get(self):
        reg = TelemetryRegistry()
        reg.counter("c").inc(3.0)
        reg.declare("x.", SCHEMA)
        reg.bind("x.", "g")[0].set(7.0)
        assert reg.value("c") == 3.0
        assert reg.value("x.g") == 7.0
        assert reg.value("missing") == 0.0
        assert reg.value("missing", default=-1.0) == -1.0
        assert reg.get("missing") is None

    def test_value_of_non_scalar_is_default(self):
        reg = TelemetryRegistry()
        reg.declare("x.", SCHEMA)
        reg.bind("x.", "h")[0].observe(1.0)
        assert reg.value("x.h", default=-1.0) == -1.0

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
        reg.declare("x.", SCHEMA)
        gauge, hist = reg.bind("x.", "g", "h")
        gauge.set(1.0)
        hist.observe(0.5)
        snap = reg.snapshot()
        json.dumps(snap)  # must be JSON-serialisable as-is
        assert set(snap) == {"c", "x.c", "x.g", "x.h", "x.small"}
        assert snap["c"]["type"] == "counter"


class TestInstrumentKinds:
    def test_factories_return_expected_types(self):
        reg = TelemetryRegistry()
        assert isinstance(reg.counter("c"), Counter)
        reg.declare("x.", SCHEMA)
        assert [type(i) for i in reg.bind("x.", *SCHEMA)] \
            == [Counter, Gauge, Histogram, Histogram]
