"""Unit tests for telemetry rendering and the overhead summary."""

from __future__ import annotations

import json

import pytest

from repro.telemetry import (MONITOR_CPU_COUNTERS, TelemetryRegistry,
                             overhead_summary, render_text)


def make_registry(scope: str = "n0") -> TelemetryRegistry:
    reg = TelemetryRegistry(scope=scope)
    reg.counter("dmon.polls").inc(10.0)
    reg.counter("dmon.collect_seconds").inc(0.25)
    reg.counter("dmon.submit_seconds").inc(0.05)
    reg.gauge("net.in_flight").adjust(2)
    reg.histogram("kecho.health.delivery_seconds", bounds=(0.01, 0.1)) \
        .observe(0.02)
    return reg


class TestRenderText:
    def test_one_line_per_instrument(self):
        text = render_text(make_registry())
        lines = text.strip().splitlines()
        assert len(lines) == 5
        assert text.endswith("\n")

    def test_counter_and_gauge_lines(self):
        text = render_text(make_registry())
        assert "dmon.polls: 10\n" in text
        assert "net.in_flight: 2 (high 2)\n" in text

    def test_histogram_line(self):
        text = render_text(make_registry())
        assert ("kecho.health.delivery_seconds: count=1 mean=0.02 "
                in text)

    def test_prefix_slices(self):
        text = render_text(make_registry(), prefix="dmon.")
        assert "dmon.polls" in text
        assert "net.in_flight" not in text

    def test_empty_registry_renders_empty(self):
        assert render_text(TelemetryRegistry()) == ""

    def test_rendering_does_not_mutate(self):
        reg = make_registry()
        before = reg.snapshot()
        render_text(reg)
        assert reg.snapshot() == before


class TestOverheadSummary:
    def make_cluster(self):
        regs = {}
        for i, cost in enumerate((0.1, 0.3)):
            reg = TelemetryRegistry(scope=f"n{i}")
            reg.counter("dmon.polls").inc(5.0)
            reg.counter("dmon.collect_seconds").inc(cost)
            reg.counter("dmon.events_published").inc(2.0)
            reg.counter("net.drops_fault").inc(1.0)
            regs[f"n{i}"] = reg
        return regs

    def test_totals_and_means(self):
        summary = overhead_summary(self.make_cluster(), sim_seconds=10.0)
        assert summary["n_nodes"] == 2
        assert summary["polls"] == 10.0
        assert summary["events_published"] == 4.0
        cpu = summary["monitor_cpu_seconds"]
        assert cpu["total"] == pytest.approx(0.4)
        assert cpu["per_node_mean"] == pytest.approx(0.2)
        assert cpu["busiest_node"] == "n1"
        assert cpu["busiest_node_seconds"] == pytest.approx(0.3)
        assert cpu["components"]["collect_seconds"] == pytest.approx(0.4)

    def test_cpu_fraction_normalises_by_node_count(self):
        summary = overhead_summary(self.make_cluster(), sim_seconds=10.0)
        # 0.4 CPU-seconds over 2 nodes * 10 s of node time each.
        assert summary["cpu_fraction_of_node_time"] \
            == pytest.approx(0.4 / 20.0)

    def test_network_section(self):
        summary = overhead_summary(self.make_cluster(), sim_seconds=1.0)
        assert summary["network"] == {
            "drops_fault": 2.0, "drops_congestion": 0.0,
            "retransmissions": 0.0}

    def test_empty_cluster(self):
        summary = overhead_summary({}, sim_seconds=1.0)
        assert summary["n_nodes"] == 0
        assert summary["monitor_cpu_seconds"]["total"] == 0.0
        assert summary["monitor_cpu_seconds"]["busiest_node"] is None
        assert summary["cpu_fraction_of_node_time"] == 0.0

    def test_rejects_nonpositive_span(self):
        with pytest.raises(ValueError):
            overhead_summary({}, sim_seconds=0.0)

    def test_serialisable(self):
        json.dumps(overhead_summary(self.make_cluster(),
                                    sim_seconds=5.0))

    def test_component_names_cover_the_monitor_counters(self):
        summary = overhead_summary(self.make_cluster(), sim_seconds=1.0)
        components = summary["monitor_cpu_seconds"]["components"]
        assert set(components) \
            == {name.split(".", 1)[1] for name in MONITOR_CPU_COUNTERS}

    def test_summary_is_a_pure_read(self):
        regs = self.make_cluster()
        before = {name: reg.snapshot() for name, reg in regs.items()}
        overhead_summary(regs, sim_seconds=10.0)
        after = {name: reg.snapshot() for name, reg in regs.items()}
        assert after == before

    def test_summary_is_stable_across_calls(self):
        regs = self.make_cluster()
        first = overhead_summary(regs, sim_seconds=10.0)
        second = overhead_summary(regs, sim_seconds=10.0)
        assert first == second


class TestZeroOverheadSummary:
    """No hosts (or hosts that shipped nothing) summarise to zeros."""

    def test_shape_matches_real_summary(self):
        zero = overhead_summary({}, sim_seconds=1.0)
        real = overhead_summary(
            {"n0": TelemetryRegistry(scope="n0")}, sim_seconds=1.0)
        assert set(zero) == set(real)
        assert set(zero["network"]) == set(real["network"])
        assert set(zero["monitor_cpu_seconds"]) \
            == set(real["monitor_cpu_seconds"])
        assert set(zero["monitor_cpu_seconds"]["components"]) \
            == set(real["monitor_cpu_seconds"]["components"])

    def test_all_zero_and_serialisable(self):
        zero = overhead_summary({}, sim_seconds=1.0)
        assert zero["n_nodes"] == 0
        assert zero["polls"] == 0.0
        assert zero["monitor_cpu_seconds"]["total"] == 0.0
        assert zero["monitor_cpu_seconds"]["busiest_node"] is None
        assert zero["cpu_fraction_of_node_time"] == 0.0
        json.dumps(zero)

    def test_sim_seconds_passthrough(self):
        assert overhead_summary({}, sim_seconds=5.0)["sim_seconds"] \
            == 5.0

    def test_empty_merge_returns_zero_summary(self):
        # A worker that shipped nothing folds to a host of zeros.
        silent = {"n0": TelemetryRegistry.from_counters("n0", {})}
        summary = overhead_summary(silent, sim_seconds=1.0)
        assert summary["n_nodes"] == 1
        zero = overhead_summary({}, sim_seconds=1.0)
        for key in ("polls", "events_published", "network"):
            assert summary[key] == zero[key]
        assert summary["monitor_cpu_seconds"]["total"] == 0.0

    def test_merging_zero_with_real_is_identity(self):
        reg = TelemetryRegistry(scope="n0")
        reg.counter("dmon.polls").inc(3.0)
        reg.counter("dmon.collect_seconds").inc(0.2)
        reg.gauge("queue.depth").set(4.0)   # gauges stay home
        real = overhead_summary({"n0": reg}, sim_seconds=2.0)
        shipped = TelemetryRegistry.from_counters("n0", reg.counters())
        assert shipped.counters() == reg.counters()
        assert "queue.depth" not in shipped
        merged = overhead_summary(
            {"n0": shipped,
             "n1": TelemetryRegistry.from_counters("n1", {})},
            sim_seconds=2.0)
        assert merged["polls"] == real["polls"]
        assert merged["n_nodes"] == real["n_nodes"] + 1
        assert merged["monitor_cpu_seconds"]["total"] \
            == pytest.approx(real["monitor_cpu_seconds"]["total"])
        assert merged["monitor_cpu_seconds"]["busiest_node"] == "n0"


class TestDegenerateHistograms:
    """Renderers must cope with empty and NaN-only histograms."""

    def test_empty_histogram_text(self):
        reg = TelemetryRegistry(scope="n0")
        reg.histogram("h.empty", bounds=(0.01, 0.1))
        text = render_text(reg)
        assert "h.empty: count=0" in text
        assert "inf" not in text  # quantiles of nothing are NaN, not inf

    def test_nan_only_histogram_text(self):
        reg = TelemetryRegistry(scope="n0")
        hist = reg.histogram("h.nan", bounds=(0.01, 0.1))
        hist.observe(float("nan"))
        text = render_text(reg)
        # Must render a line without raising; one line per instrument.
        assert text.count("\n") == 1
        assert text.startswith("h.nan:")

    def test_empty_histogram_json_serialisable(self):
        reg = TelemetryRegistry(scope="n0")
        reg.histogram("h.empty", bounds=(0.01, 0.1))
        json.dumps(reg.snapshot(), allow_nan=True)

    def test_render_does_not_mutate_empty_histogram(self):
        reg = TelemetryRegistry(scope="n0")
        reg.histogram("h.empty", bounds=(0.01, 0.1))
        before = reg.snapshot()
        render_text(reg)
        assert reg.snapshot() == before
