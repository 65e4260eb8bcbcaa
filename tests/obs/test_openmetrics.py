"""OpenMetrics rendering and the strict validating mini-parser."""

from __future__ import annotations

import pytest

from repro.obs import (ObsError, parse_openmetrics,
                       render_openmetrics)
from repro.obs.openmetrics import CONTENT_TYPE, metric_name
from repro.telemetry import TelemetryRegistry


def make_registry(scope: str = "n0") -> TelemetryRegistry:
    reg = TelemetryRegistry(scope=scope)
    reg.counter("dmon.polls").inc(4.0)
    reg.gauge("net.in_flight").adjust(3)
    hist = reg.histogram("kecho.monitor.delivery_seconds",
                         bounds=(0.01, 0.1))
    hist.observe(0.02)
    hist.observe(0.2)
    return reg


class TestMetricName:
    def test_dots_and_dashes_flatten(self):
        assert metric_name("dmon.collect_seconds") \
            == "repro_dmon_collect_seconds"
        assert metric_name("a-b.c", prefix="x") == "x_a_b_c"
        assert metric_name("plain", prefix="") == "plain"


class TestRender:
    def test_counter_gauge_histogram_forms(self):
        text = render_openmetrics({"n0": make_registry()})
        assert "# TYPE repro_dmon_polls counter" in text
        assert 'repro_dmon_polls_total{node="n0"} 4' in text
        assert 'repro_net_in_flight{node="n0"} 3' in text
        assert ('repro_kecho_monitor_delivery_seconds_bucket'
                '{le="+Inf",node="n0"} 2') in text
        assert ('repro_kecho_monitor_delivery_seconds_count'
                '{node="n0"} 2') in text
        assert text.endswith("# EOF\n")

    def test_multi_node_sorted_and_stable(self):
        regs = {"b": make_registry("b"), "a": make_registry("a")}
        text = render_openmetrics(regs)
        assert text.index('node="a"') < text.index('node="b"')
        assert text == render_openmetrics(dict(reversed(
            list(regs.items()))))

    def test_health_gauges_appended(self):
        health = {"healthy": False,
                  "rules": [{"rule": "r1", "subject": "cluster",
                             "status": "degraded",
                             "degraded_subjects": ["n0"]}]}
        text = render_openmetrics({}, health=health)
        assert 'repro_health_ok{rule="r1",subject="cluster"} 0' \
            in text
        assert "repro_healthy 0" in text

    def test_healthy_cluster_renders_one(self):
        text = render_openmetrics({}, health={"healthy": True,
                                              "rules": []})
        assert "repro_healthy 1" in text

    def test_content_type_is_openmetrics(self):
        assert "openmetrics-text" in CONTENT_TYPE


class TestRoundTrip:
    def test_render_parses_clean(self):
        regs = {"n0": make_registry("n0"),
                "n1": make_registry("n1")}
        health = {"healthy": True, "rules": []}
        families = parse_openmetrics(
            render_openmetrics(regs, health=health))
        assert families["repro_dmon_polls"]["type"] == "counter"
        samples = families["repro_dmon_polls"]["samples"]
        assert {s.labels["node"] for s in samples} == {"n0", "n1"}
        assert all(s.value == 4.0 for s in samples)

    def test_histogram_ladder_is_cumulative(self):
        families = parse_openmetrics(
            render_openmetrics({"n0": make_registry()}))
        fam = families["repro_kecho_monitor_delivery_seconds"]
        buckets = [s for s in fam["samples"]
                   if s.name.endswith("_bucket")]
        counts = [s.value for s in buckets]
        assert counts == sorted(counts)
        assert buckets[-1].labels["le"] == "+Inf"


class TestParserRejections:
    def test_missing_eof(self):
        with pytest.raises(ObsError, match="EOF"):
            parse_openmetrics("# TYPE m gauge\nm 1\n")

    def test_missing_trailing_newline(self):
        with pytest.raises(ObsError, match="newline"):
            parse_openmetrics("# TYPE m gauge\nm 1\n# EOF")

    def test_sample_without_type(self):
        with pytest.raises(ObsError, match="no preceding TYPE"):
            parse_openmetrics("m_total 1\n# EOF\n")

    def test_duplicate_type(self):
        with pytest.raises(ObsError, match="duplicate TYPE"):
            parse_openmetrics(
                "# TYPE m gauge\n# TYPE m gauge\n# EOF\n")

    def test_non_numeric_value(self):
        with pytest.raises(ObsError, match="non-numeric"):
            parse_openmetrics("# TYPE m gauge\nm fast\n# EOF\n")

    def test_bad_label_syntax(self):
        with pytest.raises(ObsError, match="bad label"):
            parse_openmetrics(
                '# TYPE m gauge\nm{node=unquoted} 1\n# EOF\n')

    def test_blank_line_rejected(self):
        with pytest.raises(ObsError, match="blank"):
            parse_openmetrics("# TYPE m gauge\n\nm 1\n# EOF\n")

    def test_conflicting_family_types_rejected_at_render(self):
        reg_a = TelemetryRegistry(scope="a")
        reg_a.counter("same.name")
        reg_b = TelemetryRegistry(scope="b")
        reg_b.gauge("same.name")
        with pytest.raises(ObsError, match="both"):
            render_openmetrics({"a": reg_a, "b": reg_b})
