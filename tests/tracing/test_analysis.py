"""Critical-path math, latency breakdown, and audit resolution on
hand-built traces with known answers."""

from __future__ import annotations

import math

import pytest

from repro.tracing import (TraceCollector, adaptation_audit,
                           critical_path, latency_breakdown,
                           render_audit, render_breakdown)
from repro.runtime.series import nearest_rank
from repro.tracing.analysis import _resolve_trigger


def build_pipeline_trace(collector: TraceCollector, trace_id: str,
                         base: float, net: float = 0.004) -> None:
    """One module -> dmon -> kecho -> transport -> delivery -> update
    chain with all the latency (``net``) in the transport hop."""
    root = collector.begin_trace(trace_id, name="poll:a", stage="dmon",
                                 node="a", start=base)
    collector.record_span(root.context, name="module:cpu",
                          stage="module", node="a", start=base,
                          end=base, samples=2)
    collector.record_span(root.context, name="param:loadavg",
                          stage="dmon.param", node="a", start=base,
                          end=base, metric="loadavg", value=1.4,
                          decision="send", rule="period 1; change 5")
    submit = collector.start_span(root.context, name="submit:metrics",
                                  stage="kecho", node="a", start=base)
    hop = collector.start_span(submit.context, name="hop:a->b",
                               stage="transport", node="a", start=base)
    submit.finish(base)
    deliver = collector.record_span(hop.context, name="deliver:b",
                                    stage="delivery", node="b",
                                    start=base + net, end=base + net)
    hop.finish(base + net)
    collector.record_span(deliver.context, name="update:b",
                          stage="update", node="b", start=base + net,
                          end=base + net, records=1)
    root.finish(base)


class TestCriticalPath:
    def test_hand_built_chain(self):
        collector = TraceCollector()
        build_pipeline_trace(collector, "t", base=10.0, net=0.004)
        segments = critical_path(collector.tree("t"))
        stages = [span.stage for span, _ in segments]
        assert stages == ["dmon", "kecho", "transport", "delivery",
                          "update"]
        shares = {span.stage: share for span, share in segments}
        # All the latency sits in the hop: the gap between the hop
        # starting and the delivery span starting.
        assert shares["transport"] == pytest.approx(0.004)
        assert sum(s for _, s in segments) == pytest.approx(0.004)

    def test_shares_sum_to_end_to_end(self):
        collector = TraceCollector()
        build_pipeline_trace(collector, "t", base=3.0, net=0.123)
        tree = collector.tree("t")
        segments = critical_path(tree)
        terminal = segments[-1][0]
        chain_root = segments[0][0]
        total = sum(share for _, share in segments)
        assert math.isclose(total, terminal.end - chain_root.start)

    def test_empty_and_open_traces(self):
        collector = TraceCollector()
        collector.begin_trace("t", name="poll", stage="dmon", node="a",
                              start=0.0)  # never finished
        assert critical_path(collector.tree("t")) == []


class TestPercentiles:
    def test_nearest_rank(self):
        assert nearest_rank([1.0, 2.0, 3.0, 4.0], 0.50) == 2.0
        values = [float(i) for i in range(1, 101)]
        assert nearest_rank(values, 0.95) == 95.0
        assert nearest_rank(values, 0.99) == 99.0
        assert nearest_rank(values, 0.0) == 1.0
        assert nearest_rank([7.0], 0.99) == 7.0
        assert math.isnan(nearest_rank([], 0.5))

    def test_nearest_rank_over_a_ramp(self):
        values = [float(i) for i in range(101)]
        assert nearest_rank(values, 0.50) == pytest.approx(50.0)
        assert nearest_rank(values, 0.90) == pytest.approx(90.0)


class TestLatencyBreakdown:
    def test_aggregation_and_skips(self):
        collector = TraceCollector()
        for i, net in enumerate((0.002, 0.004, 0.010)):
            build_pipeline_trace(collector, f"t{i}", base=float(i),
                                 net=net)
        # A trace that never reached a consumer is skipped.
        stub = collector.begin_trace("stub", name="poll", stage="dmon",
                                     node="a", start=9.0)
        stub.finish(9.0)
        report = latency_breakdown(collector)
        assert report["n_traces"] == 3
        assert report["n_traces_skipped"] == 1
        assert report["end_to_end"]["count"] == 3
        assert report["end_to_end"]["p50"] == pytest.approx(0.004)
        assert report["end_to_end"]["max"] == pytest.approx(0.010)
        # Stage keys come out in pipeline order.
        assert list(report["stages"]) == ["dmon", "kecho", "transport",
                                          "delivery", "update"]
        assert report["stages"]["transport"]["p50"] == \
            pytest.approx(0.004)

    def test_render_smoke(self):
        collector = TraceCollector()
        build_pipeline_trace(collector, "t", base=0.0)
        text = render_breakdown(latency_breakdown(collector))
        assert "transport" in text
        assert "end-to-end" in text
        assert "p99" in text


class TestAuditResolution:
    def audit_collector(self):
        collector = TraceCollector()
        build_pipeline_trace(collector, "b:poll:5", base=5.0,
                             net=0.004)
        collector.record_adaptation(
            time=5.5, node="server", client="b",
            policy="dynamic(cpu)", previous="downsample=1",
            chosen="downsample=2",
            observations={"loadavg": 1.4},
            triggers=({"metric": "loadavg", "observation": "loadavg",
                       "value": 1.4, "trace_id": "b:poll:5",
                       "received_at": 5.004},))
        return collector

    def test_param_rule_resolved(self):
        collector = self.audit_collector()
        audit = adaptation_audit(collector)
        assert len(audit) == 1
        trigger = audit[0]["triggers"][0]
        assert trigger["rule"] == "period 1; change 5"
        assert trigger["filter_id"] is None
        assert math.isclose(trigger["monitor_latency"], 0.004)

    def test_filter_evaluation_resolved(self):
        collector = TraceCollector()
        root = collector.begin_trace("t", name="poll", stage="dmon",
                                     node="a", start=0.0)
        collector.record_span(root.context, name="filter:f1",
                              stage="dmon.filter", node="a", start=0.0,
                              end=0.0, filter_id="f1", scope="*",
                              kept=("cpu", "loadavg"))
        root.finish(0.0)
        resolved = _resolve_trigger(collector, {
            "metric": "loadavg", "value": 1.0, "trace_id": "t",
            "received_at": 0.1})
        assert resolved["filter_id"] == "f1"
        assert resolved["rule"] is None
        assert math.isclose(resolved["monitor_latency"], 0.1)

    def test_untraced_and_evicted_triggers_degrade(self):
        collector = self.audit_collector()
        untraced = _resolve_trigger(collector, {
            "metric": "loadavg", "value": 1.0, "trace_id": None,
            "received_at": None})
        assert untraced["rule"] is None
        assert untraced["monitor_latency"] is None
        evicted = _resolve_trigger(collector, {
            "metric": "loadavg", "value": 1.0, "trace_id": "gone",
            "received_at": 1.0})
        assert evicted["rule"] is None
        assert evicted["monitor_latency"] is None

    def test_render_audit(self):
        text = render_audit(adaptation_audit(self.audit_collector()))
        assert "dynamic(cpu)" in text
        assert "downsample=1 -> downsample=2" in text
        assert "rule 'period 1; change 5'" in text
        assert "trace b:poll:5" in text
        assert "monitor latency" in text
        assert render_audit([]).startswith("adaptation audit: no")
