"""Chrome trace-event JSON schema and text span-tree rendering."""

from __future__ import annotations

import json

from repro.tracing import TraceCollector, render_tree, to_chrome_trace

from tests.tracing.test_analysis import build_pipeline_trace


def small_collector() -> TraceCollector:
    collector = TraceCollector(seed=3, sample_rate=1.0)
    build_pipeline_trace(collector, "t0", base=0.0, net=0.004)
    build_pipeline_trace(collector, "t1", base=1.0, net=0.002)
    return collector


class TestChromeTrace:
    def test_schema(self):
        doc = to_chrome_trace(small_collector())
        # Round-trips through JSON (Perfetto ingests the text form).
        doc = json.loads(json.dumps(doc))
        assert set(doc) == {"traceEvents", "displayTimeUnit",
                            "otherData"}
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["source"] == "repro.tracing"
        assert doc["otherData"]["n_traces"] == 2
        assert doc["otherData"]["seed"] == 3
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"M", "X"}
        for event in doc["traceEvents"]:
            if event["ph"] != "X":
                continue
            assert {"name", "cat", "ts", "dur", "pid",
                    "tid", "args"} <= set(event)
            assert event["dur"] >= 0
            args = event["args"]
            assert {"trace_id", "span_id", "parent_id",
                    "status"} <= set(args)

    def test_pid_per_node_tid_per_trace(self):
        doc = to_chrome_trace(small_collector())
        procs = {e["args"]["name"]: e["pid"]
                 for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"}
        # Nodes sorted by name get 1-based pids.
        assert procs == {"a": 1, "b": 2}
        threads = {e["args"]["name"]: e["tid"]
                   for e in doc["traceEvents"]
                   if e["ph"] == "M" and e["name"] == "thread_name"}
        assert threads["t0"] == 1
        assert threads["t1"] == 2

    def test_timestamps_in_microseconds(self):
        doc = to_chrome_trace(small_collector())
        deliver = next(e for e in doc["traceEvents"]
                       if e["ph"] == "X" and e["name"] == "deliver:b"
                       and e["args"]["trace_id"] == "t0")
        assert deliver["ts"] == 0.004 * 1e6
        assert deliver["cat"] == "delivery"

    def test_open_spans_skipped(self):
        collector = small_collector()
        closed = to_chrome_trace(collector)
        collector.begin_trace("open", name="poll", stage="dmon",
                              node="a", start=5.0)  # never finished
        doc = to_chrome_trace(collector)
        traced = {e["args"]["trace_id"] for e in doc["traceEvents"]
                  if e["ph"] == "X"}
        assert "open" not in traced
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert slices == [e for e in closed["traceEvents"]
                          if e["ph"] == "X"]


class TestRenderTree:
    def test_shape(self):
        collector = small_collector()
        text = render_tree(collector.tree("t0"))
        lines = text.splitlines()
        assert lines[0].startswith("trace t0")
        assert "7 spans" in lines[0]
        assert any("- poll:a [dmon] @a" in line for line in lines)
        assert any("deliver:b [delivery] @b" in line for line in lines)
        # The delivery span is nested under the transport hop.
        hop_depth = next(line for line in lines
                         if "hop:a->b" in line).index("-")
        deliver_depth = next(line for line in lines
                             if "deliver:b" in line).index("-")
        assert deliver_depth > hop_depth

    def test_status_and_drop_markers(self):
        collector = TraceCollector(max_spans_per_trace=2)
        root = collector.begin_trace("t", name="poll", stage="dmon",
                                     node="a", start=0.0)
        hop = collector.start_span(root.context, name="hop",
                                   stage="transport", node="a",
                                   start=0.0)
        hop.finish(0.001, status="dropped", fault="partition")
        collector.record_span(root.context, name="over-cap",
                              stage="module", node="a", start=0.0,
                              end=0.0)
        root.finish(0.0)
        text = render_tree(collector.tree("t"))
        assert "1 dropped" in text.splitlines()[0]
        assert "!dropped" in text
        assert "fault=partition" in text
