"""What a simulated node allocates when it is built, and what waits for
its first use: sample columns, per-link records, the whole node."""

from __future__ import annotations

import gc

import pytest

from repro.api import Scenario
from repro.runtime.series import CounterTrace
from repro.sim.link import Flow, FlowKind, Link

#: GC-tracked objects per node that a 200-node fan-in deployment (8
#: watchers, ``cpu`` + ``mem``) holds once built.  It measures 86.1;
#: it measured 118.1 while every telemetry instrument was built with
#: its owner, and 132.1 while each of a node's 7 traces also built its
#: two sample columns at construction.
TRACKED_PER_NODE = 90


def _containers(obj) -> list:
    """The GC-tracked objects ``obj`` refers to directly, its class
    aside."""
    return [ref for ref in gc.get_referents(obj)
            if gc.is_tracked(ref) and ref is not type(obj)]


class TestUnwrittenTrace:
    def test_holds_no_sample_storage_until_the_first_add(self):
        trace = CounterTrace(8)
        assert _containers(trace) == []
        with pytest.raises(ValueError, match="only increase"):
            trace.add(1.0, -1.0)
        assert _containers(trace) == []
        trace.add(1.0, 2.0)
        assert len(_containers(trace)) == 2
        assert list(trace) == [(1.0, 2.0)]

    def test_queries_answer_as_on_an_empty_trace(self):
        trace = CounterTrace(8)
        assert trace.total == 0.0
        assert trace.rate(10.0, 5.0) == 0.0
        assert trace.count_between(0.0, 10.0) == 0.0
        assert list(trace) == []
        with pytest.raises(ValueError, match="no samples"):
            trace.mean()
        with pytest.raises(ValueError, match="no samples"):
            trace.mean(since=3.0)

    def test_a_window_past_a_trimmed_trace_is_still_refused(self):
        trace = CounterTrace(2)
        for t in range(4):
            trace.add(float(t))
        assert trace.dropped_samples == 2
        with pytest.raises(ValueError, match="past the retained"):
            trace.rate(3.0, 3.0)
        with pytest.raises(ValueError, match="past the retained"):
            trace.mean(since=0.0)
        assert trace.count_between(1.0, 3.0) == 2.0
        assert trace.total == 4.0


def test_per_link_records_have_no_instance_dict():
    """One per publisher x watcher, one per watcher x host x metric and
    one per copy in flight: each holds its fields in slots."""
    sc = Scenario(nodes=3, seed=1, modules=("cpu", "mem")).run(3.0)
    connection = next(conn for node in sc.nodes
                      for conn in node.stack.connections)
    remote = next(metric for dproc in sc.dprocs.values()
                  for metrics in dproc.dmon.remote.values()
                  for metric in metrics.values())
    flow = Flow(path=(Link("l", 1e6),), kind=FlowKind.FIXED, demand=1.0)
    for record in (connection, remote, flow):
        assert not hasattr(record, "__dict__"), type(record).__name__


def test_a_built_fan_in_node_holds_a_bounded_number_of_objects():
    nodes = 200
    # One small build first, so one-time caches are not counted.
    Scenario(nodes=2, seed=1, modules=("cpu", "mem")).build()
    scenario = Scenario(nodes=nodes, seed=1, modules=("cpu", "mem"),
                        watchers=8)
    gc.collect()
    before = len(gc.get_objects())
    scenario.build()
    gc.collect()
    per_node = (len(gc.get_objects()) - before) / nodes
    assert per_node <= TRACKED_PER_NODE


def test_a_fault_free_fan_in_builds_only_the_instruments_it_writes():
    """30 s of a fault-free 200-node fan-in: a host that watches no one
    sends no control message, retransmits and drops nothing and hears
    no monitoring event, so it has built none of those instruments,
    while every reader still lists them."""
    scenario = Scenario(nodes=200, seed=1, modules=("cpu", "mem"),
                        watchers=8).run(30.0)
    unwritten = {
        *(f"kecho.dproc.control.{suffix}" for suffix in
          ("submits", "submit_seconds", "fanout", "tx_bytes")),
        *(f"kecho.dproc.monitor.{suffix}" for suffix in
          ("receives", "rx_bytes", "delivery_seconds")),
        "net.retransmissions", "net.drops_fault", "net.drops_congestion"}
    quiet = [dproc.node for dproc in scenario.dprocs.values()
             if not dproc.dmon.config.subscribe_monitoring]
    assert len(quiet) == 192
    for node in quiet:
        registry = node.telemetry
        assert not unwritten & set(registry._instruments), node.name
        assert unwritten <= set(registry.names())
