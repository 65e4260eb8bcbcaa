"""Unit tests for the cluster-wide aggregate view."""

from __future__ import annotations

import math

import pytest

from repro.api import Scenario
from repro.dproc import MetricId
from repro.dproc.aggregate import ClusterView
from repro.units import MB
from repro.workloads import Linpack


@pytest.fixture
def view(sc3):
    for dp in sc3.dprocs.values():
        dp.dmon.modules["cpu"].configure("period", 4.0)
    sc3.run_until(5.0)
    return ClusterView(sc3.dprocs["alan"]), sc3.dprocs, sc3.nodes


def fresh_by_status(dproc) -> set[str]:
    """The hosts whose ``/proc/cluster/<host>/status`` reads fresh."""
    return {host for host in dproc.hosts()
            if dproc.read(f"/proc/cluster/{host}/status")
            .startswith("state: fresh\n")}


class TestSnapshot:
    def test_covers_all_hosts_when_fresh(self, view):
        v, _dprocs, cluster = view
        snap = v.snapshot(MetricId.FREEMEM)
        assert set(snap) == set(cluster.names)
        assert all(value > 0 for value in snap.values())

    def test_stale_entries_dropped(self, sc3, view):
        v, dprocs, _ = view
        dprocs["maui"].dmon.stop()
        sc3.run_until(20.0)
        snap = v.snapshot(MetricId.FREEMEM)
        assert "maui" not in snap
        assert "etna" in snap

    def test_stopped_host_reads_itself_dead(self):
        """A host whose d-mon stopped ages in its own view as in its
        peers': its status of itself reads dead and its own last
        sample leaves the aggregate."""
        sc = Scenario(nodes=3, seed=1).build()
        sc.run_until(5.0)
        sc.dprocs["alan"].stop()
        sc.run_until(60.0)
        own = sc.dprocs["alan"].read("/proc/cluster/alan/status")
        peer = sc.dprocs["maui"].read("/proc/cluster/alan/status")
        assert own.startswith("state: dead\n"), own
        assert peer.startswith("state: dead\n"), peer
        assert "alan" not in ClusterView(
            sc.dprocs["alan"]).snapshot(MetricId.FREEMEM)
        assert "alan" not in ClusterView(
            sc.dprocs["maui"]).snapshot(MetricId.FREEMEM)

    def test_hosts_are_those_whose_status_reads_fresh(self):
        """A metric on a slower period than the poll still counts while
        its host reads fresh, and only then."""
        sc = Scenario(nodes=4, seed=31).build()
        writer = sc.nodes.names[0]
        for host in sc.nodes.names:
            sc.dprocs[writer].write(f"/proc/cluster/{host}/control",
                                    "period loadavg 6")
        views = {host: ClusterView(dp) for host, dp in sc.dprocs.items()}
        readings = 0
        for second in range(10, 91):
            sc.run_until(float(second))
            for host, dp in sc.dprocs.items():
                snap = views[host].snapshot(MetricId.LOADAVG)
                assert set(snap) == fresh_by_status(dp), (second, host)
                readings += len(snap) - 1
        assert readings == 4 * 3 * 81


class TestAggregates:
    def test_mean_and_total(self, view):
        """A consumer's mean and total are over every fresh host."""
        v, _, cluster = view
        snap = v.snapshot(MetricId.FREEMEM)
        total = sum(snap.values())
        assert len(snap) == len(cluster)
        assert total / len(snap) > MB(100)

    def test_empty_aggregates_are_nan(self, sc3, view):
        v, dprocs, _ = view
        for dp in dprocs.values():
            dp.dmon.stop()
        sc3.run_until(30.0)
        # Even local samples linger in last_samples; use a metric that
        # was never collected.
        assert v.snapshot(MetricId.BATTERY) == {}
        host, value = v.extreme(MetricId.BATTERY)
        assert host is None and math.isnan(value)

    def test_placement_queries(self, sc3, view):
        """The least-loaded host and the one with the most free memory
        are ``extreme`` over fresh readings, and a metric no host
        reports has no extreme host."""
        v, _, cluster = view
        for _ in range(3):
            Linpack(cluster["maui"]).start()
        cluster["etna"].memory.allocate(MB(300), tag="hog")
        sc3.run_until(30.0)
        host, load = v.extreme(MetricId.LOADAVG, largest=False)
        assert host != "maui"
        assert load < v.snapshot(MetricId.LOADAVG)["maui"]
        roomy, free = v.extreme(MetricId.FREEMEM)
        assert roomy != "etna" and free > MB(300)
        assert v.extreme(MetricId.BATTERY)[0] is None

    def test_stopped_host_is_never_the_answer_once_dead(self, sc3):
        """The idle host is the least loaded until its d-mon stops;
        from the moment its status reads dead, ``extreme`` never
        names it."""
        dprocs = sc3.dprocs
        for name in ("alan", "maui"):
            for _ in range(2):
                Linpack(sc3.nodes[name]).start()
        view = ClusterView(dprocs["alan"])
        sc3.run_until(10.0)
        assert view.extreme(MetricId.LOADAVG, largest=False)[0] == "etna"
        dprocs["etna"].stop()
        dead_seen = 0
        for second in range(11, 61):
            sc3.run_until(float(second))
            status = dprocs["alan"].read("/proc/cluster/etna/status")
            if status.startswith("state: dead\n"):
                dead_seen += 1
                host, _ = view.extreme(MetricId.LOADAVG, largest=False)
                assert host != "etna", second
        assert dead_seen > 30

    def test_extreme(self, sc3, view):
        v, _, cluster = view
        cluster["maui"].memory.allocate(MB(300), tag="hog")
        sc3.run_until(10.0)
        host, value = v.extreme(MetricId.FREEMEM, largest=False)
        assert host == "maui"
        top, top_value = v.extreme(MetricId.FREEMEM, largest=True)
        assert top != "maui" and top_value > value
