"""Unit tests for the cluster-wide aggregate view."""

from __future__ import annotations

import math

import pytest

from repro.dproc import MetricId, deploy_dproc
from repro.dproc.aggregate import ClusterView
from repro.errors import DprocError
from repro.units import MB


@pytest.fixture
def view(env, cluster3):
    dprocs = deploy_dproc(cluster3)
    for dp in dprocs.values():
        dp.dmon.modules["cpu"].configure("period", 4.0)
    env.run(until=5.0)
    return ClusterView(dprocs["alan"], staleness=5.0), dprocs, cluster3


class TestSnapshot:
    def test_covers_all_hosts_when_fresh(self, view):
        v, _dprocs, cluster = view
        snap = v.snapshot(MetricId.FREEMEM)
        assert set(snap) == set(cluster.names)
        assert all(value > 0 for value in snap.values())

    def test_exclude_self(self, view):
        v, _, _ = view
        snap = v.snapshot(MetricId.FREEMEM, include_self=False)
        assert "alan" not in snap

    def test_stale_entries_dropped(self, env, view):
        v, dprocs, _ = view
        dprocs["maui"].dmon.stop()
        env.run(until=20.0)
        snap = v.snapshot(MetricId.FREEMEM)
        assert "maui" not in snap
        assert "etna" in snap

    def test_staleness_validation(self, view):
        v, dprocs, _ = view
        with pytest.raises(DprocError):
            ClusterView(dprocs["alan"], staleness=0)


class TestAggregates:
    def test_mean_and_total(self, view):
        v, _, cluster = view
        mean = v.mean(MetricId.FREEMEM)
        total = v.total(MetricId.FREEMEM)
        assert total == pytest.approx(mean * len(cluster))
        assert mean > MB(100)

    def test_empty_aggregates_are_nan(self, env, view):
        v, dprocs, _ = view
        for dp in dprocs.values():
            dp.dmon.stop()
        env.run(until=30.0)
        # Even local samples linger in last_samples; use a metric that
        # was never collected.
        assert math.isnan(v.mean(MetricId.BATTERY))
        assert math.isnan(v.total(MetricId.BATTERY))
        host, value = v.extreme(MetricId.BATTERY)
        assert host is None and math.isnan(value)

    def test_extreme(self, env, view):
        v, _, cluster = view
        cluster["maui"].memory.allocate(MB(300), tag="hog")
        env.run(until=10.0)
        host, value = v.extreme(MetricId.FREEMEM, largest=False)
        assert host == "maui"
        top, top_value = v.extreme(MetricId.FREEMEM, largest=True)
        assert top != "maui" and top_value > value
