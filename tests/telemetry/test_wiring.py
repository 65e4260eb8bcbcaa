"""Integration tests: telemetry wired into the dproc hot paths.

These exercise a real monitored cluster and assert that the registry
fills in from the d-mon poll loop, the KECho channels and the network
stack.
"""

from __future__ import annotations

import pytest

from repro.api import Scenario
from repro.dproc import MetricId


@pytest.fixture
def monitored(sc3):
    sc3.run_until(10.0)
    return sc3.nodes, sc3.dprocs


class TestDmonInstrumentation:
    def test_poll_counters_fill_in(self, monitored):
        cluster, _ = monitored
        for name in cluster.names:
            reg = cluster[name].telemetry
            assert reg.value("dmon.polls") > 0
            assert reg.value("dmon.collect_seconds") > 0
            assert reg.value("dmon.submit_seconds") > 0

    def test_per_module_poll_cost(self, monitored):
        cluster, _ = monitored
        reg = cluster["alan"].telemetry
        module_names = reg.names("dmon.module.")
        assert "dmon.module.cpu.collect_seconds" in module_names
        assert reg.value("dmon.module.cpu.collect_seconds") > 0

    def test_publish_counters(self, monitored):
        cluster, _ = monitored
        total_events = sum(
            cluster[n].telemetry.value("dmon.events_published")
            for n in cluster.names)
        assert total_events > 0


class TestChannelInstrumentation:
    def test_submit_side(self, monitored):
        cluster, _ = monitored
        reg = cluster["alan"].telemetry
        submits = [n for n in reg.names("kecho.")
                   if n.endswith(".submits")]
        assert submits
        assert any(reg.value(n) > 0 for n in submits)

    def test_delivery_latency_histogram(self, monitored):
        cluster, _ = monitored
        seen = 0
        for name in cluster.names:
            reg = cluster[name].telemetry
            for hist_name in reg.names("kecho."):
                if hist_name.endswith(".delivery_seconds"):
                    hist = reg.get(hist_name)
                    seen += hist.count
                    if hist.count:
                        assert hist.min >= 0.0
        assert seen > 0

    def test_fanout_histogram(self, monitored):
        cluster, _ = monitored
        reg = cluster["alan"].telemetry
        fanouts = [reg.get(n) for n in reg.names("kecho.")
                   if n.endswith(".fanout")]
        assert any(h.count > 0 for h in fanouts)
        # 3-node cluster: fan-out can never exceed 2 subscribers.
        assert all(h.max <= 2 for h in fanouts if h.count)


class TestTransportInstrumentation:
    def test_delivered_and_in_flight(self, monitored):
        cluster, _ = monitored
        total = sum(cluster[n].telemetry.value("net.delivered")
                    for n in cluster.names)
        assert total > 0
        for name in cluster.names:
            gauge = cluster[name].telemetry.get("net.in_flight")
            if gauge is not None and gauge.updates:
                assert gauge.value >= 0


class TestSelfMonModule:
    def test_dproc_metrics_published(self):
        dprocs = Scenario(nodes=2, seed=7, modules=("cpu", "mem", "dproc")
                          ).run_until(10.0).dprocs
        value = dprocs["alan"].metric("maui",
                                      MetricId.DMON_POLL_COST)
        assert value == value  # published, not NaN
        assert value > 0

    def test_overhead_procfs_file(self):
        dprocs = Scenario(nodes=2, seed=7).run_until(10.0).dprocs
        text = dprocs["alan"].read(
            "/proc/cluster/alan/dproc/overhead")
        assert "polls:" in text
        assert "monitor_cpu_seconds:" in text

    def test_channels_and_dmon_procfs_files(self):
        dprocs = Scenario(nodes=2, seed=7).run_until(10.0).dprocs
        channels = dprocs["alan"].read(
            "/proc/cluster/alan/dproc/channels")
        assert "kecho." in channels
        dmon = dprocs["alan"].read("/proc/cluster/alan/dproc/dmon")
        assert "dmon.polls:" in dmon
