"""Unit tests for the monitoring modules."""

from __future__ import annotations

import pytest

from repro.dproc import (CpuMon, DiskMon, MemMon, MetricId, NetMon,
                         PmcMon)
from repro.errors import DprocError
from repro.units import MB, PAGE_SIZE, mbps
from tests.conftest import Inbox


def sample_dict(module, now):
    return dict(zip(module.metrics(), module.collect(now)))


class TestCpuMon:
    def test_metrics(self, cluster3):
        assert CpuMon(cluster3["alan"]).metrics() == (MetricId.LOADAVG,)

    def test_tracks_run_queue_average(self, env, cluster3):
        node = cluster3["alan"]
        mon = CpuMon(node, avg_period=2.0)
        mon.start()
        # Two long-running jobs -> run queue length 2.
        node.cpu.execute(1e9)
        node.cpu.execute(1e9)
        env.run(until=5.0)
        value = sample_dict(mon, env.now)[MetricId.LOADAVG]
        assert value == pytest.approx(2.0, abs=0.3)

    def test_idle_load_is_zero(self, env, cluster3):
        mon = CpuMon(cluster3["alan"], avg_period=1.0)
        mon.start()
        env.run(until=3.0)
        assert sample_dict(mon, env.now)[MetricId.LOADAVG] \
            == pytest.approx(0.0, abs=0.1)

    def test_configure_period(self, env, cluster3):
        mon = CpuMon(cluster3["alan"], avg_period=60.0)
        mon.configure("period", 5.0)
        assert mon.avg_period == 5.0
        assert mon.sample_interval == pytest.approx(0.5)

    def test_sample_interval_floor(self, cluster3):
        mon = CpuMon(cluster3["alan"], avg_period=0.2)
        assert mon.sample_interval == CpuMon.MIN_SAMPLE_INTERVAL

    def test_bad_config_rejected(self, cluster3):
        mon = CpuMon(cluster3["alan"])
        with pytest.raises(DprocError):
            mon.configure("period", 0)
        with pytest.raises(DprocError):
            mon.configure("bogus", 1)
        with pytest.raises(DprocError):
            CpuMon(cluster3["alan"], avg_period=-1)

    def test_sampler_charges_cpu(self, env, cluster3):
        node = cluster3["maui"]
        mon = CpuMon(node, avg_period=1.0)
        mon.start()
        env.run(until=10.0)
        node.cpu.settle()
        assert node.cpu.busy_cpu_seconds > 0

    def test_stop_ends_thread(self, env, cluster3):
        mon = CpuMon(cluster3["alan"], avg_period=1.0)
        mon.start()
        env.run(until=1.0)
        mon.stop()
        env.run()  # must terminate (no infinite schedule)


class TestMemMon:
    def test_reports_free_bytes(self, env, cluster3):
        node = cluster3["alan"]
        mon = MemMon(node)
        before = sample_dict(mon, env.now)[MetricId.FREEMEM]
        node.memory.allocate(MB(100))
        after = sample_dict(mon, env.now)[MetricId.FREEMEM]
        assert before - after == pytest.approx(MB(100), abs=PAGE_SIZE)

    def test_page_granularity(self, env, cluster3):
        mon = MemMon(cluster3["alan"])
        value = sample_dict(mon, env.now)[MetricId.FREEMEM]
        assert value % PAGE_SIZE == 0


class TestDiskMon:
    def test_rates_over_window(self, env, cluster3):
        node = cluster3["alan"]
        mon = DiskMon(node, window=10.0)

        def writer():
            for _ in range(10):
                yield node.disk.write(512 * 8)  # 8 sectors each
                yield env.timeout(0.5)

        env.run(env.process(writer()))
        values = sample_dict(mon, env.now)
        assert values[MetricId.DISK_WRITES] == pytest.approx(1.0, rel=0.3)
        assert values[MetricId.DISKUSAGE] == pytest.approx(8.0, rel=0.3)
        assert values[MetricId.DISK_READS] == 0.0

    def test_idle_disk_zero(self, env, cluster3):
        mon = DiskMon(cluster3["alan"])
        env.run(until=2.0)
        values = sample_dict(mon, env.now)
        assert values[MetricId.DISKUSAGE] == 0.0

    def test_configure_window(self, cluster3):
        mon = DiskMon(cluster3["alan"])
        mon.configure("period", 5.0)
        assert mon.window == 5.0
        with pytest.raises(DprocError):
            mon.configure("period", -1)


class TestNetMon:
    def test_available_bandwidth_idle(self, env, cluster3):
        mon = NetMon(cluster3["alan"])
        values = sample_dict(mon, env.now)
        assert values[MetricId.NET_BANDWIDTH] \
            == pytest.approx(mbps(100))

    def test_available_bandwidth_under_fixed_flow(self, env, cluster3):
        cluster3.fabric.open_fixed_flow("maui", "alan", mbps(60))
        env.run(until=1.0)
        mon = NetMon(cluster3["alan"])
        values = sample_dict(mon, env.now)
        assert values[MetricId.NET_BANDWIDTH] \
            == pytest.approx(mbps(40), rel=0.02)

    def test_used_bandwidth(self, env, cluster3):
        alan = cluster3["alan"]
        conn = alan.stack.connect("maui", tag="t")
        inbox = Inbox(cluster3["maui"].stack)

        def sender():
            conn.send("x", size=mbps(10) * 0.5)
            yield inbox.next()
            yield env.timeout(0.4)

        env.run(env.process(sender()))
        mon = NetMon(alan, window=env.now + 0.1)
        values = sample_dict(mon, env.now)
        assert values[MetricId.NET_USED] > 0

    def test_rtt_zero_without_connections(self, env, cluster3):
        mon = NetMon(cluster3["etna"])
        assert sample_dict(mon, env.now)[MetricId.NET_RTT] == 0.0

    def test_rtt_after_traffic(self, env, cluster3):
        alan = cluster3["alan"]
        conn = alan.stack.connect("maui", tag="t")
        inbox = Inbox(cluster3["maui"].stack)

        def sender():
            conn.send("x", size=1000)
            yield inbox.next()

        env.run(env.process(sender()))
        mon = NetMon(alan)
        assert sample_dict(mon, env.now)[MetricId.NET_RTT] > 0

    def test_end_to_end_delay(self, env, cluster3):
        alan = cluster3["alan"]
        conn = alan.stack.connect("maui", tag="t")
        inbox = Inbox(cluster3["maui"].stack)

        def sender():
            conn.send("x", size=mbps(100) * 0.5)  # ~0.5 s
            yield inbox.next()

        env.run(env.process(sender()))
        mon = NetMon(alan)
        delay = sample_dict(mon, env.now)[MetricId.NET_DELAY]
        assert delay == pytest.approx(0.5, rel=0.05)

    def test_delay_zero_without_traffic(self, env, cluster3):
        mon = NetMon(cluster3["etna"])
        assert sample_dict(mon, env.now)[MetricId.NET_DELAY] == 0.0


class TestPmcMon:
    def test_idle_counters_zero(self, env, cluster3):
        mon = PmcMon(cluster3["alan"])
        mon.collect(env.now)
        env.run(until=1.0)
        values = sample_dict(mon, env.now)
        assert values[MetricId.CACHE_MISS] == 0.0
        assert values[MetricId.INSTRUCTIONS] == 0.0

    def test_compute_generates_counters(self, env, cluster3):
        node = cluster3["alan"]
        mon = PmcMon(node)
        mon.collect(env.now)  # establish baseline
        node.cpu.execute(10.0)
        env.run(until=2.0)
        values = sample_dict(mon, env.now)
        assert values[MetricId.CACHE_MISS] > 0
        assert values[MetricId.INSTRUCTIONS] > 0

    def test_network_rx_pollutes_cache(self, env, cluster3):
        node = cluster3["maui"]
        mon = PmcMon(node)
        mon.collect(env.now)
        conn = cluster3["alan"].stack.connect("maui", tag="t")
        inbox = Inbox(node.stack)

        def sender():
            conn.send("x", size=MB(1))
            yield inbox.next()

        env.run(env.process(sender()))
        env.run(until=env.now + 0.5)
        values = sample_dict(mon, env.now)
        assert values[MetricId.CACHE_MISS] > 0

    def test_first_collect_is_safe(self, env, cluster3):
        mon = PmcMon(cluster3["alan"])
        values = sample_dict(mon, env.now)
        assert values[MetricId.CACHE_MISS] == 0.0
