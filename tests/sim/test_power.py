"""Unit tests for the battery/power model."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim import Battery
from repro.units import KB
from tests.conftest import Inbox


@pytest.fixture
def node(cluster3):
    return cluster3["maui"]


class TestBattery:
    def test_starts_full(self, node):
        battery = Battery(node, capacity_joules=1000.0)
        assert battery.level_percent() == 100.0
        assert not battery.empty

    def test_base_draw_over_time(self, env, node):
        battery = Battery(node, capacity_joules=1000.0, base_power=2.0,
                          cpu_joules_per_second=0.0,
                          radio_joules_per_byte=0.0)
        env.run(until=100.0)
        assert battery.drained_joules() == pytest.approx(200.0)
        assert battery.level_percent() == pytest.approx(80.0)

    def test_cpu_activity_drains(self, env, node):
        battery = Battery(node, capacity_joules=1e6, base_power=0.0,
                          cpu_joules_per_second=10.0,
                          radio_joules_per_byte=0.0)
        done = node.cpu.execute(node.cpu.mflops_per_cpu * 5)  # 5 s
        env.run(done)
        assert battery.drained_joules() == pytest.approx(50.0, rel=0.01)

    def test_radio_traffic_drains(self, env, cluster3):
        node = cluster3["maui"]
        battery = Battery(node, capacity_joules=1e6, base_power=0.0,
                          cpu_joules_per_second=0.0,
                          radio_joules_per_byte=1e-3)
        conn = cluster3["alan"].stack.connect("maui", tag="t")
        inbox = Inbox(node.stack)

        def send():
            conn.send("x", size=KB(10))
            yield inbox.next()

        env.run(env.process(send()))
        assert battery.drained_joules() \
            == pytest.approx(KB(10) * 1e-3, rel=0.01)

    def test_clamps_at_empty(self, env, node):
        battery = Battery(node, capacity_joules=10.0, base_power=1.0)
        env.run(until=100.0)
        assert battery.level_joules() == 0.0
        assert battery.empty

    def test_validation(self, node):
        with pytest.raises(SimulationError):
            Battery(node, capacity_joules=0)

    def test_registers_as_service(self, node):
        battery = Battery(node)
        assert node.services["battery"] is battery


class TestBatteryMon:
    def test_requires_battery(self, cluster3):
        from repro.dproc import BatteryMon
        from repro.errors import DprocError
        with pytest.raises(DprocError, match="no battery"):
            BatteryMon(cluster3["alan"])

    def test_finds_attached_battery(self, env, node):
        from repro.dproc import BatteryMon, MetricId
        Battery(node, capacity_joules=100.0, base_power=1.0)
        mon = BatteryMon(node)
        env.run(until=25.0)
        (value,) = mon.collect(env.now)
        assert mon.metrics() == (MetricId.BATTERY,)
        assert value == pytest.approx(75.0)

    def test_runtime_deploy_and_remote_visibility(self):
        """The paper's §1 scenario: battery monitoring added to a live
        d-mon and visible cluster-wide."""
        from repro.api import Scenario
        from repro.dproc import BatteryMon, MetricId
        batteries = []
        sc = (Scenario(nodes=3, seed=42)
              .with_cluster_setup(lambda sc: batteries.append(Battery(
                  sc.nodes["maui"], capacity_joules=1000.0,
                  base_power=1.0)))
              .run_until(3.0))
        node, (battery,), dprocs = sc.nodes["maui"], batteries, sc.dprocs
        assert dprocs["alan"].dmon.remote_value(
            "maui", MetricId.BATTERY) is None
        dprocs["maui"].dmon.register_service(BatteryMon(node, battery))
        sc.run_until(6.0)
        seen = dprocs["alan"].dmon.remote_value("maui",
                                                MetricId.BATTERY)
        assert seen is not None
        assert 0 < seen.value <= 100.0
        # And through procfs:
        text = dprocs["alan"].read("/proc/cluster/maui/battery")
        assert 0 < float(text) <= 100.0
