"""Unit tests for the workload generators."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim import NodeConfig, build_cluster
from repro.workloads import (AmbientActivity, IperfMeasure, IperfPerturb,
                             Linpack)


class TestLinpack:
    def test_idle_node_achieves_rated_mflops(self, env, cluster3):
        lp = Linpack(cluster3["alan"]).start()
        env.run(until=20.0)
        assert lp.mflops() == pytest.approx(17.4, rel=0.02)

    def test_kernel_work_lowers_score(self, env, cluster3):
        node = cluster3["alan"]
        lp = Linpack(node).start()

        def thief():
            while True:
                node.charge_kernel_seconds(0.01)  # 10 ms/s => ~1%
                yield env.timeout(1.0)

        env.process(thief())
        env.run(until=30.0)
        assert lp.mflops() == pytest.approx(17.4 * 0.99, rel=0.01)

    def test_two_threads_share_one_cpu(self, env, cluster3):
        node = cluster3["alan"]
        a = Linpack(node).start()
        b = Linpack(node).start()
        env.run(until=20.0)
        assert a.mflops() == pytest.approx(8.7, rel=0.05)
        assert b.mflops() == pytest.approx(8.7, rel=0.05)

    def test_quad_cpu_runs_four_threads_full_speed(self, env):
        cluster = build_cluster(env, 1,
                                node_configs=[NodeConfig(n_cpus=4)])
        threads = [Linpack(cluster["alan"]).start() for _ in range(4)]
        env.run(until=20.0)
        for t in threads:
            assert t.mflops() == pytest.approx(17.4, rel=0.05)

    def test_stop_freezes_measurement(self, env, cluster3):
        lp = Linpack(cluster3["alan"]).start()
        env.run(until=5.0)
        lp.stop()
        env.run(until=10.0)
        assert lp.mflops() == pytest.approx(17.4, rel=0.05)

    def test_double_start_rejected(self, env, cluster3):
        lp = Linpack(cluster3["alan"]).start()
        with pytest.raises(SimulationError):
            lp.start()

    def test_measure_before_start_rejected(self, cluster3):
        with pytest.raises(SimulationError):
            Linpack(cluster3["alan"]).mflops()


class TestIperfMeasure:
    def test_idle_network_hits_cpu_limit(self, env, cluster3):
        iperf = IperfMeasure(cluster3["alan"], cluster3["maui"]).start()
        env.run(until=20.0)
        assert iperf.bandwidth_mbps(since=2.0) \
            == pytest.approx(96.5, rel=0.02)

    def test_kernel_load_on_sender_lowers_bandwidth(self, env, cluster3):
        sender = cluster3["alan"]
        iperf = IperfMeasure(sender, cluster3["maui"]).start()

        def thief():
            while True:
                sender.charge_kernel_seconds(0.02)  # 2% of the CPU
                yield env.timeout(1.0)

        env.process(thief())
        env.run(until=30.0)
        measured = iperf.bandwidth_mbps(since=2.0)
        assert measured == pytest.approx(96.5 * 0.98, rel=0.01)

    def test_same_node_rejected(self, cluster3):
        with pytest.raises(SimulationError):
            IperfMeasure(cluster3["alan"], cluster3["alan"])

    def test_stop(self, env, cluster3):
        iperf = IperfMeasure(cluster3["alan"], cluster3["maui"]).start()
        env.run(until=2.0)
        iperf.stop()
        total = iperf.received.total
        env.run(until=4.0)
        assert iperf.received.total == pytest.approx(total,
                                                     rel=0.05)


class TestIperfPerturb:
    def test_takes_requested_bandwidth(self, env, cluster3):
        perturb = IperfPerturb(cluster3["alan"], cluster3["maui"],
                               rate_mbps=70).start()
        env.run(until=1.0)
        assert perturb.achieved_mbps == pytest.approx(70.0)
        mon_avail = cluster3.fabric.available_bandwidth("alan", "maui")
        assert mon_avail == pytest.approx(30e6 / 8, rel=0.01)
        perturb.stop()

    def test_validation(self, env, cluster3):
        with pytest.raises(SimulationError):
            IperfPerturb(cluster3["alan"], cluster3["maui"], 0)
        p = IperfPerturb(cluster3["alan"], cluster3["maui"], 10)
        assert not p.running
        p.start()
        with pytest.raises(SimulationError):
            p.start()
        p.stop()
        assert not p.running


class TestAmbient:
    def test_generates_activity(self, env, cluster3):
        node = cluster3["alan"]
        AmbientActivity(node, intensity=2.0).start()
        env.run(until=60.0)
        node.cpu.settle()
        assert node.cpu.busy_cpu_seconds > 0
        assert node.disk.writes.total > 0

    def test_zero_intensity_is_noop(self, env, cluster3):
        node = cluster3["maui"]
        amb = AmbientActivity(node, intensity=0.0).start()
        assert not amb.running
        env.run(until=10.0)
        node.cpu.settle()
        assert node.cpu.busy_cpu_seconds == 0.0

    def test_deterministic(self):
        def run_once():
            from repro.sim import Environment
            env = Environment()
            cluster = build_cluster(env, 1, seed=9)
            node = cluster["alan"]
            AmbientActivity(node, intensity=1.0).start()
            env.run(until=30.0)
            node.cpu.settle()
            return (node.cpu.busy_cpu_seconds, node.disk.writes.total)

        assert run_once() == run_once()

    def test_restart_runs_one_loop_of_each_kind(self):
        def run_once(restart):
            from repro.sim import Environment
            env = Environment()
            node = build_cluster(env, 1, seed=9)["alan"]
            ambient = AmbientActivity(node, intensity=1.0).start()
            env.run(until=10.0)
            if restart:
                ambient.stop()
                ambient.start()
            env.run(until=100.0)
            node.cpu.settle()
            return (node.cpu.busy_cpu_seconds, node.disk.writes.total,
                    node.memory.free_bytes)

        assert run_once(restart=True) == run_once(restart=False)

    def test_negative_intensity_rejected(self, cluster3):
        with pytest.raises(SimulationError):
            AmbientActivity(cluster3["alan"], intensity=-1)
