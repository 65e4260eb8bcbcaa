"""Edge-case and stress tests for the simulation substrate."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim import CPU, Environment, Fabric, build_cluster
from repro.units import mbps


class TestSchedulerStress:
    def test_many_simultaneous_timeouts(self, env):
        fired = []
        for i in range(5000):
            env.timeout(1.0).add_callback(
                lambda _e, i=i: fired.append(i))
        env.run()
        assert fired == list(range(5000))

    def test_deeply_chained_processes(self, env):
        def chain(depth):
            if depth > 0:
                yield env.process(chain(depth - 1))
            yield env.timeout(0.001)

        env.run(env.process(chain(200)))
        assert env.now == pytest.approx(0.201)

    def test_process_forest(self, env):
        """Many processes spawning processes remains deterministic."""
        done = []

        def parent(tag):
            kids = [env.process(child(tag, k)) for k in range(5)]
            yield env.all_of(kids)
            done.append(tag)

        def child(tag, k):
            yield env.timeout(0.1 * ((tag * 5 + k) % 7 + 1))

        for t in range(20):
            env.process(parent(t))
        env.run()
        assert sorted(done) == list(range(20))

    def test_interleaved_run_until_times(self, env):
        hits = []
        for t in (1.0, 2.0, 3.0):
            env.timeout(t).add_callback(
                lambda _e, t=t: hits.append(t))
        env.run(until=1.5)
        assert hits == [1.0]
        env.run(until=10.0)
        assert hits == [1.0, 2.0, 3.0]


class TestCpuEdgeCases:
    def test_tiny_and_huge_jobs_coexist(self, env):
        cpu = CPU(env, n_cpus=1, mflops_per_cpu=10.0)
        tiny = [cpu.execute(1e-9) for _ in range(50)]
        big = cpu.execute(100.0)
        env.run(env.all_of(tiny + [big]))
        cpu.settle()
        assert cpu.busy_cpu_seconds == pytest.approx(10.0, rel=1e-6)

    def test_burst_of_kernel_work_during_long_job(self, env):
        cpu = CPU(env, n_cpus=1, mflops_per_cpu=10.0)
        job = cpu.execute(100.0)  # 10 s alone

        def bursts():
            for _ in range(100):
                cpu.kernel_work(0.01)
                yield env.timeout(0.05)

        env.process(bursts())
        env.run(job)
        # job time = own work + total kernel work (work conservation)
        assert env.now == pytest.approx(10.0 + 100 * 0.001, rel=1e-6)

    def test_zero_capacity_rejected(self, env):
        with pytest.raises(SimulationError):
            CPU(env, mflops_per_cpu=-1.0)


class TestNetworkEdgeCases:
    def test_many_tiny_transfers(self, env):
        fabric = Fabric(env)
        fabric.add_host("a")
        fabric.add_host("b")
        done = [env.event() for _ in range(300)]
        for ev in done:
            fabric.transfer("a", "b", 100.0, on_done=ev.succeed)
        env.run(env.all_of(done))
        fabric.settle()
        assert fabric.hosts["a"].tx.carried_bytes \
            == pytest.approx(300 * 100.0, rel=0.01)

    def test_fixed_flow_churn(self, env):
        """Open/close fixed flows rapidly while a transfer runs."""
        fabric = Fabric(env)
        fabric.add_host("a")
        fabric.add_host("b")
        fabric.add_host("c")
        done = env.event()
        fabric.transfer("a", "b", mbps(100) * 5.0, on_done=done.succeed)

        def churn():
            for i in range(40):
                flow = fabric.open_fixed_flow("c", "b",
                                              mbps(30 + i % 40))
                yield env.timeout(0.2)
                flow.close()

        env.process(churn())
        env.run(done)
        # With churning contention the 5 line-seconds take >5 s but
        # finish — no stall, no oversubscription blow-up.
        assert 5.0 < env.now < 12.0

    def test_transfer_between_every_pair(self, env):
        cluster = build_cluster(env, 6, seed=8)
        done = []
        for a in cluster.names:
            for b in cluster.names:
                if a != b:
                    done.append(env.event())
                    cluster.fabric.transfer(a, b, 50_000.0,
                                            on_done=done[-1].succeed)
        env.run(env.all_of(done))
        assert all(ev.ok for ev in done)


class TestDeterminismAcrossSubsystems:
    def test_full_stack_replay(self):
        """A dproc+workload scenario is bit-identical across runs."""

        def run_once():
            from repro.api import Scenario
            from repro.workloads import AmbientActivity, Linpack
            sc = Scenario(nodes=4, seed=77).build()
            cluster = sc.nodes
            for node in cluster:
                AmbientActivity(node, intensity=0.6).start()
            lp = Linpack(cluster["alan"]).start()
            sc.run_until(30.0)
            a = sc.dprocs["alan"].dmon
            return (lp.mflops(),
                    a.node.telemetry.value("dmon.events_published"),
                    list(a.submit_overhead)[-1],
                    cluster["maui"].disk.writes.total)

        assert run_once() == run_once()
