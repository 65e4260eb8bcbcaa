"""The Scenario facade and the removed-alias guard rails."""

from __future__ import annotations

import pytest

from repro.api import Scenario, ScenarioError
from repro.dproc import MetricId
from repro.obs import HealthEngine
from repro.runtime.series import CounterTrace, TimeSeries
from repro.sim import Environment, build_cluster


class TestBuildAndRun:
    def test_build_exposes_world(self):
        sc = Scenario(nodes=3, seed=1).build()
        assert sc.backend == "sim"
        assert len(sc.nodes) == 3
        assert set(sc.dprocs) == set(sc.nodes.names)
        assert sc.env.now == 0.0
        assert sc.clock is sc.env

    def test_build_is_idempotent(self):
        sc = Scenario(nodes=2).build()
        runtime = sc.runtime
        assert sc.build().runtime is runtime

    def test_run_advances_and_returns_self(self):
        sc = Scenario(nodes=2, seed=3)
        assert sc.run(5.0) is sc
        assert sc.env.now == 5.0
        sc.run(5.0)
        assert sc.env.now == 10.0

    def test_run_until_is_absolute(self):
        sc = Scenario(nodes=2, seed=3).run_until(4.0)
        assert sc.env.now == 4.0

    def test_monitor_hosts_int_prefix(self):
        sc = Scenario(nodes=4, seed=0, monitor_hosts=2).build()
        assert list(sc.dprocs) == sc.nodes.names[:2]

    def test_monitor_hosts_by_name(self):
        sc = Scenario(nodes=3, seed=0,
                      monitor_hosts=["etna"]).build()
        assert list(sc.dprocs) == ["etna"]

    def test_same_seed_same_world(self):
        def reading(seed):
            sc = Scenario(nodes=3, seed=seed).run(10.0)
            n0, n1 = sc.nodes.names[:2]
            return sc.dprocs[n0].metric(n1, MetricId.FREEMEM)
        assert reading(7) == reading(7)

    def test_overhead_summary_shape(self):
        sc = Scenario(nodes=2, seed=0).run(5.0)
        report = sc.overhead()
        assert report["n_nodes"] == 2
        assert report["sim_seconds"] == 5.0
        assert report["polls"] > 0


class TestBoundedHistories:
    def test_no_unbounded_history_in_a_deployment(self):
        """Every time-stamped history on the path a record travels —
        kernel devices, port links, stack, connections, d-mon — is
        constructed with a bound."""
        sc = Scenario(nodes=6, seed=3,
                      modules=("cpu", "mem", "disk", "net", "pmc"))
        sc.run(5.0)
        owners = [dproc.dmon for dproc in sc.dprocs.values()]
        for node in sc.nodes:
            owners += [node.cpu, node.memory, node.disk, node.port.tx,
                       node.port.rx, node.stack, *node.stack.connections]
        histories = [value for owner in owners
                     for value in vars(owner).values()
                     if isinstance(value, (TimeSeries, CounterTrace))]
        assert histories
        unbounded = [h.name for h in histories if h.max_samples is None]
        assert unbounded == []

    def test_health_log_is_a_bounded_ring(self):
        """The ``obs.health`` log a scenario builds for itself keeps at
        most its bound, however many verdict flips a run appends."""
        log = Scenario(nodes=2, seed=1).with_observability().build().obs_log
        assert log.max_len is not None
        channel = log.stream(HealthEngine.CHANNEL)
        for i in range(log.max_len + 3):
            channel.append(kind="health", source="n0", dest="",
                           time=float(i), submitted_at=float(i),
                           size=0.0, summary="rule:degraded",
                           fault="healthy->degraded")
        assert len(channel) == log.max_len
        assert channel.trimmed == 3


class TestPhaseErrors:
    def test_unknown_backend(self):
        with pytest.raises(ScenarioError):
            Scenario(backend="quantum")

    def test_world_needs_build(self):
        with pytest.raises(ScenarioError):
            Scenario().nodes

    def test_hooks_frozen_after_build(self):
        sc = Scenario(nodes=2).build()
        with pytest.raises(ScenarioError):
            sc.with_setup(lambda s: None)

    def test_live_rejects_eager_build(self):
        with pytest.raises(ScenarioError):
            Scenario(nodes=2, backend="live").build()

    def test_live_rejects_run_until(self):
        with pytest.raises(ScenarioError):
            Scenario(nodes=2, backend="live").run_until(1.0)

    def test_live_rejects_faults(self):
        with pytest.raises(ScenarioError):
            Scenario(nodes=2, backend="live").with_faults()

    def test_live_rejects_tracing(self):
        with pytest.raises(ScenarioError):
            Scenario(nodes=2, backend="live").with_tracing()

    def test_sim_has_env_live_does_not(self):
        sc = Scenario(nodes=2, backend="live")
        with pytest.raises(ScenarioError):
            sc.env

    def test_one_kernel_no_placement_knob(self):
        """The simulator is one kernel: no ``with_workers`` beside it,
        and a node pool is a live-only placement."""
        assert not hasattr(Scenario, "with_workers")
        with pytest.raises(ScenarioError, match="one kernel"):
            Scenario(nodes=2).with_node_pool(2)


class TestHookOrder:
    def test_cluster_hook_runs_before_deploy(self):
        order = []
        sc = (Scenario(nodes=2, seed=0)
              .with_cluster_setup(
                  lambda s: order.append(("cluster", bool(s.dprocs))))
              .with_setup(
                  lambda s: order.append(("setup", bool(s.dprocs))))
              .build())
        assert order == [("cluster", False), ("setup", True)]
        assert sc.dprocs

    def test_fault_hook_sees_injector(self):
        seen = []
        (Scenario(nodes=2, seed=0)
         .with_faults(lambda s: seen.append(s.faults))
         .build())
        assert seen and seen[0] is not None


class TestRemovedAliases:
    """The ``n_nodes`` keyword is gone, like any removed keyword."""

    def test_build_cluster_rejects_n_nodes(self):
        with pytest.raises(TypeError):
            build_cluster(Environment(), n_nodes=3, seed=0)

    def test_chaos_recovery_rejects_n_nodes(self):
        from repro.harness.chaos import chaos_recovery
        with pytest.raises(TypeError):
            chaos_recovery(n_nodes=4, duration=10.0)

    def test_deprecation_module_removed(self):
        with pytest.raises(ImportError):
            import repro.deprecation  # noqa: F401
