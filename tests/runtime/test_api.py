"""The Scenario facade and the removed-alias guard rails."""

from __future__ import annotations

import pytest

from repro.api import Scenario, ScenarioError
from repro.dproc import DMonConfig, MetricId
from repro.obs import HealthRule
from repro.obs.health import HEALTH_LOG_MAX_LEN
from repro.runtime.series import (DEVICE_HISTORY, MEASUREMENT_HISTORY,
                                  CounterTrace)
from repro.sim import Environment, build_cluster


def _unbounded(owners) -> list[str]:
    """``Type.attr`` of every history on ``owners`` that is not bounded
    by one of the two history constants (asserts one history exists,
    so an empty walk cannot pass)."""
    histories = [(f"{type(owner).__name__}.{attr}", value)
                 for owner in owners
                 for attr, value in vars(owner).items()
                 if isinstance(value, CounterTrace)]
    assert histories
    return [name for name, history in histories
            if history.max_samples not in (DEVICE_HISTORY,
                                           MEASUREMENT_HISTORY)]


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
        assert _unbounded(owners) == []

    def test_no_unbounded_history_in_the_applications(self):
        """The application series off the record path — SmartPointer's
        stream and client, Linpack and iperf — are bounded too, after a
        run that fills each of them."""
        from repro.harness.appbench import (CPU_PROFILE, CPU_RATE,
                                            SmartPointerRig)
        from repro.smartpointer import NoAdaptation
        from repro.workloads import IperfMeasure, Linpack
        rig = SmartPointerRig.build(NoAdaptation(), CPU_PROFILE, CPU_RATE)
        cluster = rig.cluster
        linpack = Linpack(cluster["server"]).start()
        iperf = IperfMeasure(cluster["iperf1"], cluster["iperf2"]).start()
        rig.env.run(until=5.0)
        assert rig.client.processed.total > 0
        owners = [rig.client, linpack, iperf,
                  *rig.server.streams.values()]
        assert _unbounded(owners) == []

    def test_health_log_is_a_bounded_ring(self):
        """The health engine a scenario builds keeps at most
        ``HEALTH_LOG_MAX_LEN`` transitions, oldest dropped first,
        however many verdict flips a run makes."""
        rule = HealthRule(name="flap", metric="m", threshold=1.0,
                          window=0.5, for_bad=1, for_ok=1)
        plane = Scenario(nodes=2, seed=1).with_observability(
            rules=[rule]).build().obs
        labels = (("node", plane.engine.nodes[0]),)
        flips = HEALTH_LOG_MAX_LEN + 3
        for t in range(flips):
            value = 9.0 if t % 2 == 0 else 0.1
            plane.tsdb.observe("m", labels, float(t), value)
            plane.engine.evaluate(float(t))
        transitions = plane.transitions
        assert len(transitions) == HEALTH_LOG_MAX_LEN
        assert transitions[0].time == 3.0
        assert transitions[-1].time == float(flips - 1)
        assert plane.verdict()["transitions"] == HEALTH_LOG_MAX_LEN

    def test_stream_is_a_bounded_ring(self):
        """Every channel log a ``with_stream()`` run records keeps at
        most ``STREAM_CAPACITY`` entries."""
        from repro.stream import STREAM_CAPACITY
        sc = Scenario(nodes=3, seed=1).with_stream().run(3.0)
        streams = sc.stream.streams.values()
        assert streams
        assert [st.max_len for st in streams] \
            == [STREAM_CAPACITY] * len(streams)


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


class TestHostSelectors:
    """``monitor_hosts`` and ``watchers`` take a count of the first
    hosts or a list of distinct names; anything else is refused before
    a node exists."""

    NONSENSE = [-1, 4, 100, True, False, 2.5, "alan", ["alan", "alan"],
                ["alan", "zed"], [1], ("maui", "maui")]

    @pytest.mark.parametrize("knob", ["monitor_hosts", "watchers"])
    @pytest.mark.parametrize("spec", NONSENSE)
    def test_sim_refuses_before_building_a_node(self, monkeypatch, knob,
                                                spec):
        built = []
        monkeypatch.setattr("repro.api.SimRuntime",
                            lambda **kw: built.append(kw))
        sc = Scenario(nodes=3, seed=0, **{knob: spec})
        with pytest.raises(ScenarioError, match=knob):
            sc.build()
        assert built == [] and sc.runtime is None

    @pytest.mark.parametrize("knob", ["monitor_hosts", "watchers"])
    def test_live_refuses_before_building_a_node(self, monkeypatch, knob):
        monkeypatch.setattr("repro.api.Scenario._make_live_runtime",
                            lambda *args: pytest.fail("built a runtime"))
        with pytest.raises(ScenarioError, match=knob):
            Scenario(nodes=3, backend="live", **{knob: -1}).run(0.1)

    def test_pool_watchers_are_the_constructor_knob(self):
        """``with_node_pool(watchers=)`` sets the same value, and is
        checked the same way."""
        sc = Scenario(nodes=3, backend="live").with_node_pool(
            1, watchers=2)
        assert sc._deployment().watchers == ("alan", "maui")
        sc = Scenario(nodes=3, backend="live").with_node_pool(
            1, watchers=["etna", "etna"])
        with pytest.raises(ScenarioError, match="twice"):
            sc._deployment()

    @pytest.mark.parametrize("spec", [0, 3, ["etna", "alan"]])
    def test_bounds_and_names_are_accepted(self, spec):
        sc = Scenario(nodes=3, seed=0, monitor_hosts=spec).build()
        want = list(spec) if isinstance(spec, list) \
            else sc.nodes.names[:spec]
        assert list(sc.dprocs) == want

    def test_only_watchers_subscribe_on_the_simulator(self):
        sc = Scenario(nodes=4, seed=0, watchers=["maui"]).run(5.0)
        for name, dproc in sc.dprocs.items():
            watching = dproc.dmon.config.subscribe_monitoring
            heard = dproc.dmon.remote_value("etna", MetricId.FREEMEM)
            assert watching == (name == "maui")
            assert (heard is not None) == watching


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


class TestLiveTracing:
    def test_live_run_traces_the_pipeline(self):
        """The collector rides on the bus, so a live run traces with
        no backend-specific code: each poll is a complete tree from
        d-mon through the submit to the publisher's own delivery."""
        sc = (Scenario(nodes=3, backend="live",
                       dmon=DMonConfig(poll_interval=0.2))
              .with_node_pool(workers=1)
              .with_tracing()
              .run(1.5))
        trees = sc.tracer.trees()
        assert trees and all(tree.complete for tree in trees)
        stages = {span.stage for tree in trees for span in tree.spans}
        assert {"dmon", "module", "dmon.param", "kecho",
                "delivery"} <= stages
        assert {tree.root.node for tree in trees} == set(sc.nodes.names)


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
