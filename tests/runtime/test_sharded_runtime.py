"""The sharded runtime behind the Scenario facade: wiring and guards."""

from __future__ import annotations

import pytest

from repro.api import Scenario, ScenarioError
from repro.errors import FaultInjectionError
from repro.sim.cluster import default_names
from repro.telemetry import overhead_summary


class TestWithWorkersGuards:
    def test_workers_must_be_positive(self):
        with pytest.raises(ScenarioError):
            Scenario(nodes=8).with_workers(0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario(nodes=8).with_workers(2, mode="threads")

    def test_live_backend_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario(nodes=8, backend="live").with_workers(2)

    def test_build_and_run_until_are_one_shot_violations(self):
        with pytest.raises(ScenarioError):
            Scenario(nodes=8).with_workers(2).build()
        with pytest.raises(ScenarioError):
            Scenario(nodes=8).with_workers(2).run_until(5.0)

    def test_processes_mode_refuses_hooks(self):
        sc = Scenario(nodes=8).with_workers(2, mode="processes") \
            .with_setup(lambda s: None)
        with pytest.raises(ScenarioError):
            sc.run(1.0)

    def test_cluster_hooks_refused(self):
        sc = Scenario(nodes=8).with_workers(2, mode="inline") \
            .with_cluster_setup(lambda s: None)
        with pytest.raises(ScenarioError):
            sc.run(1.0)

    def test_sharded_scenario_runs_once(self):
        sc = Scenario(nodes=8).with_workers(2)
        sc.run(1.0)
        with pytest.raises(ScenarioError):
            sc.run(1.0)


class TestShardedScenarioSurface:
    def test_inline_exposes_merged_world(self):
        sc = Scenario(nodes=10, seed=2) \
            .with_workers(3, mode="inline").run(3.0)
        assert len(sc.nodes) == 10
        assert len(sc.dprocs) == 10
        # Global name order is preserved across the shard interleave.
        assert sc.nodes.names == default_names(10)
        assert sc.shard_result.n_shards == 3
        assert sc.shard_result.events_processed > 0
        assert sc.overhead()["n_nodes"] == 10

    def test_monitor_hosts_subset_spans_shards(self):
        sc = Scenario(nodes=10, seed=2, monitor_hosts=4) \
            .with_workers(3, mode="inline").run(3.0)
        assert sorted(sc.dprocs) == sorted(default_names(10)[:4])
        # Every dproc still sees the full monitored view.
        for dproc in sc.dprocs.values():
            hosts = set(default_names(10)[:4])
            assert hosts <= set(dproc.hosts())

    def test_auto_mode_picks_inline_for_hooked_scenarios(self):
        sc = Scenario(nodes=8, seed=2).with_workers(2) \
            .with_faults(lambda s: s.faults.set_message_loss(0.1))
        sc.run(2.0)
        assert sc.runtime.processes is False
        assert sc.faults.log[0][1] == "loss 0.1 on all links"


class TestShardedFaultInjector:
    """One ``FaultInjector`` class, over one world or one per shard:
    every assertion holds for both shapes (a loop, not a parameter,
    so the test ids are stable)."""

    WORKERS = (1, 2)

    def _scenario(self, configure, workers):
        return (Scenario(nodes=8, seed=4)
                .with_workers(workers, mode="inline")
                .with_faults(configure))

    def test_scheduled_faults_log_like_plain_injector(self):
        plain, sharded = (self._scenario(lambda s: (
            s.faults.schedule_loss(1.0, 0.3, until=2.0),
            s.faults.schedule_partition(
                1.5, [s.nodes.names[:4], s.nodes.names[4:]],
                heal_at=2.5)), workers).run(4.0)
            for workers in self.WORKERS)
        assert len(plain.runtime.worlds) == 1
        assert len(sharded.runtime.worlds) == 2
        assert sharded.faults.log == plain.faults.log
        assert [entry[0] for entry in plain.faults.log] == \
            [1.0, 1.5, 2.0, 2.5]

    def test_crash_handlers_run_once_in_owning_shard(self):
        for workers in self.WORKERS:
            crashes = []
            def configure(s):
                s.faults.on_crash(lambda h: crashes.append(h))
                s.faults.on_reboot(lambda h: crashes.append(("up", h)))
                s.faults.schedule_crash(1.0, s.nodes.names[0],
                                        reboot_at=2.0)
            sc = self._scenario(configure, workers).run(3.0)
            victim = sc.nodes.names[0]
            assert crashes == [victim, ("up", victim)], workers

    def test_unknown_host_rejected(self):
        for workers in self.WORKERS:
            with pytest.raises(FaultInjectionError):
                self._scenario(
                    lambda s: s.faults.schedule_crash(1.0, "nope"),
                    workers).run(2.0)

    def test_partition_blocks_cross_group_monitoring(self):
        from repro.dproc import PEER_FRESH
        for workers in self.WORKERS:
            sc = self._scenario(lambda s: s.faults.schedule_partition(
                0.5, [s.nodes.names[:4], s.nodes.names[4:]]),
                workers).run(6.0)
            a = sc.nodes.names[0]
            z = sc.nodes.names[-1]
            # Both sides ended up isolated: each watcher's view of the
            # other half went stale/dead (state is not "fresh").
            assert sc.dprocs[a].dmon.peer_state(z) != PEER_FRESH, workers
            assert sc.dprocs[z].dmon.peer_state(a) != PEER_FRESH, workers


class TestMergeOverheadSummaries:
    """Shards ship per-host counters; one summary reads them all."""

    def test_merge_matches_unsharded_accounting(self):
        def run(mode):
            return Scenario(nodes=12, seed=6) \
                .with_workers(3, mode=mode).run(4.0)
        inline, forked = run("inline"), run("processes")
        # Forked workers ship counters home; the parent's mapping is
        # the one an in-process run reads off its own nodes.
        assert list(forked.registries) == list(inline.registries) \
            == default_names(12)
        for host, registry in inline.registries.items():
            assert forked.registries[host].counters() \
                == registry.counters()
        assert forked.overhead() == inline.overhead()
        assert forked.overhead()["n_nodes"] == 12
        # Sums run over every shard; the busiest node is the busiest
        # of all shards, not of the first.
        per_shard = [
            overhead_summary({h: forked.registries[h] for h in hosts},
                             sim_seconds=4.0)
            for hosts in forked.runtime.plan.shards]
        merged = forked.overhead()
        assert merged["polls"] == sum(s["polls"] for s in per_shard)
        assert merged["monitor_cpu_seconds"]["total"] == pytest.approx(
            sum(s["monitor_cpu_seconds"]["total"] for s in per_shard))
        busiest = max((s["monitor_cpu_seconds"] for s in per_shard),
                      key=lambda m: m["busiest_node_seconds"])
        assert merged["monitor_cpu_seconds"]["busiest_node"] \
            == busiest["busiest_node"]

    def test_empty_merge_is_zero_summary(self):
        merged = overhead_summary({}, sim_seconds=2.0)
        assert merged["n_nodes"] == 0
        assert merged["polls"] == 0.0
        assert merged["monitor_cpu_seconds"]["total"] == 0.0
        assert merged["monitor_cpu_seconds"]["busiest_node"] is None
        assert merged["cpu_fraction_of_node_time"] == 0.0
        # Same shape as a real summary: every top-level key present.
        real = Scenario(nodes=2, seed=1).run(2.0).overhead()
        assert set(merged) == set(real)
        assert set(merged["network"]) == set(real["network"])
        assert set(merged["monitor_cpu_seconds"]) \
            == set(real["monitor_cpu_seconds"])
