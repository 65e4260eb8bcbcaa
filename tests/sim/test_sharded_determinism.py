"""Determinism guarantees of the sharded kernel.

Three pins:

* ``workers=1`` is the plain kernel — a scenario with
  ``with_workers(1)`` is bit-identical to one that never mentions
  workers (the 50-node chaos golden in ``tests/golden`` pins the
  absolute schedule).
* A sharded run is self-identical: same (seed, workers, partition) →
  identical events, fault log, telemetry and causal traces.
* Inline and forked-worker execution produce identical per-shard
  results — process boundaries move work, never outcomes.
"""

from __future__ import annotations

import pytest

from repro.api import Scenario
from repro.dproc import DMonConfig, MetricId
from repro.dproc.toolkit import Dproc
from repro.harness.chaos import chaos_recovery
from repro.sim import Environment, build_cluster, partition_nodes, \
    run_sharded
from repro.sim.shard import ShardedBus, ShardRouter, ShardWorld
from repro.tracing import TraceCollector

N = 16
SEED = 11
DURATION = 12.0


def _telemetry_fingerprint(sc: Scenario) -> dict:
    return {node.name: node.telemetry.snapshot() for node in sc.nodes}


class TestWorkersOneIsPlainKernel:
    def test_with_workers_1_bit_identical_to_plain(self):
        plain = Scenario(nodes=N, seed=SEED).run(DURATION)
        workers1 = Scenario(nodes=N, seed=SEED) \
            .with_workers(1).run(DURATION)
        assert workers1.env.events_processed \
            == plain.env.events_processed
        assert _telemetry_fingerprint(workers1) \
            == _telemetry_fingerprint(plain)

    def test_golden_chaos_scenario_unchanged_shape(self):
        """The golden 50-node chaos pin lives in tests/golden; here a
        small fast twin guards the same property in this suite."""
        a = chaos_recovery(nodes=12, seed=5, duration=30.0)
        b = chaos_recovery(nodes=12, seed=5, duration=30.0)
        assert a.trace == b.trace


class TestShardedSelfIdentity:
    def _run(self):
        tracer = TraceCollector()
        sc = (Scenario(nodes=N, seed=SEED)
              .with_workers(4, mode="inline")
              .with_tracing(tracer)
              .with_faults(lambda s: (
                  s.faults.schedule_loss(3.0, 0.25, until=8.0),
                  s.faults.schedule_crash(4.0, s.nodes.names[-1],
                                          reboot_at=9.0)))
              .run(DURATION))
        traces = {tid: tracer.tree(tid).snapshot()
                  for tid in tracer.trace_ids()}
        return {
            "events": [(s.index, s.events_processed, s.conduit_tx,
                        s.conduit_rx, s.conduit_dropped)
                       for s in sc.shard_result.shards],
            "windows": sc.shard_result.windows,
            "fault_log": list(sc.faults.log),
            "telemetry": _telemetry_fingerprint(sc),
            "overhead": sc.overhead(),
            "traces": traces,
        }

    def test_workers_4_identical_across_runs(self):
        assert self._run() == self._run()

    def test_sharded_chaos_identical_across_runs(self):
        a, b = (chaos_recovery(
            nodes=12, seed=5, duration=30.0,
            configure=lambda sc: sc.with_workers(3, mode="inline"))
            for _ in range(2))
        assert a.trace == b.trace
        assert a.overhead == b.overhead

    def test_processes_mode_identical_across_runs(self):
        def run():
            sc = Scenario(nodes=N, seed=SEED).with_workers(4)
            sc.run(DURATION)
            r = sc.shard_result
            return ([(s.index, s.events_processed, s.conduit_tx,
                      s.conduit_rx) for s in r.shards],
                    r.windows, sc.overhead())
        assert run() == run()


WATCHERS = 2


def _build_shard(spec):
    env = Environment()
    local = list(spec.local_names)
    cluster = build_cluster(env, nodes=len(local), seed=SEED,
                            names=local)
    bus = ShardedBus()
    router = ShardRouter(env, spec.plan, spec.index)
    router.attach(cluster)
    all_names = spec.plan.names
    watcher_set = set(sorted(all_names)[:WATCHERS])
    dprocs = {}
    for name in local:
        cfg = DMonConfig(poll_interval=1.0,
                         metric_subset=frozenset({MetricId.LOADAVG}),
                         subscribe_monitoring=name in watcher_set)
        dprocs[name] = Dproc(cluster[name], bus, cfg, ("cpu",))
        if name in watcher_set:
            for host in all_names:
                dprocs[name].add_cluster_node(host)
    for dproc in dprocs.values():
        dproc.start()
    return ShardWorld(env=env, router=router, bus=bus,
                      cluster=cluster, dprocs=dprocs,
                      harvest=lambda w: {
                          "remote": {n: sorted(d.dmon.remote)
                                     for n, d in w.dprocs.items()
                                     if n in watcher_set}})


class TestInlineEqualsProcesses:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_per_shard_results_identical(self, workers):
        plan = partition_nodes([f"n{i:02d}" for i in range(12)],
                               workers)
        runs = [run_sharded(plan, 8.0, _build_shard,
                            processes=processes)
                for processes in (False, True)]
        fingerprints = [
            [(s.index, s.n_nodes, s.events_processed, s.conduit_tx,
              s.conduit_rx, s.conduit_dropped, s.extra)
             for s in r.shards] for r in runs]
        assert fingerprints[0] == fingerprints[1]
        assert runs[0].windows == runs[1].windows
        assert runs[0].events_processed == runs[1].events_processed

    def test_watchers_see_every_remote_host(self):
        """Cross-shard monitoring actually flows: each watcher's
        d-mon cache covers the whole cluster, not just its shard."""
        names = [f"n{i:02d}" for i in range(12)]
        plan = partition_nodes(names, 3)
        result = run_sharded(plan, 8.0, _build_shard, processes=False)
        remote = {}
        for shard in result.shards:
            remote.update(shard.extra["remote"])
        assert set(remote) == set(sorted(names)[:WATCHERS])
        for watcher, seen in remote.items():
            assert set(seen) == set(names) - {watcher}
