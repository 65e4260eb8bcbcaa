"""The sharded simulator packaged behind the Runtime surface.

:class:`ShardedRuntime` runs a :class:`repro.api.Scenario` deployment
partitioned across shard workers (see :mod:`repro.sim.shard`).  The
dproc/KECho/procfs layers are untouched: each worker builds a perfectly
ordinary per-shard cluster — the only sharding-aware pieces are the
:class:`~repro.sim.shard.ShardedBus` (merged subscriber views) and the
stacks' conduit router.

Two modes, chosen by the Scenario's ``with_workers`` call:

* ``processes`` — one forked worker per shard, genuinely parallel.
  The deployment must be hook-free (hooks close over parent state that
  a forked child cannot share back).
* ``inline`` — every shard world lives in the calling process, run
  round-robin per window.  Scenario hooks, fault schedules, tracing
  and observers all work, operating on a merged global view
  (:class:`MergedNodeGroup`; the one
  :class:`~repro.sim.faults.FaultInjector` over every shard's cluster).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ShardError
from repro.runtime.deployment import Deployment
from repro.runtime.protocol import NodeGroup

__all__ = ["ShardedRuntime", "MergedNodeGroup"]


def _build_world(plan, index: int, d: Deployment):
    """Build one shard's world, nothing deployed on it yet.

    Mirrors the plain ``SimRuntime`` construction, restricted to the
    shard's hosts.  Per-node RNG streams are keyed by node name, so a
    sub-cluster's nodes draw exactly the streams they would in the
    full cluster.
    """
    from repro.sim.cluster import build_cluster
    from repro.sim.core import Environment
    from repro.sim.shard import ShardedBus, ShardRouter, ShardWorld

    local = list(plan.shards[index])
    env = Environment()
    node_configs = ([d.node_configs.get(name, d.node_config)
                     for name in local]
                    if d.node_configs is not None else None)
    cluster = build_cluster(env, nodes=len(local), seed=d.seed,
                            names=local, config=d.node_config,
                            node_configs=node_configs)
    router = ShardRouter(env, plan, index)
    router.attach(cluster)
    return ShardWorld(env=env, router=router, bus=ShardedBus(),
                      cluster=cluster)


def _ship_counters(world) -> dict:
    """A worker's harvest: every local host's counter totals."""
    return {"counters": {node.name: node.telemetry.counters()
                         for node in world.cluster}}


def _build_deployed_world(spec):
    """A forked worker's builder: the world, deployed, shipping home."""
    world = _build_world(spec.plan, spec.index, spec.payload)
    world.dprocs = spec.payload.deploy(world.cluster, world.bus)
    world.harvest = _ship_counters
    return world


class MergedNodeGroup:
    """Global node view over in-process shard worlds (inline mode)."""

    def __init__(self, names: Sequence[str], worlds) -> None:
        nodes = {}
        for world in worlds:
            for node in world.cluster:
                nodes[node.name] = node
        #: Global order, not shard order.
        self._nodes = {name: nodes[name] for name in names}

    @property
    def names(self) -> list[str]:
        return list(self._nodes)

    def __getitem__(self, name: str):
        try:
            return self._nodes[name]
        except KeyError:
            raise ShardError(f"no node named {name!r}") from None

    def __iter__(self):
        return iter(self._nodes.values())

    def __len__(self) -> int:
        return len(self._nodes)


class ShardedRuntime:
    """Scenario deployments over the sharded kernel (sim only)."""

    backend = "sim"
    module_factory = None

    def __init__(self, *, plan, deployment: Deployment,
                 processes: bool = True) -> None:
        self.plan = plan
        self.deployment = deployment
        self.processes = processes
        #: Populated by :meth:`run`.
        self.result = None
        #: The in-process shard worlds, built bare — the scenario
        #: deploys into each, like into any world; none when the
        #: shards build (and deploy) inside forked workers.
        self.worlds = () if processes else tuple(
            _build_world(plan, i, deployment)
            for i in range(plan.n_shards))
        self._merged = None if processes else MergedNodeGroup(
            deployment.names, self.worlds)

    @property
    def clock(self):
        if not self.worlds:
            raise ShardError(
                "process-mode sharded runtimes have no global clock")
        return self.worlds[0].env

    @property
    def env(self):
        """Shard 0's environment — where inline observers schedule."""
        return self.clock

    @property
    def nodes(self) -> NodeGroup:
        if self._merged is None:
            raise ShardError(
                "nodes live inside worker processes; run with "
                "workers mode 'inline' for an in-process view")
        return self._merged

    def make_bus(self):
        raise ShardError("sharded runtimes own one bus per shard; "
                         "see worlds")

    def registries(self) -> dict:
        """Host → telemetry registry, in global host order.

        Inline, the nodes' own registries; in process mode, rebuilt
        from the counters each worker shipped with its result.
        """
        if self._merged is not None:
            return {node.name: node.telemetry for node in self._merged}
        if self.result is None:
            raise ShardError("no sharded run has completed yet")
        return self._shipped

    # -- execution ---------------------------------------------------------

    def run(self, duration: float):
        """One-shot sharded run for ``duration`` simulated seconds."""
        from repro.sim.shard import run_sharded
        if self.result is not None:
            raise ShardError("a sharded runtime runs exactly once")
        n = self.plan.n_shards
        self.result = run_sharded(
            self.plan, duration, _build_deployed_world,
            payloads=[self.deployment] * n,
            processes=self.processes,
            worlds=list(self.worlds) or None)
        if self._merged is None:
            from repro.telemetry import TelemetryRegistry
            shipped = {}
            for shard in self.result.shards:
                shipped.update(shard.extra["counters"])
            self._shipped = {
                name: TelemetryRegistry.from_counters(name, shipped[name])
                for name in self.deployment.names}
        return self.result

    def shutdown(self) -> None:
        """Workers are joined by ``run``; nothing is held open."""
