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
  (:class:`MergedNodeGroup`, :class:`ShardedFaultInjector`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.errors import FaultInjectionError, ShardError
from repro.runtime.protocol import NodeGroup

__all__ = ["ShardedRuntime", "MergedNodeGroup", "ShardedFaultInjector"]


@dataclass(frozen=True)
class _ShardDeployment:
    """Scenario configuration one shard needs to build its world."""

    seed: int
    dmon: Any
    modules: tuple
    #: Every host, in global (pre-partition) order.
    names: tuple
    #: Hosts running dproc, global order (None resolved upstream).
    monitored: tuple
    node_config: Any
    #: Per-host hardware overrides (name → config), or None.
    node_configs: Optional[dict]


def _build_scenario_shard(spec):
    """Build one shard's world for a Scenario deployment.

    Runs inside the worker (or inline); mirrors the plain
    ``SimRuntime`` + ``deploy_dproc`` construction, restricted to the
    shard's hosts.  Per-node RNG streams are keyed by node name, so a
    sub-cluster's nodes draw exactly the streams they would in the
    full cluster.
    """
    from repro.dproc.toolkit import deploy_dproc
    from repro.sim.cluster import build_cluster
    from repro.sim.core import Environment
    from repro.sim.shard import ShardedBus, ShardRouter, ShardWorld
    from repro.telemetry import overhead_summary

    d: _ShardDeployment = spec.payload
    local = list(spec.local_names)
    env = Environment()
    node_configs = ([d.node_configs.get(name, d.node_config)
                     for name in local]
                    if d.node_configs is not None else None)
    cluster = build_cluster(env, nodes=len(local), seed=d.seed,
                            names=local, config=d.node_config,
                            node_configs=node_configs)
    bus = ShardedBus()
    router = ShardRouter(env, spec.plan, spec.index)
    router.attach(cluster)
    monitored = set(d.monitored)
    local_monitored = [n for n in local if n in monitored]
    dprocs = deploy_dproc(cluster, config=d.dmon, modules=d.modules,
                          bus=bus, hosts=local_monitored,
                          roster=d.monitored)

    duration = spec.duration

    def harvest(world):
        return {"overhead": overhead_summary(
            {node.name: node.telemetry for node in world.cluster},
            sim_seconds=duration)}

    return ShardWorld(env=env, router=router, bus=bus,
                      cluster=cluster, dprocs=dprocs, harvest=harvest)


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


class ShardedFaultInjector:
    """Fault injection spanning shard worlds (inline mode).

    The plain :class:`~repro.sim.faults.FaultInjector` owns one
    fabric's fault plane; here every shard keeps its own plane and
    each scheduled action is applied *per shard when that shard's
    clock reaches the fault time* — zero cross-shard skew, because
    plane rules are host-name-based and identical everywhere.  Crash
    and reboot handlers run once, in the crashed host's owning shard.
    The action log matches the plain injector's format.
    """

    def __init__(self, plan, worlds) -> None:
        from repro.sim.faults import FaultPlane
        self._plan = plan
        self._worlds = list(worlds)
        self._envs = [w.env for w in self._worlds]
        self._planes = []
        for world in self._worlds:
            plane = FaultPlane()
            world.cluster.fabric.faults = plane
            self._planes.append(plane)
        self._hosts = set(plan.names)
        self.log: list[tuple[float, str]] = []
        self._crash_handlers: list[Callable[[str], None]] = []
        self._reboot_handlers: list[Callable[[str], None]] = []

    # -- handler registration ---------------------------------------------

    def on_crash(self, handler: Callable[[str], None]) -> None:
        self._crash_handlers.append(handler)

    def on_reboot(self, handler: Callable[[str], None]) -> None:
        self._reboot_handlers.append(handler)

    # -- immediate faults --------------------------------------------------

    def set_message_loss(self, p: float, src: Optional[str] = None,
                         dst: Optional[str] = None) -> None:
        for plane in self._planes:
            plane.set_loss(p, src, dst)
        scope = "all links" if src is None and dst is None \
            else f"{src}->{dst}"
        self._log(f"loss {p:g} on {scope}")

    def set_link_loss(self, link_name: str, p: float) -> None:
        for plane in self._planes:
            plane.set_link_loss(link_name, p)
        self._log(f"loss {p:g} on link {link_name}")

    def clear_message_loss(self) -> None:
        for plane in self._planes:
            plane.clear_loss()
        self._log("loss cleared")

    def set_stall(self, seconds: float, src: Optional[str] = None,
                  dst: Optional[str] = None) -> None:
        for plane in self._planes:
            plane.set_stall(seconds, src, dst)
        scope = "all links" if src is None and dst is None \
            else f"{src}->{dst}"
        self._log(f"stall {seconds:g}s on {scope}")

    def partition(self, *groups) -> None:
        frozen = [tuple(g) for g in groups]
        for group in frozen:
            for host in group:
                if host not in self._hosts:
                    raise FaultInjectionError(
                        f"unknown host {host!r} in partition group")
        for plane in self._planes:
            plane.set_partition(frozen)
        self._log("partition " + " | ".join(
            ",".join(g) for g in frozen))

    def heal(self) -> None:
        for plane in self._planes:
            plane.heal_partition()
        self._log("partition healed")

    def crash(self, host: str) -> None:
        self._check_host(host)
        for plane in self._planes:
            plane.mark_down(host)
        self._log(f"crash {host}")
        for handler in self._crash_handlers:
            handler(host)

    def reboot(self, host: str) -> None:
        self._check_host(host)
        for plane in self._planes:
            plane.mark_up(host)
        self._log(f"reboot {host}")
        for handler in self._reboot_handlers:
            handler(host)

    # -- scheduled faults --------------------------------------------------

    def at(self, when: float, action: Callable[[], None]) -> None:
        """Run a global ``action`` at ``when`` (scheduled in shard 0).

        For plane mutations prefer the ``schedule_*`` helpers, which
        apply per shard at each shard's local clock; a global action
        from shard 0's timer reaches other shards with up to one
        window of skew.
        """
        self._at_in(0, when, action)

    def schedule_loss(self, at: float, p: float,
                      src: Optional[str] = None,
                      dst: Optional[str] = None,
                      until: Optional[float] = None) -> None:
        scope = "all links" if src is None and dst is None \
            else f"{src}->{dst}"
        self._each_at(at, lambda plane: plane.set_loss(p, src, dst),
                      log=f"loss {p:g} on {scope}")
        if until is not None:
            if until <= at:
                raise FaultInjectionError(
                    "loss end time must be after its start")
            self._each_at(until,
                          lambda plane: plane.set_loss(0.0, src, dst),
                          log=f"loss 0 on {scope}")

    def schedule_partition(self, at: float, groups,
                           heal_at: Optional[float] = None) -> None:
        frozen = [tuple(g) for g in groups]
        for group in frozen:
            for host in group:
                if host not in self._hosts:
                    raise FaultInjectionError(
                        f"unknown host {host!r} in partition group")
        self._each_at(at,
                      lambda plane: plane.set_partition(frozen),
                      log="partition " + " | ".join(
                          ",".join(g) for g in frozen))
        if heal_at is not None:
            if heal_at <= at:
                raise FaultInjectionError(
                    "heal time must be after the partition time")
            self._each_at(heal_at,
                          lambda plane: plane.heal_partition(),
                          log="partition healed")

    def schedule_crash(self, at: float, host: str,
                       reboot_at: Optional[float] = None) -> None:
        self._check_host(host)
        owner = self._plan.shard_of(host)
        self._each_at(at, lambda plane: plane.mark_down(host),
                      log=f"crash {host}")
        self._at_in(owner, at, lambda: [h(host) for h in
                                        self._crash_handlers])
        if reboot_at is not None:
            if reboot_at <= at:
                raise FaultInjectionError(
                    "reboot time must be after the crash time")
            self._each_at(reboot_at,
                          lambda plane: plane.mark_up(host),
                          log=f"reboot {host}")
            self._at_in(owner, reboot_at,
                        lambda: [h(host) for h in
                                 self._reboot_handlers])

    # -- internals ---------------------------------------------------------

    def _check_host(self, host: str) -> None:
        if host not in self._hosts:
            raise FaultInjectionError(f"unknown host {host!r}")

    def _log(self, text: str) -> None:
        self.log.append((self._envs[0].now, text))

    def _at_in(self, shard: int, when: float,
               action: Callable[[], None]) -> None:
        env = self._envs[shard]
        delay = when - env.now
        if delay < 0:
            raise FaultInjectionError(
                f"cannot schedule a fault at {when} (now is "
                f"{env.now})")
        timer = env.timeout(delay)
        timer.add_callback(lambda _ev: action())

    def _each_at(self, when: float, apply, log: str) -> None:
        """Apply a plane mutation in every shard at its local ``when``."""
        for i, (env, plane) in enumerate(zip(self._envs,
                                             self._planes)):
            delay = when - env.now
            if delay < 0:
                raise FaultInjectionError(
                    f"cannot schedule a fault at {when} (now is "
                    f"{env.now})")
            timer = env.timeout(delay)
            if i == 0:
                timer.add_callback(
                    lambda _ev, p=plane: (apply(p),
                                          self.log.append(
                                              (self._envs[0].now,
                                               log))))
            else:
                timer.add_callback(lambda _ev, p=plane: apply(p))


class ShardedRuntime:
    """Scenario deployments over the sharded kernel (sim only)."""

    backend = "sim"
    module_factory = None

    def __init__(self, *, plan, deployment: _ShardDeployment,
                 processes: bool = True) -> None:
        self.plan = plan
        self.deployment = deployment
        self.processes = processes
        #: Populated by :meth:`run` (and, inline, :meth:`build_worlds`).
        self.result = None
        self.worlds = None
        self._merged: Optional[MergedNodeGroup] = None

    # -- inline construction ----------------------------------------------

    def build_worlds(self, duration: float) -> None:
        """Build every shard world in-process (inline mode)."""
        from repro.sim.shard import ShardSpec
        if self.processes:
            raise ShardError(
                "build_worlds is inline-only; process workers build "
                "inside their fork")
        self.worlds = [
            _build_scenario_shard(ShardSpec(
                plan=self.plan, index=i, duration=float(duration),
                payload=self.deployment))
            for i in range(self.plan.n_shards)]
        self._merged = MergedNodeGroup(self.deployment.names,
                                       self.worlds)

    @property
    def clock(self):
        if self.worlds is None:
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

    @property
    def dprocs(self) -> dict:
        """Merged host → Dproc map (inline mode)."""
        if self.worlds is None:
            raise ShardError(
                "dprocs live inside worker processes; run with "
                "workers mode 'inline' for an in-process view")
        merged = {}
        for world in self.worlds:
            merged.update(world.dprocs or {})
        return {name: merged[name] for name in self.deployment.names
                if name in merged}

    def make_bus(self):
        raise ShardError("sharded runtimes own one bus per shard; "
                         "deployment is wired internally")

    # -- execution ---------------------------------------------------------

    def run(self, duration: float):
        """One-shot sharded run for ``duration`` simulated seconds."""
        from repro.sim.shard import run_sharded
        if self.result is not None:
            raise ShardError("a sharded runtime runs exactly once")
        n = self.plan.n_shards
        self.result = run_sharded(
            self.plan, duration, _build_scenario_shard,
            payloads=[self.deployment] * n,
            processes=self.processes,
            worlds=self.worlds)
        return self.result

    def overhead(self) -> dict:
        """Cluster-wide monitoring-overhead summary (merged shards)."""
        from repro.telemetry import merge_overhead_summaries
        if self.result is None:
            raise ShardError("no sharded run has completed yet")
        return merge_overhead_summaries(
            [s.extra["overhead"] for s in self.result.shards
             if s.extra and "overhead" in s.extra])

    def shutdown(self) -> None:
        """Workers are joined by ``run``; nothing is held open."""
