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

from typing import Callable, Optional, Sequence

from repro.errors import FaultInjectionError, ShardError
from repro.runtime.deployment import Deployment
from repro.runtime.protocol import NodeGroup

__all__ = ["ShardedRuntime", "MergedNodeGroup", "ShardedFaultInjector"]


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


def _scope(src: Optional[str], dst: Optional[str]) -> str:
    """How the fault log names the links a rule covers."""
    return "all links" if src is None and dst is None \
        else f"{src}->{dst}"


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
        self._envs = [w.env for w in worlds]
        self._planes = []
        for world in worlds:
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
        self._log(f"loss {p:g} on {_scope(src, dst)}")

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
        self._log(f"stall {seconds:g}s on {_scope(src, dst)}")

    def partition(self, *groups) -> None:
        frozen = self._frozen_groups(groups)
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
        scope = _scope(src, dst)
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
        frozen = self._frozen_groups(groups)
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

    def _frozen_groups(self, groups) -> list[tuple]:
        frozen = [tuple(g) for g in groups]
        for group in frozen:
            for host in group:
                if host not in self._hosts:
                    raise FaultInjectionError(
                        f"unknown host {host!r} in partition group")
        return frozen

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
        """Apply a plane mutation in every shard at its local ``when``
        (logged once, by shard 0)."""
        for i, plane in enumerate(self._planes):
            self._at_in(i, when,
                        (lambda p=plane: (apply(p), self._log(log)))
                        if i == 0 else (lambda p=plane: apply(p)))


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

    def fault_injector(self) -> "ShardedFaultInjector":
        return ShardedFaultInjector(self.plan, self.worlds)

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
