"""Multi-process live node pools: hundreds of real nodes on one box.

Mirrors the PR 6 shard design for the live backend: the parent
:class:`~repro.live.runtime.LiveRuntime` owns the registry server and
the first slice of hosts; each worker process runs its own asyncio
event loop (optionally uvloop) with a :class:`LiveRuntime` over its
slice, joined to the cluster through the shared registry, and deploys
dproc from a picklable :class:`PoolDeployment`.  Workers report a
``ready`` handshake once their dprocs run (so parent-side setup hooks
— control-file writes, experiment engines — never race worker
startup) and a ``harvest`` (overhead summary + wire counters) at
teardown, which the parent merges into the cluster-wide report.

Subscription fan-in is bounded by ``deployment.watchers``: only those
hosts subscribe to the monitoring channel, so a 200-node pool opens
O(nodes × watchers) sockets instead of O(nodes²).
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.dproc.dmon import DMonConfig
from repro.live.transport import BatchConfig, FlowConfig

__all__ = ["PoolDeployment", "LivePool", "partition_hosts",
           "pool_harvest", "watcher_config_fn"]

#: Seconds the parent waits for each worker's ready/harvest message.
READY_TIMEOUT = 30.0
HARVEST_TIMEOUT = 30.0


@dataclass(frozen=True)
class PoolDeployment:
    """Picklable instructions for one worker process."""

    seed: int
    dmon: Optional[DMonConfig]
    modules: tuple[str, ...]
    #: Every host in the cluster (all processes), deployment order.
    all_names: tuple[str, ...]
    #: Hosts that run a dproc (publish monitoring data).
    monitored: tuple[str, ...]
    #: Hosts that subscribe to the monitoring channel (None = all).
    watchers: Optional[tuple[str, ...]] = None
    batch: Optional[BatchConfig] = None
    flow: Optional[FlowConfig] = None
    use_uvloop: bool = False


def partition_hosts(names: Sequence[str],
                    workers: int) -> list[list[str]]:
    """Contiguous host slices, one per process (parent gets slice 0).

    Contiguous (not round-robin) so ``nodes.names[:2]`` — the hosts
    harness scripts poke from setup hooks — stay on the parent.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    workers = min(workers, len(names))
    base, extra = divmod(len(names), workers)
    slices, start = [], 0
    for i in range(workers):
        size = base + (1 if i < extra else 0)
        slices.append(list(names[start:start + size]))
        start += size
    return slices


def watcher_config_fn(config: Optional[DMonConfig],
                      watchers: Optional[Sequence[str]]):
    """Per-host DMonConfig: only ``watchers`` subscribe to monitoring."""
    base = config if config is not None else DMonConfig()
    if watchers is None:
        return lambda host: base
    watcher_set = frozenset(watchers)
    quiet = replace(base, subscribe_monitoring=False)
    return lambda host: base if host in watcher_set else quiet


def pool_harvest(runtime, duration: float) -> dict:
    """One process's contribution to the cluster-wide report."""
    from repro.telemetry import overhead_summary
    registries = {node.name: node.telemetry for node in runtime.nodes}
    wire = {}
    for name in ("net.tx_frames", "net.tx_wire_frames",
                 "net.tx_batches", "net.tx_batched_frames",
                 "net.tx_wire_bytes", "net.backpressure_deferred",
                 "net.backpressure_drops", "net.backpressure_pauses",
                 "net.backpressure_resumes"):
        wire[name] = sum(r.value(name) for r in registries.values())
    return {"overhead": overhead_summary(registries,
                                         sim_seconds=duration),
            "wire": wire}


def _worker_main(names: list[str], deployment: PoolDeployment,
                 registry_addr: tuple[str, int], duration: float,
                 conn) -> None:
    """Worker process entry: one LiveRuntime over one host slice."""
    from repro.dproc.toolkit import deploy_dproc
    from repro.live.modules import host_module_factory
    from repro.live.runtime import LiveRuntime

    runtime = LiveRuntime(
        nodes=len(names), seed=deployment.seed, names=names,
        registry=registry_addr, batch=deployment.batch,
        flow=deployment.flow, use_uvloop=deployment.use_uvloop)

    def deploy(rt: LiveRuntime) -> None:
        bus = rt.make_bus()
        mine = set(names)
        local = [n for n in deployment.monitored if n in mine]
        deploy_dproc(
            rt.nodes, config=deployment.dmon,
            modules=deployment.modules, bus=bus, hosts=local,
            module_factory=host_module_factory,
            config_fn=watcher_config_fn(deployment.dmon,
                                        deployment.watchers),
            roster=deployment.all_names)
        conn.send(("ready", list(names)))

    runtime.setup(deploy)
    runtime.on_teardown(
        lambda rt: conn.send(("harvest",
                              pool_harvest(rt, duration))))
    try:
        runtime.run(duration)
    finally:
        conn.close()


class LivePool:
    """Worker-process manager owned by the parent LiveRuntime."""

    def __init__(self, slices: Sequence[Sequence[str]],
                 deployment: PoolDeployment) -> None:
        self.slices = [list(s) for s in slices]
        self.deployment = deployment
        self._procs: list[multiprocessing.Process] = []
        self._pipes: list = []
        self.harvests: list[dict] = []

    @property
    def host_names(self) -> list[str]:
        return [name for s in self.slices for name in s]

    def start(self, registry_addr: tuple[str, int],
              duration: float) -> None:
        ctx = multiprocessing.get_context("fork")
        for names in self.slices:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(names, self.deployment, registry_addr,
                      duration, child_conn),
                daemon=True)
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._pipes.append(parent_conn)

    def _recv(self, pipe, kind: str, timeout: float):
        while pipe.poll(timeout):
            msg = pipe.recv()
            if msg[0] == kind:
                return msg[1]
        raise TimeoutError(f"pool worker sent no {kind!r} message")

    async def wait_ready(self, timeout: float = READY_TIMEOUT) -> None:
        """Wait until every worker has deployed its dprocs.

        Runs the blocking pipe reads on executor threads: the parent's
        event loop must stay live — it serves the registry the workers
        are joining through.
        """
        import asyncio
        loop = asyncio.get_event_loop()
        for pipe in self._pipes:
            await loop.run_in_executor(None, self._recv, pipe,
                                       "ready", timeout)

    async def collect(self, timeout: float = HARVEST_TIMEOUT
                      ) -> list[dict]:
        """Harvest every worker's overhead/wire report and join it."""
        import asyncio
        loop = asyncio.get_event_loop()
        for pipe in self._pipes:
            try:
                self.harvests.append(await loop.run_in_executor(
                    None, self._recv, pipe, "harvest", timeout))
            except (TimeoutError, EOFError, OSError):
                self.harvests.append({})

        def _join() -> None:
            for proc in self._procs:
                proc.join(timeout=timeout)
                if proc.is_alive():  # pragma: no cover - hung worker
                    proc.terminate()
                    proc.join(timeout=5.0)
        await loop.run_in_executor(None, _join)
        return self.harvests
