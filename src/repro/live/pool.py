"""Multi-process live node pools: hundreds of real nodes on one box.

The parent :class:`~repro.live.runtime.LiveRuntime` owns the registry
server and the first slice of hosts; each worker process runs its own
asyncio event loop with a :class:`LiveRuntime` over its slice, joined
to the cluster through the shared registry, and deploys its share of
the scenario's picklable
:class:`~repro.runtime.deployment.Deployment`.  Workers report a
``ready`` handshake once their dprocs run (so parent-side setup hooks
— control-file writes, observers — never race worker
startup) and ship a ``harvest`` (every local host's counter totals) at
teardown, which the parent folds into the run's host → registry
mapping; a worker that died before its harvest has its hosts reported
as missing.

Subscription fan-in is bounded by ``deployment.watchers``: only those
hosts subscribe to the monitoring channel, so a 200-node pool opens
O(nodes × watchers) sockets instead of O(nodes²).
"""

from __future__ import annotations

import multiprocessing
from typing import Sequence

from repro.runtime.deployment import Deployment

__all__ = ["LivePool"]

#: Seconds the parent waits for each worker's ready/harvest message.
READY_TIMEOUT = 30.0
HARVEST_TIMEOUT = 30.0


def _worker_main(names: list[str], deployment: Deployment,
                 registry_addr: tuple[str, int], duration: float,
                 conn) -> None:
    """Worker process entry: one LiveRuntime over one host slice."""
    from repro.live.runtime import LiveRuntime

    runtime = LiveRuntime(
        nodes=len(names), seed=deployment.seed, names=names,
        registry=registry_addr, batch=deployment.batch)

    def deploy(rt: LiveRuntime) -> None:
        deployment.deploy(rt.nodes, rt.bus, rt.module_factory)
        conn.send(("ready", list(names)))

    runtime.setup(deploy)
    runtime.on_teardown(
        lambda rt: conn.send(("harvest", {
            host: registry.counters()
            for host, registry in rt.registries().items()})))
    try:
        runtime.run(duration)
    finally:
        conn.close()


class LivePool:
    """Worker-process manager owned by the parent LiveRuntime."""

    def __init__(self, slices: Sequence[Sequence[str]],
                 deployment: Deployment) -> None:
        self.slices = [list(s) for s in slices]
        self.deployment = deployment
        self._procs: list[multiprocessing.Process] = []
        self._pipes: list = []

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
                      ) -> tuple[dict, tuple]:
        """Account for every slice, then join the workers: the
        harvests as one host → counters mapping, and the hosts of
        every worker that sent none (it died or hung)."""
        import asyncio
        loop = asyncio.get_event_loop()
        harvest: dict = {}
        missing: list[str] = []
        for names, pipe in zip(self.slices, self._pipes):
            try:
                harvest.update(await loop.run_in_executor(
                    None, self._recv, pipe, "harvest", timeout))
            except (TimeoutError, EOFError, OSError):
                missing.extend(names)

        def _join() -> None:
            for proc in self._procs:
                proc.join(timeout=timeout)
                if proc.is_alive():  # pragma: no cover - hung worker
                    proc.terminate()
                    proc.join(timeout=5.0)
        await loop.run_in_executor(None, _join)
        return harvest, tuple(missing)
