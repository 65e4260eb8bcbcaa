"""LiveRuntime: localhost asyncio node runner behind the Runtime protocol.

Runs N :class:`~repro.live.node.LiveNode` hosts on one asyncio event
loop in one process, each with its own real TCP server socket; a
:class:`~repro.live.registry.RegistryServer` (self-hosted by default,
or an external one via ``registry``) serves the channel directory, so
additional runner processes can join the same cluster by pointing at
the same registry address.

Because socket and task creation are event-loop operations, scenario
construction is *deferred*: callers queue setup callbacks with
:meth:`setup` and then call :meth:`run`, which brings the world up,
executes the callbacks inside the loop, lets wall-clock time pass,
and tears everything down (task cancel, a bounded wait for the frames
already sent between its hosts, d-mon stop, socket close).
The :class:`repro.api.Scenario` facade hides this asymmetry — the same
scenario script drives either backend.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Iterator, Optional, Sequence

from repro.live.bus import LiveBus
from repro.live.clock import AsyncClock
from repro.live.modules import host_module_factory
from repro.live.node import LiveNode
from repro.live.registry import RegistryClient, RegistryServer
from repro.live.transport import BatchConfig, in_flight
from repro.runtime.deployment import default_names
from repro.telemetry import TelemetryRegistry

__all__ = ["LiveRuntime", "LiveNodeGroup"]


class LiveNodeGroup:
    """Satisfies :class:`repro.runtime.protocol.NodeGroup`."""

    def __init__(self, nodes: dict[str, LiveNode]) -> None:
        self._nodes = nodes

    @property
    def names(self) -> list[str]:
        return list(self._nodes)

    def __getitem__(self, name: str) -> LiveNode:
        return self._nodes[name]

    def __iter__(self) -> Iterator[LiveNode]:
        return iter(self._nodes.values())

    def __len__(self) -> int:
        return len(self._nodes)


#: Longest teardown wait, in seconds, for frames already sent between
#: this process's hosts to be read and dispatched.
SETTLE_SECONDS = 0.5

#: The transport counters :meth:`LiveRuntime.wire_stats` totals.
WIRE_COUNTERS = (
    "net.tx_frames", "net.tx_wire_frames", "net.tx_batches",
    "net.tx_batched_frames", "net.tx_wire_bytes",
    "net.backpressure_deferred", "net.backpressure_drops",
    "net.backpressure_pauses", "net.backpressure_resumes")


class LiveRuntime:
    """Real-time localhost backend (one event loop + TCP sockets)."""

    backend = "live"

    #: The live analogue of ``deploy_dproc``'s default module set.
    module_factory = staticmethod(host_module_factory)

    def __init__(self, nodes: int = 4, seed: int = 0,
                 names: Optional[Sequence[str]] = None,
                 registry: Optional[tuple[str, int]] = None,
                 batch: Optional[BatchConfig] = None) -> None:
        if nodes < 1:
            raise ValueError("a live cluster needs at least one node")
        self.clock = AsyncClock()
        host_names = list(names) if names is not None \
            else default_names(nodes)
        if len(host_names) != nodes:
            raise ValueError("names/nodes mismatch")
        self._nodes = {
            name: LiveNode(name, self.clock, seed=seed, index=i)
            for i, name in enumerate(host_names)}
        for node in self._nodes.values():
            node.stack.batch_config = batch
        self.nodes = LiveNodeGroup(self._nodes)
        #: A :class:`repro.live.pool.LivePool` when this runtime is
        #: the parent of a multi-process node pool (set by the
        #: scenario facade before :meth:`run`).
        self.pool = None
        #: Hosts that ran in pool workers → the registry rebuilt from
        #: the counters they shipped at teardown.
        self._remote_registries: dict[str, TelemetryRegistry] = {}
        #: Hosts whose pool worker died before shipping its harvest:
        #: absent from :meth:`registries` and every report built on it.
        self.missing_hosts: tuple = ()
        self._registry_addr = registry
        self._registry_server: Optional[RegistryServer] = None
        self.registry_client = RegistryClient()
        self._bus: Optional[LiveBus] = None
        self._setups: list[Callable[["LiveRuntime"], None]] = []
        self._teardowns: list[Callable[["LiveRuntime"], None]] = []
        #: Auxiliary servers (``async start()/stop()``, e.g. the
        #: metrics scrape endpoint) started once setup completes and
        #: stopped first at teardown.  Register via :meth:`add_server`.
        self.aux_servers: list = []

    # -- the Runtime protocol ----------------------------------------------

    def make_bus(self) -> LiveBus:
        """The process-wide bus (one per runtime; idempotent)."""
        if self._bus is None:
            self._bus = LiveBus()
            self._bus.attach_registry(self.registry_client)
        return self._bus

    bus = property(make_bus)

    def run(self, until: float) -> None:
        """Bring the cluster up, run ``until`` wall seconds, tear down.

        An exception that escaped a spawned task (a d-mon poll loop, a
        module thread) is raised here once teardown has finished.
        """
        asyncio.run(self._main(until))
        if self.clock.error is not None:
            raise self.clock.error

    def registries(self) -> dict[str, TelemetryRegistry]:
        """Host → telemetry registry: this process's nodes, then
        (once the run is over) every pool worker's hosts."""
        local = {node.name: node.telemetry for node in self.nodes}
        return {**local, **self._remote_registries}

    def wire_stats(self) -> dict:
        """Pool-wide transport counters (frames, batches, drops)."""
        registries = self.registries().values()
        return {name: sum(r.value(name) for r in registries)
                for name in WIRE_COUNTERS}

    # -- scenario hooks ----------------------------------------------------

    def setup(self, fn: Callable[["LiveRuntime"], None]) -> None:
        """Queue ``fn(runtime)`` to run once the event loop is up."""
        self._setups.append(fn)

    def on_teardown(self, fn: Callable[["LiveRuntime"], None]) -> None:
        """Queue ``fn(runtime)`` to run just before teardown."""
        self._teardowns.append(fn)

    def add_server(self, server) -> None:
        """Attach an aux server for the runtime's lifetime.

        ``server`` needs ``async start()`` and ``async stop()``; it is
        brought up after the setup callbacks (sockets exist, dprocs
        run) and taken down before the node stacks close.
        """
        self.aux_servers.append(server)

    # -- the run loop ------------------------------------------------------

    async def _main(self, until: float) -> None:
        self.clock.start()
        registry_addr = self._registry_addr
        if registry_addr is None:
            self._registry_server = RegistryServer()
            registry_addr = await self._registry_server.start()
        await self.registry_client.connect(registry_addr)
        client = self.registry_client
        try:
            for node in self._nodes.values():
                address = await node.stack.start()
                node.stack.resolve = client.host_address
                client.register_host(node.name, address)
            if self.pool is not None:
                # Fork the worker processes early, then wait for every
                # worker's dprocs before parent-side setup hooks run
                # (control writes must never race worker startup).
                self.pool.start(registry_addr, until)
                await self.pool.wait_ready()
            self.make_bus()
            for fn in self._setups:
                fn(self)
            for server in self.aux_servers:
                await server.start()
            # Let real time pass; sockets and pollers do the work.
            remaining = until - self.clock.now
            if remaining > 0:
                await asyncio.sleep(remaining)
        finally:
            if self.pool is not None:
                # Workers harvest at their own teardown; the registry
                # must stay up until they are gone.
                harvest, self.missing_hosts = await self.pool.collect()
                self._remote_registries = {
                    host: TelemetryRegistry.from_counters(host, counters)
                    for host, counters in harvest.items()}
            await self._teardown()

    async def _teardown(self) -> None:
        for server in self.aux_servers:
            await server.stop()
        for fn in self._teardowns:
            fn(self)
        # Quiesce before anything closes: no poll publishes once the
        # tasks are cancelled, and a frame already queued or on a
        # socket between two of our hosts gets a bounded time to be
        # read and dispatched.  Closing a receiver in the same turn as
        # its publisher loses the publisher's last frame.
        self.clock.cancel_all()
        stacks = [node.stack for node in self._nodes.values()]
        for stack in stacks:
            stack.flush()
        deadline = self.clock.now + SETTLE_SECONDS
        while in_flight(stacks) and self.clock.now < deadline:
            await asyncio.sleep(0.001)
        for node in self._nodes.values():
            dproc = node.services.get("dproc")
            if dproc is not None:
                dproc.stop()
        # Whatever a frame dispatched while settling started.
        self.clock.cancel_all()
        for node in self._nodes.values():
            await node.stack.stop()
        await self.registry_client.close()
        if self._registry_server is not None:
            await self._registry_server.stop()
            self._registry_server = None
