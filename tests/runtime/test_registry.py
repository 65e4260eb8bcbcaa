"""The live channel registry over a real socket.

Clients share one directory of two facts — host addresses and
per-channel subscribers — and the server keeps it consistent as
clients sync, vanish and send it garbage.
"""

from __future__ import annotations

import asyncio

from repro.live.bus import LiveBus
from repro.live.clock import AsyncClock
from repro.live.node import LiveNode
from repro.live.registry import RegistryClient, RegistryServer


async def _until(check, timeout: float = 5.0) -> bool:
    """Poll ``check()`` until it holds or ``timeout`` seconds pass."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not check():
        if asyncio.get_running_loop().time() > deadline:
            return False
        await asyncio.sleep(0.01)
    return True


async def _clients(n: int):
    server = RegistryServer()
    address = await server.start()
    clients = [RegistryClient() for _ in range(n)]
    for client in clients:
        await client.connect(address)
    return server, address, clients


async def _stop(server: RegistryServer, *clients: RegistryClient) -> None:
    for client in clients:
        await client.close()
    await server.stop()


class TestDirectory:
    def test_two_clients_see_each_others_hosts_and_subscribers(self):
        async def run():
            server, _, (a, b) = await _clients(2)
            a.register_host("alan", ("127.0.0.1", 4000))
            a.set_subscribers({"x": ["alan"]})
            b.register_host("maui", ("127.0.0.1", 4001))
            b.set_subscribers({"x": ["maui"], "y": ["maui"]})
            seen = await _until(lambda: (
                a.host_address("maui") == ("127.0.0.1", 4001)
                and b.host_address("alan") == ("127.0.0.1", 4000)
                and sorted(a.subscribers("x")) == ["alan", "maui"]
                and b.subscribers("y") == ["maui"]))
            await _stop(server, a, b)
            return seen
        assert asyncio.run(run())

    def test_a_departed_client_takes_its_entries_with_it(self):
        async def run():
            server, _, (a, b) = await _clients(2)
            a.register_host("alan", ("127.0.0.1", 4000))
            a.set_subscribers({"x": ["alan"]})
            b.register_host("maui", ("127.0.0.1", 4001))
            joined = await _until(
                lambda: b.subscribers("x") == ["alan"]
                and b.host_address("alan") is not None)
            await a.close()
            left = await _until(
                lambda: b.subscribers("x") == []
                and b.host_address("alan") is None)
            await _stop(server, b)
            return joined, left, b.host_address("maui")
        assert asyncio.run(run()) == (True, True, ("127.0.0.1", 4001))

    def test_a_malformed_line_is_skipped_and_the_next_sync_served(self):
        async def run():
            server, address, (b,) = await _clients(1)
            reader, writer = await asyncio.open_connection(*address)
            writer.write(b'{"op": "sync", "hosts": \n')
            writer.write(b'{"op": "sync", "hosts": {"etna": '
                         b'["127.0.0.1", 4002]}, '
                         b'"subscribers": {"x": ["etna"]}}\n')
            seen = await _until(
                lambda: b.host_address("etna") == ("127.0.0.1", 4002)
                and b.subscribers("x") == ["etna"])
            writer.close()
            await _stop(server, b)
            return seen
        assert asyncio.run(run())


class TestLiveBusDirectory:
    def test_a_closed_channel_leaves_every_other_process(self):
        """The last endpoint of a channel in one process closes: the
        other process stops fanning out to that process's host."""
        async def run():
            clock = AsyncClock()
            clock.start()
            server, _, (client_a, client_b) = await _clients(2)
            buses = []
            for client in (client_a, client_b):
                bus = LiveBus()
                bus.attach_registry(client)
                buses.append(bus)
            alan = LiveNode("alan", clock, index=0)
            maui = LiveNode("maui", clock, index=1)
            buses[1].connect(maui, "x")
            endpoint = buses[0].connect(alan, "x")
            endpoint.subscribe(lambda event, trace: None)
            before = await _until(
                lambda: buses[1].remote_subscribers("x", "maui")
                == ["alan"])
            endpoint.close()
            await _until(
                lambda: buses[1].remote_subscribers("x", "maui") == [])
            after = buses[1].remote_subscribers("x", "maui")
            for node in (alan, maui):
                await node.stack.stop()
            await _stop(server, client_a, client_b)
            return before, after
        assert asyncio.run(run()) == (True, [])


class _StubDirectory:
    """A registry client with no socket: counts directory reads."""

    def __init__(self) -> None:
        self.directory: dict[str, list[str]] = {}
        self.on_change = None
        self.reads = 0

    def set_subscribers(self, subscribers: dict[str, list[str]]) -> None:
        pass

    def subscribers(self, name: str) -> list[str]:
        self.reads += 1
        return self.directory.get(name, [])


class TestLiveBusSubscriberCache:
    def test_merged_list_is_built_once_per_version(self):
        """Submits between two directory changes reuse one merged
        list; a remote change shows on the very next lookup."""
        directory = _StubDirectory()
        bus = LiveBus()
        bus.attach_registry(directory)
        directory.directory["x"] = ["maui"]
        directory.on_change()
        for _ in range(50):
            assert bus.remote_subscribers("x", "alan") == ["maui"]
        assert directory.reads == 1
        directory.directory["x"] = ["maui", "etna"]
        directory.on_change()
        assert bus.remote_subscribers("x", "alan") == ["maui", "etna"]
        assert directory.reads == 2
