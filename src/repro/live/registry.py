"""The live channel registry: a directory server on a real socket.

Mirrors the paper's "user-level channel directory server".  Each
process creates and finds its channels in its own bus's endpoint map
(:class:`repro.kecho.channel.KechoBus`), as the simulator does; across
processes the server shares what a publisher needs to dial its
subscribers directly.  Events never pass through the registry — it is
control-plane only.

Protocol: JSON lines over TCP, carrying the two facts a process
reads — where each host listens and who subscribes to each channel.
Clients send::

    {"op": "sync", "hosts": {host: [ip, port]},
     "subscribers": {channel: [host, ...]}}

and the server replies to everyone with the merged directory::

    {"op": "state", "hosts": {...}, "subscribers": {...}}

A client's ``sync`` replaces that client's whole contribution; the
server unions contributions across clients, so multiple node-runner
processes on one machine share one directory.
"""

from __future__ import annotations

import asyncio
import json
from typing import Callable, Optional

from repro.live.transport import CLOSE_TIMEOUT, DIAL_TIMEOUT

__all__ = ["RegistryServer", "RegistryClient"]


def _merge(contributions: dict) -> tuple[dict, dict]:
    """Union every client's contribution into one directory."""
    hosts: dict[str, list] = {}
    subscribers: dict[str, list[str]] = {}
    for contrib in contributions.values():
        hosts.update(contrib.get("hosts", {}))
        for name, subs in contrib.get("subscribers", {}).items():
            merged = subscribers.setdefault(name, [])
            for host in subs:
                if host not in merged:
                    merged.append(host)
    return hosts, subscribers


class RegistryServer:
    """Serves the channel directory on a localhost TCP socket."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._host = host
        self._port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self.address: Optional[tuple[str, int]] = None
        #: client id -> that client's latest sync contribution.
        self._contributions: dict[int, dict] = {}
        self._writers: dict[int, asyncio.StreamWriter] = {}
        self._serve_tasks: set[asyncio.Task] = set()
        self._next_client = 0

    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(
            self._serve, self._host, self._port)
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        return self.address

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await asyncio.wait_for(self._server.wait_closed(),
                                   CLOSE_TIMEOUT)
            self._server = None
        # Closing the writers EOFs each client loop, so the serve
        # tasks exit on their own rather than being cancelled (a
        # cancelled client_connected_cb task makes asyncio log noise).
        for writer in list(self._writers.values()):
            writer.close()
        if self._serve_tasks:
            await asyncio.wait_for(
                asyncio.gather(*self._serve_tasks, return_exceptions=True),
                CLOSE_TIMEOUT)
            self._serve_tasks.clear()
        self._writers.clear()

    async def _serve(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._serve_tasks.add(task)
            task.add_done_callback(self._serve_tasks.discard)
        cid = self._next_client
        self._next_client += 1
        self._writers[cid] = writer
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, OSError):
                    # A client that vanishes mid-teardown (worker
                    # process exit) is a normal departure, not noise.
                    break
                if not line:
                    break
                try:
                    msg = json.loads(line)
                except ValueError:
                    continue
                if msg.get("op") == "sync":
                    self._contributions[cid] = msg
                    self._broadcast()
        finally:
            self._writers.pop(cid, None)
            # A vanished client's hosts/subscriptions leave with it.
            if self._contributions.pop(cid, None) is not None:
                self._broadcast()
            writer.close()

    def _broadcast(self) -> None:
        hosts, subscribers = _merge(self._contributions)
        line = (json.dumps({"op": "state", "hosts": hosts,
                            "subscribers": subscribers},
                           separators=(",", ":")) + "\n").encode()
        for writer in self._writers.values():
            if writer.is_closing():
                continue
            try:
                writer.write(line)
            except (ConnectionError, OSError):
                continue


class RegistryClient:
    """One process's connection to the registry server.

    Keeps the merged directory from the server's broadcasts.  The
    addresses of this process's own hosts are known *optimistically*
    the moment they register, so a dial inside one process never waits
    for a broadcast; subscribers of this process's own hosts are the
    bus's to know, and everything else comes from the server.
    """

    def __init__(self) -> None:
        self.hosts: dict[str, tuple[str, int]] = {}
        #: channel -> subscriber hosts, as the server last broadcast.
        self.directory: dict[str, list[str]] = {}
        self._local: dict = {"hosts": {}, "subscribers": {}}
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        #: Called after every broadcast (bus cache invalidation).
        self.on_change: Optional[Callable[[], None]] = None

    async def connect(self, address: tuple[str, int]) -> None:
        self._reader, self._writer = await asyncio.wait_for(
            asyncio.open_connection(address[0], address[1]), DIAL_TIMEOUT)
        self._reader_task = asyncio.ensure_future(self._listen())

    async def close(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    # -- local operations (pushed to the server) --------------------------

    def register_host(self, host: str, address: tuple[str, int]) -> None:
        self._local["hosts"][host] = list(address)
        self.hosts[host] = (address[0], int(address[1]))
        self._sync()

    def set_subscribers(self, subscribers: dict[str, list[str]]) -> None:
        """Replace this process's channel → subscriber hosts mapping;
        the server hears of it only when it changed."""
        if subscribers != self._local["subscribers"]:
            self._local["subscribers"] = subscribers
            self._sync()

    # -- queries ----------------------------------------------------------

    def host_address(self, host: str) -> Optional[tuple[str, int]]:
        return self.hosts.get(host)

    def subscribers(self, name: str) -> list[str]:
        return self.directory.get(name, [])

    # -- internals --------------------------------------------------------

    def _sync(self) -> None:
        if self._writer is not None:
            line = (json.dumps({"op": "sync", **self._local},
                               separators=(",", ":")) + "\n").encode()
            self._writer.write(line)

    async def _listen(self) -> None:
        assert self._reader is not None
        while True:
            line = await self._reader.readline()
            if not line:
                return
            try:
                msg = json.loads(line)
            except ValueError:
                continue
            if msg.get("op") != "state":
                continue
            # Our own hosts may be ahead of the broadcast in flight.
            hosts = {**msg.get("hosts", {}), **self._local["hosts"]}
            self.hosts = {h: (a[0], int(a[1])) for h, a in hosts.items()}
            self.directory = msg.get("subscribers", {})
            if self.on_change is not None:
                self.on_change()
