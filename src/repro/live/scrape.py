"""The live backend's scrape endpoint: one listener, two routes.

A minimal HTTP/1.1 server over ``asyncio.start_server`` (no web
framework — the repo's no-new-dependencies rule) serving:

* ``GET /metrics``  — OpenMetrics text exposition of every node's
  telemetry registry plus the health verdict gauges
  (:func:`repro.obs.openmetrics.render_openmetrics`);
* ``GET /healthz``  — the health engine's rolled-up verdict as JSON;
  status 200 while healthy, 503 while any rule is degraded.

The server binds localhost and is started/stopped by
:class:`repro.live.runtime.LiveRuntime` inside its event loop (see
``aux_servers``); ``Scenario.with_observability(scrape_port=...)``
wires it up.  Rendering happens per request from the *live*
registries, so a scrape always sees current values.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional

from repro.live.transport import CLOSE_TIMEOUT

__all__ = ["ScrapeServer"]

_MAX_REQUEST_BYTES = 16384
#: Longest wait, in seconds, for a client to send its request or to
#: take the response.
REQUEST_TIMEOUT = 10.0


class ScrapeServer:
    """Serves ``/metrics`` and ``/healthz`` for one live cluster."""

    def __init__(self, nodes, plane, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        """``nodes`` is the runtime's node group (registries are read
        per scrape); ``plane`` the cluster's
        :class:`~repro.obs.plane.ObservabilityPlane`."""
        self.nodes = nodes
        self.plane = plane
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        #: Requests served, by path (diagnostics + tests).
        self.hits: dict[str, int] = {}

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port); valid after :meth:`start`."""
        return (self.host, self.port)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.address

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await asyncio.wait_for(self._server.wait_closed(),
                                   CLOSE_TIMEOUT)
            self._server = None

    # -- request handling ---------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            request = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), REQUEST_TIMEOUT)
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                asyncio.TimeoutError):
            writer.close()
            return
        if len(request) > _MAX_REQUEST_BYTES:
            await self._respond(writer, 413, "text/plain",
                                "request too large\n")
            return
        line = request.split(b"\r\n", 1)[0].decode("latin-1")
        parts = line.split(" ")
        if len(parts) != 3 or parts[0] != "GET":
            await self._respond(writer, 405, "text/plain",
                                "only GET is supported\n")
            return
        path = parts[1].split("?", 1)[0]
        self.hits[path] = self.hits.get(path, 0) + 1
        if path == "/metrics":
            from repro.obs.openmetrics import (CONTENT_TYPE,
                                               render_openmetrics)
            body = render_openmetrics(
                {node.name: node.telemetry for node in self.nodes},
                health=self.plane.verdict()
                if self.plane is not None else None)
            await self._respond(writer, 200, CONTENT_TYPE, body)
        elif path == "/healthz":
            verdict = (self.plane.verdict()
                       if self.plane is not None
                       else {"healthy": True, "rules": []})
            status = 200 if verdict.get("healthy", True) else 503
            await self._respond(writer, status, "application/json",
                                json.dumps(verdict, sort_keys=True)
                                + "\n")
        else:
            await self._respond(writer, 404, "text/plain",
                                f"no route {path}\n")

    @staticmethod
    async def _respond(writer: asyncio.StreamWriter, status: int,
                       content_type: str, body: str) -> None:
        reason = {200: "OK", 404: "Not Found", 405:
                  "Method Not Allowed", 413: "Payload Too Large",
                  503: "Service Unavailable"}.get(status, "Error")
        payload = body.encode("utf-8")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n\r\n")
        writer.write(head.encode("latin-1") + payload)
        try:
            await asyncio.wait_for(writer.drain(), REQUEST_TIMEOUT)
        except asyncio.TimeoutError:
            pass  # a client that stops reading loses its response
        finally:
            writer.close()
