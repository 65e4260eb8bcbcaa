"""The SmartPointer stream server.

Delivers molecular-dynamics frames to subscribed clients at a constant
event rate, applying a per-client transform chosen by that client's
adaptation policy.  With a :class:`~repro.dproc.toolkit.Dproc` attached,
dynamic policies read the client's CPU/network/disk state from the
server's local ``/proc/cluster`` view — the paper's headline loop:

    client resources → dproc → server → customized stream → client
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.dproc.metrics import MetricId
from repro.dproc.toolkit import Dproc
from repro.errors import SimulationError
from repro.sim.core import Process
from repro.sim.node import Node
from repro.runtime.series import MEASUREMENT_HISTORY, CounterTrace
from repro.smartpointer.adaptation import (AdaptationPolicy,
                                           ClientCapabilities)
from repro.smartpointer.data import StreamProfile
from repro.smartpointer.transforms import Transform

__all__ = ["StreamEvent", "ServerStream", "SmartPointerServer"]


@dataclass
class StreamEvent:
    """Wire representation of one customized frame."""

    seq: int
    sent_at: float
    size: float               #: bytes on the wire
    client_cost: float        #: Mflop the client must spend to render
    transform: Transform


class ServerStream:
    """One client's customized event stream."""

    def __init__(self, server: "SmartPointerServer", client_name: str,
                 profile: StreamProfile, rate: float,
                 policy: AdaptationPolicy,
                 caps: ClientCapabilities) -> None:
        if rate <= 0:
            raise SimulationError("event rate must be positive")
        self.server = server
        self.client_name = client_name
        self.profile = profile
        self.rate = float(rate)
        self.policy = policy
        self.caps = caps
        self.running = False
        self._loop: Optional[Process] = None
        #: Sequence number of the last frame sent (0 before the first).
        self.seq = 0
        self._conn = server.node.stack.connect(
            client_name, tag=f"smartptr:{client_name}")
        # statistics ---------------------------------------------------------
        self.bytes_sent = CounterTrace(MEASUREMENT_HISTORY)
        #: Quality of the transform last applied (None before the
        #: first frame).
        self.quality: Optional[float] = None
        #: Transform last applied (None before the first frame) —
        #: adaptation decisions are audited when it changes.
        self._last_transform: Optional[Transform] = None

    def start(self) -> "ServerStream":
        if self.running:
            raise SimulationError("stream already running")
        self.running = True
        # A loop stopped but not yet woken carries on: one loop only.
        if self._loop is None or not self._loop.is_alive:
            self._loop = self.server.node.spawn(
                self._send_loop(), name=f"stream:{self.client_name}")
        return self

    def stop(self) -> None:
        self.running = False

    def _send_loop(self):
        env = self.server.node.env
        interval = 1.0 / self.rate
        while self.running:
            now = env.now
            observations = dict(
                self.server.observations(self.client_name))
            # The policy needs to know how much of the (residual)
            # bandwidth this stream itself is consuming.
            observations["stream_rate"] = self.bytes_sent.rate(
                now, max(4.0, 4.0 * interval))
            transform = self.policy.choose(
                observations, self.profile, self.rate, self.caps)
            if transform != self._last_transform:
                self._record_adaptation(now, transform, observations)
                self._last_transform = transform
            self.seq += 1
            size = transform.wire_size(self.profile)
            event = StreamEvent(
                seq=self.seq, sent_at=now, size=size,
                client_cost=transform.client_cost(self.profile),
                transform=transform)
            # Server-side preprocessing consumes server CPU, but the
            # send pipeline stays non-blocking: the server emits at a
            # constant rate regardless of downstream congestion.
            server_cost = transform.server_cost(self.profile)
            if server_cost > 0:
                self.server.node.cpu.execute(server_cost,
                                             name="preprocess")
            self._conn.send(event, size=size)
            self.bytes_sent.add(now, size)
            self.quality = transform.quality()
            yield env.timeout(interval)

    def _record_adaptation(self, now: float, transform: Transform,
                           observations: dict[str, float]) -> None:
        """Audit one adaptation decision with its monitoring evidence.

        Each dproc-fed observation becomes a trigger naming the metric
        and, when the cache entry came from a traced event, the trace
        id that delivered it (``DMon.provenance``) — the raw material
        for :func:`repro.tracing.adaptation_audit`.  The collector is
        the one on the bus of the server's dproc; a server without a
        dproc has no monitoring evidence to audit.
        """
        dproc = self.server.dproc
        tracer = dproc.bus.tracer if dproc is not None else None
        if tracer is None:
            return
        triggers = []
        for obs_name, metric in (("loadavg", MetricId.LOADAVG),
                                 ("net_bandwidth", MetricId.NET_BANDWIDTH),
                                 ("diskusage", MetricId.DISKUSAGE)):
            ref = dproc.dmon.provenance(self.client_name, metric)
            triggers.append({
                "metric": metric.name.lower(),
                "observation": obs_name,
                "value": observations.get(obs_name, math.nan),
                "trace_id": ref.trace_id if ref is not None else None,
                "received_at":
                    ref.received_at if ref is not None else None,
            })
        previous = self._last_transform
        tracer.record_adaptation(
            time=now, node=self.server.node.name,
            client=self.client_name, policy=self.policy.name,
            previous=(previous.describe()
                      if previous is not None else None),
            chosen=transform.describe(), observations=observations,
            triggers=triggers)


class SmartPointerServer:
    """The stream server application on one node."""

    def __init__(self, node: Node, dproc: Optional[Dproc] = None) -> None:
        self.node = node
        self.dproc = dproc
        self.streams: dict[str, ServerStream] = {}

    def add_client(self, client_name: str, profile: StreamProfile,
                   rate: float, policy: AdaptationPolicy,
                   caps: ClientCapabilities | None = None,
                   start: bool = True) -> ServerStream:
        """Subscribe a client with its own derivation of the data."""
        if client_name in self.streams:
            raise SimulationError(
                f"client {client_name!r} already subscribed")
        stream = ServerStream(self, client_name, profile, rate, policy,
                              caps or ClientCapabilities())
        self.streams[client_name] = stream
        if start:
            stream.start()
        return stream

    def observations(self, client_name: str) -> dict[str, float]:
        """Latest dproc view of a client's resources (NaN = unknown)."""
        if self.dproc is None:
            return {}
        return {
            "loadavg": self.dproc.metric(client_name, MetricId.LOADAVG),
            "net_bandwidth": self.dproc.metric(
                client_name, MetricId.NET_BANDWIDTH),
            "diskusage": self.dproc.metric(client_name,
                                           MetricId.DISKUSAGE),
        }
