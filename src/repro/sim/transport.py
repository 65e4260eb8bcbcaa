"""Message transport over the fabric: connections, delivery, statistics.

This is the layer NET_MON observes.  A :class:`Connection` is a
unidirectional logical stream between two hosts carrying discrete
messages.  TCP-like connections are reliable (elastic flows; congestion
shows up as *retransmissions* and stretched delivery); UDP-like
connections sample *loss* from path congestion and drop messages.

Each connection keeps the statistics the paper lists for NET_MON, in
the form NET_MON samples them: two bounded counters it asks for a
windowed rate of (TCP retransmissions, lost messages) and the latest
round-trip time and end-to-end delay as plain floats.  Sent bytes are
counted once, per stack (``NetStack.bytes_out``, NET_MON's
``net_used``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import TransportError
from repro.sim.core import Environment
from repro.sim.link import Flow
from repro.sim.network import Fabric
from repro.runtime.protocol import OnFail
from repro.runtime.rng import Pcg64Stream
from repro.runtime.series import DEVICE_HISTORY, CounterTrace
from repro.telemetry import TelemetryRegistry

__all__ = ["Message", "Connection", "NetStack", "Protocol"]

_msg_ids = itertools.count(1)


class Protocol:
    """Transport protocol names."""

    TCP = "tcp"
    UDP = "udp"


@dataclass(slots=True)
class Message:
    """One application message in flight."""

    mid: int
    src: str
    dst: str
    tag: str
    payload: Any
    size: float
    sent_at: float
    proto: str = Protocol.TCP
    delivered_at: Optional[float] = None
    retransmissions: int = 0
    #: Set once an injected stall has been applied to this delivery.
    stalled: bool = False
    #: Open causal-trace hop span (None when the payload is untraced).
    span: Any = None
    #: The sending connection and whom to tell if the copy dies in
    #: flight (read when the fabric hands the copy back).
    conn: Optional[Connection] = field(default=None, repr=False,
                                       compare=False)
    on_fail: Optional[OnFail] = field(default=None, repr=False,
                                      compare=False)


class Connection:
    """A unidirectional logical message stream between two hosts."""

    def __init__(self, stack: "NetStack", dst: str, tag: str,
                 proto: str = Protocol.TCP) -> None:
        if proto not in (Protocol.TCP, Protocol.UDP):
            raise TransportError(f"unknown protocol {proto!r}")
        self.stack = stack
        self.src = stack.host
        self.dst = dst
        self.tag = tag
        self.proto = proto
        self.closed = False
        fabric = stack.fabric
        #: Round-trip time of the path: a constant of the topology
        #: (links and paths never change once both hosts exist), so it
        #: is computed here once instead of on every delivery.
        self.path_rtt = 2 * sum(l.latency for l in fabric.path(
            self.src, dst)) + fabric.switch_latency
        # statistics ----------------------------------------------------
        self.retransmissions = CounterTrace(DEVICE_HISTORY)
        self.losses = CounterTrace(DEVICE_HISTORY)
        #: End-to-end delay and round-trip time of the most recently
        #: delivered message (None until the first delivery).
        self.last_delay: Optional[float] = None
        self.last_rtt: Optional[float] = None

    def send(self, payload: Any, size: float,
             on_fail: Optional[OnFail] = None) -> None:
        """Send one message: a fan-out of one (see
        :meth:`NetStack.send_many`)."""
        self.stack.send_many([self], payload, size, on_fail)

    def close(self) -> None:
        """Stop sending (idempotent); the stack forgets the connection,
        so NET_MON no longer averages its frozen statistics."""
        if not self.closed:
            self.closed = True
            self.stack.connections.remove(self)


class NetStack:
    """Per-node transport endpoint.

    Handlers are registered per *tag* (a logical port).  Incoming
    messages charge the node's kernel receive cost before dispatch —
    this is how network activity perturbs co-located computation.
    """

    def __init__(self, env: Environment, host: str, fabric: Fabric,
                 rng: Pcg64Stream,
                 kernel_charge: Callable[[float], Any] | None = None,
                 receive_cost: Callable[[float], float] | None = None,
                 telemetry: TelemetryRegistry | None = None) -> None:
        self.env = env
        self.host = host
        self.fabric = fabric
        fabric.stacks[host] = self
        self.rng = rng
        # Self-telemetry (hot path: instruments bound once here); a
        # bare stack counts into a registry of its own.
        if telemetry is None:
            telemetry = TelemetryRegistry(scope=host)
        self._t_in_flight = telemetry.gauge("net.in_flight")
        self._t_delivered = telemetry.counter("net.delivered")
        self._t_drops_fault = telemetry.counter("net.drops_fault")
        self._t_drops_congestion = telemetry.counter(
            "net.drops_congestion")
        self._t_retx = telemetry.counter("net.retransmissions")
        #: Charges ``seconds`` of kernel CPU time (set by Node).
        self.kernel_charge = kernel_charge or (lambda seconds: None)
        #: Maps message size -> kernel seconds for the receive path.
        self.receive_cost = receive_cost or (lambda size: 0.0)
        self.handlers: dict[str, Callable[[Message], None]] = {}
        self.connections: list[Connection] = []
        #: Cumulative bytes received (PMC_MON and the power model
        #: difference it; nobody asks for a window of it).
        self.bytes_received = 0.0
        #: Bytes handed to the wire, one sample per fan-out.
        self.bytes_out = CounterTrace(DEVICE_HISTORY)

    # -- wiring ---------------------------------------------------------------

    def bind(self, tag: str, handler: Callable[[Message], None]) -> None:
        """Register the receive handler for a message tag."""
        if tag in self.handlers:
            raise TransportError(f"tag {tag!r} already bound on {self.host}")
        self.handlers[tag] = handler

    def unbind(self, tag: str) -> None:
        self.handlers.pop(tag, None)

    def connect(self, dst: str, tag: str,
                proto: str = Protocol.TCP) -> Connection:
        """Open a logical connection to ``dst``."""
        if dst not in self.fabric.hosts:
            raise TransportError(f"unknown destination host {dst!r}")
        conn = Connection(self, dst, tag, proto)
        self.connections.append(conn)
        return conn

    # -- data path -----------------------------------------------------------

    def send_many(self, conns: list, payload: Any, size: float,
                  on_fail: Optional[OnFail] = None) -> None:
        """Send one payload over each connection, in order.

        The only send body: ``Connection.send`` is a fan-out of one.
        A delivered copy reaches the receiver's handler and nothing
        else; a copy killed by the fault plane, injected loss or UDP
        congestion — at send time or in flight — is reported once, as
        ``on_fail(dst, reason)`` at the instant it dies.  The transport
        schedules no event of its own for either outcome (an injected
        stall aside); the fabric's transfer carries the copy.  A
        fan-out that names a closed connection raises before any copy
        leaves; otherwise ``bytes_out`` gains one sample for all its
        copies, whatever becomes of them.

        A fan-out of more than one runs inside one
        :meth:`Fabric.batch`: one bandwidth reallocation for all its
        flows instead of one per copy, and each link's congestion read
        once per call — flows added inside a batch carry rate 0.0
        until the reallocation at its exit, so every target reads the
        same value.  Attribute lookups are hoisted out of the loop
        because this is the KECho submit hot path — at n=64 every poll
        fans one event out to 63 peers.
        """
        fabric = self.fabric
        if len(conns) > 1 and not fabric._batch_depth:
            with fabric.batch():
                return self.send_many(conns, payload, size, on_fail)
        if size <= 0:
            raise TransportError("message size must be positive")
        now = self.env.now
        size = float(size)
        host = self.host
        for conn in conns:
            if conn.closed:
                raise TransportError("send on closed connection")
        self.bytes_out.add(now, size * len(conns))
        transfer = fabric.transfer
        path = fabric.path
        link_congestion = fabric.link_congestion
        faults = fabric.faults
        delivered = self._delivered
        rng_random = self.rng.random
        rng_poisson = self.rng.poisson
        trace = getattr(payload, "trace", None)
        drops_fault_inc = self._t_drops_fault.inc
        drops_congestion_inc = self._t_drops_congestion.inc
        retx_inc = self._t_retx.inc
        in_flight_adjust = self._t_in_flight.adjust
        # link -> congestion, read once per fan-out.
        congestion_on: dict = {}
        for conn in conns:
            dst = conn.dst
            msg = Message(mid=next(_msg_ids), src=host, dst=dst,
                          tag=conn.tag, payload=payload, size=size,
                          sent_at=now, proto=conn.proto, conn=conn,
                          on_fail=on_fail)
            # Open the causal hop span before any fault check, so
            # dropped messages leave an annotated failed span behind
            # (duck-typed: any payload carrying a ``trace`` context
            # gets a hop span).
            if trace is not None:
                msg.span = trace.collector.start_span(
                    trace, name=f"hop:{host}->{dst}",
                    stage="transport", node=host, start=now,
                    dst=dst, proto=conn.proto, size=size)
            links = path(host, dst)
            # Injected faults are checked before protocol effects: a
            # message into a partition or onto a lossy link never
            # reaches the wire.
            if faults is not None:
                if faults.blocked(host, dst):
                    drops_fault_inc()
                    self._drop(msg, faults.blocked_reason(
                        host, dst) or "path blocked")
                    continue
                p = faults.loss_probability(host, dst, links)
                # Draw from the sender's seeded stream only when a
                # loss rule applies, so fault-free runs stay
                # bit-identical.
                if p > 0.0 and rng_random() < p:
                    drops_fault_inc()
                    self._drop(msg, "injected loss")
                    continue
            # Path congestion: the most loaded link along the path.
            if not congestion_on:
                # First read of the call: byte accounting to now (a
                # no-op inside a batch, which settled on entry).
                fabric._settle()
            congestion = 0.0
            for link in links:
                c = congestion_on.get(link)
                if c is None:
                    c = congestion_on[link] = link_congestion(link)
                if c > congestion:
                    congestion = c
            if conn.proto == Protocol.UDP:
                p_loss = min(0.9, max(0.0, congestion - 0.9) * 5.0)
                if rng_random() < p_loss:
                    drops_congestion_inc()
                    self._drop(msg, "congestion")
                    continue
            else:
                # TCP: congestion manifests as retransmissions once
                # the path nears saturation.  A zero-mean draw is 0
                # and leaves the generator untouched, so it is skipped
                # (tests/properties/test_sim_properties.py pins that).
                mean_retx = max(0.0, congestion - 0.9) * 3.0
                if mean_retx:
                    msg.retransmissions = rng_poisson(mean_retx)
                if msg.retransmissions:
                    conn.retransmissions.add(now, msg.retransmissions)
                    retx_inc(msg.retransmissions)
                    if msg.span is not None:
                        msg.span.annotate(
                            retransmissions=msg.retransmissions)
            effective = size * (1 + msg.retransmissions)
            transfer(host, dst, effective, delivered,
                     name=f"{conn.tag}:{msg.mid}", cargo=msg)
            in_flight_adjust(1)

    def _drop(self, msg: Message, reason: str, **span_attrs: Any) -> None:
        """Account one lost copy and report it to its sender."""
        now = self.env.now
        if msg.span is not None:
            # Trace-aware drop accounting: the hop span survives as an
            # annotated failure naming the fault kind.
            msg.span.finish(now, status="dropped", fault=reason,
                            **span_attrs)
        if msg.on_fail is not None:
            msg.on_fail(msg.dst, reason)
        msg.conn.losses.add(now, 1.0)

    def _delivered(self, flow: Flow) -> None:
        """The fabric's ``on_done``: the copy ``flow`` carries arrived."""
        msg = flow.cargo
        # Faults are re-checked on arrival: a partition or crash that
        # landed while the bytes were in flight still kills them.
        faults = self.fabric.faults
        if faults is not None:
            stall = faults.extra_delay(msg.src, msg.dst)
            if stall > 0.0 and not msg.stalled:
                msg.stalled = True
                if msg.span is not None:
                    msg.span.annotate(stalled_seconds=stall)
                timer = self.env.timeout(stall)
                timer.add_callback(lambda _ev: self._delivered(flow))
                return
            if faults.blocked(msg.src, msg.dst):
                self._t_in_flight.adjust(-1)
                self._t_drops_fault.inc()
                self._drop(msg, faults.blocked_reason(
                    msg.src, msg.dst) or "path blocked", in_flight=True)
                return
        now = self.env.now
        self._t_in_flight.adjust(-1)
        self._t_delivered.inc()
        msg.delivered_at = now
        if msg.span is not None:
            msg.span.finish(now)
        conn = msg.conn
        conn.last_delay = now - msg.sent_at
        conn.last_rtt = conn.path_rtt
        peer = self.fabric.stacks.get(msg.dst)
        if peer is None:
            raise TransportError(
                f"no stack registered for host {msg.dst!r}")
        peer._receive(msg)

    def _receive(self, msg: Message) -> None:
        self.bytes_received += msg.size
        cost = self.receive_cost(msg.size)
        if cost > 0:
            self.kernel_charge(cost)
        handler = self.handlers.get(msg.tag)
        if handler is not None:
            handler(msg)
