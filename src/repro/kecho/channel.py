"""KECho channels: kernel-level publish/subscribe over the fabric.

The paper's KECho provides direct kernel-kernel communication: every
node's kernel connects to a channel; ``submit`` pushes an event from
the publisher's kernel straight to every subscriber's kernel with no
central collection point.  Here a :class:`KechoBus` wires per-node
:class:`ChannelEndpoint` objects over the node transports.

The bus is KECho's channel directory.  Per the paper, "d-mon modules
use a channel registry, which is a user-level channel directory server,
to register new channels and to find existing channels": the bus's
per-channel endpoint map is that directory.  The first ``connect`` to a
name creates the channel, later ones join it, and a channel's
subscribers are its endpoints with a handler, in attach order.

Cost accounting mirrors the paper's ``rdtsc`` measurements: every
``submit`` returns a :class:`SubmitReceipt` with the kernel CPU seconds
spent encoding and pushing the event (the quantity plotted in Figures
6-7), and endpoints accumulate the receive-path cost (Figure 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import ChannelError
from repro.kecho.event import ChannelEvent
from repro.runtime.protocol import RuntimeNode

__all__ = ["KechoBus", "ChannelEndpoint", "SubmitReceipt"]

#: ``handler(event, trace)``: ``event`` is the submitted event, shared
#: by every delivery (never mutate it); ``trace`` is this delivery's
#: span context, or None when untraced.
Handler = Callable[[ChannelEvent, Optional[Any]], None]


@dataclass(slots=True)
class SubmitReceipt:
    """Accounting for one submit call (the paper's cycle counts).

    A lost copy is reported once, when the transport gives up on it:
    in ``kecho.<channel>.failed_deliveries`` and as a stream ``DROP``
    entry.  The submit itself always completes.
    """

    event: ChannelEvent
    #: Kernel CPU seconds spent on this submission (encode + sends).
    cpu_seconds: float


class ChannelEndpoint:
    """One node's kernel-level attachment to a channel."""

    def __init__(self, bus: "KechoBus", node: RuntimeNode,
                 name: str) -> None:
        self.bus = bus
        self.node = node
        self.name = name
        #: The one subscriber handler; None until :meth:`subscribe`.
        self.handler: Optional[Handler] = None
        self.closed = False
        self._tag = f"kecho:{name}"
        self._conns: dict[str, Any] = {}
        #: Cumulative receive-path kernel CPU seconds (Figure 8 metric).
        self.receive_cpu_seconds = 0.0
        # self-telemetry (bound once; no-ops when the node disables it)
        telemetry = node.telemetry
        base = f"kecho.{name}"
        self._t_submits = telemetry.counter(f"{base}.submits")
        self._t_submit_seconds = telemetry.counter(
            f"{base}.submit_seconds")
        self._t_fanout = telemetry.histogram(
            f"{base}.fanout", bounds=(1, 2, 4, 8, 16, 32, 64, 128, 256))
        self._t_delivery_seconds = telemetry.histogram(
            f"{base}.delivery_seconds")
        self._t_receives = telemetry.counter(f"{base}.receives")
        self._t_failed = telemetry.counter(f"{base}.failed_deliveries")
        self._t_tx_bytes = telemetry.counter(f"{base}.tx_bytes")
        self._t_rx_bytes = telemetry.counter(f"{base}.rx_bytes")
        node.stack.bind(self._tag, self._on_message)

    # -- subscription ------------------------------------------------------------

    @property
    def is_subscriber(self) -> bool:
        return self.handler is not None

    def subscribe(self, handler: Handler) -> None:
        """Set the endpoint's handler; the node becomes a sink for this
        channel.

        Per the paper, "the exchange of data is triggered only when an
        application registers interest" — publishers push only to nodes
        with a handler.  An endpoint has at most one.
        """
        self._ensure_open()
        if self.handler is not None:
            raise ChannelError(
                f"endpoint {self.node.name}:{self.name} already has a "
                f"handler")
        self.handler = handler
        self.bus._subscriptions_changed()

    # -- publication ---------------------------------------------------------------

    def submit(self, payload: Any, size: float,
               trace: Optional[Any] = None) -> SubmitReceipt:
        """Publish an event to every subscriber on the channel.

        A local subscriber is dispatched synchronously (kernel upcall);
        remote subscribers receive the event over the network.  Kernel
        CPU for encoding and per-subscriber pushes is charged to this
        node and reported in the receipt.

        ``trace`` (a :class:`repro.tracing.TraceContext`) threads a
        causal trace through the channel: the submit records a span,
        the event carries its context, and every transport hop and
        delivery parents under it.
        """
        self._ensure_open()
        if size <= 0:
            raise ChannelError("event size must be positive")
        now = self.node.env.now
        event = ChannelEvent(self.name, self.node.name, payload,
                             float(size), now)
        costs = self.node.costs
        cpu = costs.encode_cost(size)
        targets = self.bus.remote_subscribers(self.name, self.node.name)
        cpu += costs.send_cost(size, len(targets))
        tspan = None
        if trace is not None:
            tspan = trace.collector.start_span(
                trace, name=f"submit:{self.name}", stage="kecho",
                node=self.node.name, start=now, channel=self.name,
                size=float(size), fanout=len(targets))
            if tspan is not None:
                event.trace = tspan.context
        self.node.charge_kernel_seconds(cpu)
        self._t_submits.inc()
        self._t_submit_seconds.inc(cpu)
        self._t_fanout.observe(len(targets))
        self._t_tx_bytes.inc(size * len(targets))
        local = self.handler is not None
        # Durable-stream tee (passive: no RNG, no CPU charge, no
        # scheduled events — the event schedule is bit-identical with
        # the broker on or off).
        broker = self.bus.stream
        if broker is not None:
            broker.record_submit(event, targets, local=local)

        if targets:
            stack = self.node.stack
            conns = [self._connection_to(host) for host in targets]

            def on_fail(dst: str, reason: str) -> None:
                # A copy killed by a fault (partition, loss, crashed
                # subscriber, backpressure) is counted and recorded in
                # the durable stream; the publisher's endpoint state is
                # untouched and later submits proceed normally.
                self._t_failed.inc()
                stream = self.bus.stream
                if stream is not None:
                    stream.record_drop(event, dst, reason,
                                       self.node.env.now)

            stack.send_many(conns, event, size, on_fail)
        # The local subscriber sees the event immediately.
        if local:
            self._dispatch(event, event.trace, charge=False)
        if tspan is not None:
            tspan.finish(now, cpu_seconds=cpu)
        return SubmitReceipt(event, cpu)

    # -- teardown ---------------------------------------------------------------

    def close(self) -> None:
        """Detach from the channel (idempotent).

        The handler is cleared.  The endpoint's transport connections
        close with it, so a restarted endpoint opens fresh ones instead
        of leaving one fan-out's worth behind per restart.
        """
        if self.closed:
            return
        self.closed = True
        self.handler = None
        for conn in self._conns.values():
            conn.close()
        self._conns.clear()
        self.node.stack.unbind(self._tag)
        self.bus._detach(self)

    # -- internals ------------------------------------------------------------

    def _ensure_open(self) -> None:
        if self.closed:
            raise ChannelError(
                f"endpoint {self.node.name}:{self.name} is closed")

    def _connection_to(self, host: str):
        conn = self._conns.get(host)
        if conn is None:
            conn = self.node.stack.connect(host, tag=self._tag)
            self._conns[host] = conn
        return conn

    def _on_message(self, msg) -> None:
        if isinstance(msg, ChannelEvent):
            # A decoded frame (live): no trace crosses the wire.
            self._dispatch(msg, None, charge=True)
        else:
            # The simulator's message carries the sender's event, shared
            # by every copy of the fan-out; the hop span parents this
            # delivery.
            event: ChannelEvent = msg.payload
            span = msg.span
            self._dispatch(event, span.context if span is not None
                           else event.trace, charge=True)

    def _dispatch(self, event: ChannelEvent, trace: Optional[Any],
                  charge: bool) -> None:
        now = self.node.env.now
        broker = self.bus.stream
        if broker is not None:
            broker.record_delivery(event, self.node.name, now)
        self._t_receives.inc()
        self._t_rx_bytes.inc(event.size)
        self._t_delivery_seconds.observe(now - event.submitted_at)
        if trace is not None:
            dspan = trace.collector.record_span(
                trace, name=f"deliver:{self.node.name}",
                stage="delivery", node=self.node.name, start=now, end=now,
                channel=self.name, latency=now - event.submitted_at)
            # Handlers (procfs update, SmartPointer streams, ...) parent
            # their own spans under this delivery, not the transport hop.
            trace = dspan.context if dspan is not None else None
        if charge:
            # The NetStack already charged the kernel; record it here
            # for the Figure 8 per-channel measurement.
            self.receive_cpu_seconds += \
                self.node.costs.receive_cost(event.size)
        handler = self.handler
        if handler is not None:
            handler(event, trace)


class KechoBus:
    """Cluster-wide channel wiring: the channel directory, plus what a
    run attaches to every channel (``stream``, ``tracer``).

    Subscriber lookups are on every publisher's per-poll hot path, so
    the bus caches the ordered subscriber list per channel and
    invalidates it with a version counter bumped on any subscribe,
    unsubscribe, connect or close — instead of re-walking the
    channel's endpoints on every submit.
    """

    def __init__(self) -> None:
        #: channel name -> host -> endpoint, in attach order.
        self._channels: dict[str, dict[str, ChannelEndpoint]] = {}
        #: Durable-stream broker tee (a
        #: :class:`repro.stream.broker.StreamBroker`); None disables
        #: recording.
        self.stream = None
        #: The run's :class:`repro.tracing.TraceCollector`, read by the
        #: stages that start a trace; None disables tracing.
        self.tracer = None
        #: Bumped whenever any channel's subscriber set may have changed.
        self.subscription_version = 0
        #: name -> (version, ordered subscriber hosts).
        self._subscriber_cache: dict[str, tuple[int, list[str]]] = {}

    def _subscriptions_changed(self) -> None:
        self.subscription_version += 1

    def connect(self, node: RuntimeNode, name: str) -> ChannelEndpoint:
        """Open (or find) channel ``name`` and attach ``node`` to it.

        Mirrors the paper's flow: the first caller creates the channel,
        later callers join it.
        """
        if not name:
            raise ChannelError("channel name cannot be empty")
        endpoints = self._channels.setdefault(name, {})
        existing = endpoints.get(node.name)
        if existing is not None:
            return existing
        endpoint = ChannelEndpoint(self, node, name)
        endpoints[node.name] = endpoint
        self._subscriptions_changed()
        return endpoint

    def _subscribers(self, name: str) -> list[str]:
        """Ordered hosts with live subscriptions on ``name`` (cached)."""
        version = self.subscription_version
        cached = self._subscriber_cache.get(name)
        if cached is not None and cached[0] == version:
            return cached[1]
        out = self._list_subscribers(name)
        self._subscriber_cache[name] = (version, out)
        return out

    def _list_subscribers(self, name: str) -> list[str]:
        """Ordered hosts with live subscriptions on ``name``, built
        afresh (the cache's builder)."""
        return [host for host, ep in self._channels.get(name, {}).items()
                if ep.handler is not None]

    def remote_subscribers(self, name: str, source: str) -> list[str]:
        """Hosts (other than ``source``) with live subscriptions."""
        subscribers = self._subscribers(name)
        return [host for host in subscribers if host != source]

    def _detach(self, endpoint: ChannelEndpoint) -> None:
        del self._channels[endpoint.name][endpoint.node.name]
        self._subscriptions_changed()
