"""The backend-neutral runtime protocol.

Everything dproc and KECho need from their execution environment is
captured by a handful of structural :class:`~typing.Protocol` classes:
a :class:`Clock` that owns time and timers, a :class:`Transport` that
moves tagged messages between named hosts, and a :class:`RuntimeNode`
bundling the per-host services (clock, RNG, cost model, telemetry,
transport).  ``dproc.dmon``, ``kecho.channel``,
``dproc.toolkit``, ``dproc.procfs`` and the monitoring modules depend
only on these protocols — never on the simulator — so the same d-mon,
parameter, and E-code filter logic runs unmodified on either backend:

* :class:`repro.runtime.sim.SimRuntime` — the deterministic
  discrete-event simulator (``repro.sim``), where time is virtual and
  every run is bit-reproducible;
* :class:`repro.live.runtime.LiveRuntime` — real asyncio tasks over
  real localhost TCP sockets, where time is the wall clock.

The protocols are structural (PEP 544): the simulator's concrete
classes (``Environment``, ``Node``, ``NetStack``) satisfy them without
inheriting from them, and so do the live backend's.
"""

from __future__ import annotations

from typing import (Any, Callable, Iterator, Optional, Protocol,
                    Sequence, runtime_checkable)

__all__ = [
    "OnFail", "Timer", "Clock", "TaskHandle", "Connection",
    "Transport", "RuntimeNode", "Endpoint", "Bus", "NodeGroup",
    "Runtime", "EventStream",
]

#: A sender's failure callback, called as ``on_fail(dst, reason)``.
OnFail = Callable[[str, str], None]


@runtime_checkable
class Timer(Protocol):
    """What :meth:`Clock.timeout` returns: a yieldable/awaitable delay.

    Process generators ``yield`` these; each backend's driver knows how
    to wait on its own timer type (the simulator schedules a
    :class:`~repro.sim.core.Timeout`, the live backend awaits
    ``asyncio.sleep``).
    """

    @property
    def delay(self) -> float: ...


@runtime_checkable
class Clock(Protocol):
    """Time and timers, simulated or wall."""

    @property
    def now(self) -> float:
        """Seconds since the run began."""
        ...

    def timeout(self, delay: float, value: Any = None) -> Timer:
        """A timer that fires ``delay`` seconds from now."""
        ...

    @property
    def active_process(self) -> Optional[Any]:
        """The task currently executing (None outside any task)."""
        ...


@runtime_checkable
class TaskHandle(Protocol):
    """A spawned process/task that can be interrupted."""

    @property
    def is_alive(self) -> bool: ...

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`repro.errors.InterruptError` inside the task."""
        ...


@runtime_checkable
class Connection(Protocol):
    """A unidirectional message path to one remote host."""

    def send(self, payload: Any, size: float,
             on_fail: Optional[OnFail] = None) -> None:
        """Transmit ``payload`` (``size`` bytes on the wire); a fan-out
        of one through :meth:`Transport.send_many`."""
        ...


@runtime_checkable
class Transport(Protocol):
    """Per-node tagged messaging (the simulator's ``NetStack`` shape).

    ``bind`` registers a receive handler for a tag (KECho uses
    ``kecho:<channel>``); ``connect`` opens a :class:`Connection` whose
    sends invoke the remote host's handler for the same tag;
    ``send_many`` is the one send contract — a fan-out of one payload
    over this transport's connections (``Connection.send`` is a
    fan-out of one).

    A send returns nothing and nobody waits on a delivery: the
    receiver's handler is the delivery.  The simulator hands it a
    message whose ``payload`` is the sent object, shared by every copy
    of the fan-out, and whose ``span`` is the hop span; the live
    transport decodes each copy from the wire and hands the handler
    the decoded :class:`~repro.kecho.event.ChannelEvent` itself.  The one failure path is the
    sender's ``on_fail(dst, reason)``, called exactly once for each
    copy the transport gives up on — at the moment it gives up, which
    for a copy killed in flight is after ``send_many`` has returned —
    and never for a copy it delivers.
    """

    def bind(self, tag: str, handler: Callable[[Any], None]) -> None: ...

    def unbind(self, tag: str) -> None: ...

    def connect(self, host: str, tag: str) -> Connection: ...

    def send_many(self, conns: Sequence[Connection], payload: Any,
                  size: float, on_fail: Optional[OnFail] = None) -> None:
        """Send ``payload`` over each connection, in order; report each
        lost copy through ``on_fail``."""
        ...


@runtime_checkable
class RuntimeNode(Protocol):
    """The per-host service bundle dproc code runs against.

    Concrete implementations: :class:`repro.sim.node.Node` and
    :class:`repro.live.node.LiveNode`.  Attribute surface (structural,
    so listed informally):

    * ``name`` — unique host name;
    * ``env`` — the node's :class:`Clock`;
    * ``rng`` — a random stream: a ``numpy.random.Generator`` on the
      simulator; on live a :class:`repro.live.rng.HostRng`, which
      offers ``uniform`` only (the d-mon's first-poll stagger);
    * ``costs`` — the :class:`repro.runtime.costs.KernelCostModel`;
    * ``telemetry`` — a :class:`repro.telemetry.TelemetryRegistry`;
    * ``stack`` — the node's :class:`Transport`.
    """

    name: str

    @property
    def env(self) -> Clock: ...

    @property
    def stack(self) -> Transport: ...

    def spawn(self, gen: Any, name: str = "") -> TaskHandle:
        """Run a process generator (yielding :class:`Timer` objects)."""
        ...

    def charge_kernel_seconds(self, seconds: float) -> None:
        """Account ``seconds`` of kernel CPU to this host."""
        ...

    def attach_service(self, name: str, service: Any) -> None:
        """Register a named service object on the node."""
        ...


@runtime_checkable
class Endpoint(Protocol):
    """One node's attachment to a pub/sub channel."""

    @property
    def name(self) -> str: ...

    @property
    def is_subscriber(self) -> bool: ...

    @property
    def receive_cpu_seconds(self) -> float: ...

    def subscribe(self,
                  handler: Callable[[Any, Optional[Any]], None]) -> None:
        """Set the endpoint's one handler, called as
        ``handler(event, trace)`` for every delivery; a second call
        raises :class:`~repro.errors.ChannelError`."""
        ...

    def submit(self, payload: Any, size: float,
               trace: Optional[Any] = None) -> Any: ...

    def close(self) -> None: ...


@runtime_checkable
class EventStream(Protocol):
    """A durable event log teed off the channel data plane.

    The concrete implementation is
    :class:`repro.stream.broker.StreamBroker`: endpoints call
    ``record_submit``/``record_delivery`` as events move, and
    ``record_drop`` when their transport reports a lost copy through
    ``on_fail``.  Recording must be
    *passive* — no RNG draws, no CPU charges, no scheduled events — so
    attaching a stream never perturbs the run it observes.
    """

    def record_submit(self, event: Any, targets: Any,
                      local: bool) -> Any: ...

    def record_delivery(self, event: Any, dest: str,
                        now: float) -> Any: ...

    def record_drop(self, event: Any, dest: str, reason: str,
                    now: float) -> Any: ...


@runtime_checkable
class Bus(Protocol):
    """Cluster-wide channel wiring (KECho's bus shape).

    ``subscription_version`` is bumped whenever any channel's
    subscriber set may have changed; the bus keys its subscriber cache
    on it.  ``stream`` is the optional :class:`EventStream` tee — every
    endpoint checks it on submit and dispatch; None disables durable
    recording.  ``tracer`` is the run's optional
    :class:`repro.tracing.TraceCollector`, read by the stages that start
    a trace; None disables tracing.
    """

    subscription_version: int
    stream: Optional[Any]
    tracer: Optional[Any]

    def connect(self, node: RuntimeNode, name: str) -> Endpoint: ...

    def remote_subscribers(self, name: str, source: str) -> list[str]: ...


@runtime_checkable
class NodeGroup(Protocol):
    """A named collection of nodes (the simulator's ``Cluster`` shape)."""

    @property
    def names(self) -> list[str]: ...

    def __getitem__(self, name: str) -> RuntimeNode: ...

    def __iter__(self) -> Iterator[RuntimeNode]: ...


@runtime_checkable
class Runtime(Protocol):
    """One backend — and the run's one world: a clock, the group of
    nodes running on it and the bus that wires them.

    ``run`` advances the backend until the clock reads ``until``
    seconds (virtual for the simulator, wall for the live backend;
    the live backend brings its sockets up and tears them down inside
    the call).  ``registries()`` maps every host of the run to its
    telemetry registry: local nodes' own, and for hosts in a live pool
    worker the registry rebuilt from the counters that worker shipped
    home.
    """

    @property
    def backend(self) -> str:
        """Short backend id: ``"sim"`` or ``"live"``."""
        ...

    @property
    def clock(self) -> Clock: ...

    @property
    def nodes(self) -> NodeGroup: ...

    @property
    def bus(self) -> Bus: ...

    def make_bus(self) -> Bus: ...

    def registries(self) -> dict: ...

    def run(self, until: float) -> None: ...
