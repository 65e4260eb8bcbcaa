"""Discrete-event simulation kernel.

This module provides the event loop (:class:`Environment`), the event
primitives (:class:`SimEvent`, :class:`Timeout`, :class:`AllOf`) and
generator-based processes (:class:`Process`) on which the whole cluster
simulator is built.

The design follows the classic event/process-interaction style (as
popularised by SimPy) but is implemented from scratch for this project:

* An :class:`Environment` owns virtual time and a priority queue of
  triggered events.
* A :class:`SimEvent` is a one-shot occurrence; callbacks attached to it
  run when the event is *processed* by the loop.
* A :class:`Process` wraps a Python generator.  The generator *yields*
  events; the process sleeps until the yielded event is processed and is
  then resumed with the event's value (or the event's exception is thrown
  into it).

Determinism: events scheduled for the same time are processed in FIFO
order of scheduling (stable sequence numbers), with an "urgent" priority
band used internally for process bootstrap and interrupts.
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import InterruptError, SchedulingError, SimulationError

__all__ = [
    "Environment",
    "SimEvent",
    "Timeout",
    "Process",
    "AllOf",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
]

#: Priority band for interrupts and process initialisation.
PRIORITY_URGENT = 0
#: Priority band for ordinary events.
PRIORITY_NORMAL = 1

# Sentinel distinguishing "no value yet" from a triggered value of None.
_PENDING = object()


class SimEvent:
    """A one-shot simulation event.

    Life cycle::

        untriggered --(succeed/fail)--> triggered --(loop pops it)--> processed

    Attributes
    ----------
    env:
        The owning :class:`Environment`.
    callbacks:
        List of callables invoked with the event when it is processed.
        ``None`` once processed (late callbacks are invoked immediately
        by :meth:`add_callback`).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["SimEvent"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: Set to True when a failure has been handled (prevents the
        #: environment from re-raising unhandled event failures).
        self.defused = False

    # -- state inspection ---------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is queued (or processed)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True when the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance when it failed)."""
        if self._value is _PENDING:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._value

    # -- triggering ----------------------------------------------------------

    def succeed(self, value: Any = None) -> "SimEvent":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._enqueue(self, PRIORITY_NORMAL)
        return self

    def fail(self, exception: BaseException) -> "SimEvent":
        """Trigger the event with an exception.

        Waiting processes will have ``exception`` thrown into them.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env._enqueue(self, PRIORITY_NORMAL)
        return self

    # -- callbacks -------------------------------------------------------------

    def add_callback(self, fn: Callable[["SimEvent"], None]) -> None:
        """Attach ``fn`` to run when the event is processed.

        If the event was already processed the callback runs immediately,
        which makes "subscribe after the fact" race-free.
        """
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def remove_callback(self, fn: Callable[["SimEvent"], None]) -> None:
        """Detach a previously added callback (no-op if absent)."""
        if self.callbacks is not None:
            try:
                self.callbacks.remove(fn)
            except ValueError:
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("processed" if self.processed
                 else "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(SimEvent):
    """An event that fires ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float,
                 value: Any = None) -> None:
        if delay < 0:
            raise SchedulingError(f"negative timeout delay {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._enqueue(self, PRIORITY_NORMAL, delay)


class _Initialize(SimEvent):
    """Internal urgent event used to start a process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env._enqueue(self, PRIORITY_URGENT)


class _InterruptTrigger(SimEvent):
    """Internal urgent event delivering an interrupt to a process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process",
                 cause: Any) -> None:
        super().__init__(env)
        self._ok = False
        self._value = InterruptError(cause)
        self.defused = True
        self.callbacks.append(process._resume)
        env._enqueue(self, PRIORITY_URGENT)


class Process(SimEvent):
    """A running simulation process wrapping a generator.

    The process is itself an event: it triggers when the generator
    returns (success, with the generator's return value) or raises
    (failure).  Other processes can therefore ``yield proc`` to join it.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, env: "Environment",
                 generator: Generator[SimEvent, Any, Any],
                 name: str | None = None) -> None:
        if not hasattr(generator, "send"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        #: The event this process is currently waiting on.
        self._target: Optional[SimEvent] = None
        self.name = name or getattr(generator, "__name__", "process")
        _Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`InterruptError` into the process.

        The process must be alive and must not interrupt itself.  The
        event it was waiting on remains pending; the process may re-wait
        on it after handling the interrupt.
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished {self.name!r}")
        if self.env.active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        _InterruptTrigger(self.env, self, cause)

    def _resume(self, event: SimEvent) -> None:
        """Advance the generator with the outcome of ``event``."""
        env = self.env
        # Detach from the event we were waiting on; on interrupt the
        # original target may still fire later and must not resume us
        # twice unless we re-wait on it.
        if self._target is not None and self._target is not event:
            self._target.remove_callback(self._resume)
        self._target = None

        # Hot loop: bind the generator's send/throw once per resume and
        # test slots directly instead of going through properties.
        send = self._generator.send
        throw = self._generator.throw
        env._active = self
        while True:
            try:
                if event._ok:
                    target = send(event._value)
                else:
                    event.defused = True
                    target = throw(event._value)
            except StopIteration as exc:
                env._active = None
                self.succeed(exc.value)
                return
            except BaseException as exc:
                env._active = None
                self.fail(exc)
                return

            if not isinstance(target, SimEvent):
                env._active = None
                error = SimulationError(
                    f"process {self.name!r} yielded a non-event: {target!r}")
                self.fail(error)
                return
            if target.callbacks is None:
                # Already processed: resume immediately with its outcome.
                event = target
                continue
            target.callbacks.append(self._resume)
            self._target = target
            env._active = None
            return


class AllOf(SimEvent):
    """Composite event that triggers once *all* sub-events have triggered.

    Its value is an ordered dict mapping each *triggered* sub-event to
    that event's value.  If any sub-event fails, the condition fails
    with the same exception.
    """

    def __init__(self, env: "Environment",
                 events: Iterable[SimEvent]) -> None:
        super().__init__(env)
        self.events = list(events)
        self._count = 0
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("condition spans multiple environments")
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            ev.add_callback(self._check)

    def _collect(self) -> dict[SimEvent, Any]:
        # Only *processed* sub-events count: a Timeout is value-bearing
        # from construction, but it has not "happened" until the loop
        # pops it.
        return {ev: ev._value for ev in self.events
                if ev.processed and ev._ok}

    def _check(self, event: SimEvent) -> None:
        if self.triggered:
            return
        self._count += 1
        if not event._ok:
            event.defused = True
            self.fail(event._value)
        elif self._count >= len(self.events):
            self.succeed(self._collect())


class Environment:
    """The simulation environment: virtual clock plus event queue."""

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, SimEvent]] = []
        self._seq = 0
        self._active: Optional[Process] = None
        #: Total events processed by :meth:`step` (throughput metric).
        self.events_processed = 0

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active

    # -- event construction -----------------------------------------------

    def event(self) -> SimEvent:
        """Create a fresh untriggered event."""
        return SimEvent(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[SimEvent, Any, Any],
                name: str | None = None) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[SimEvent]) -> AllOf:
        """Event that triggers once every event in ``events`` triggered."""
        return AllOf(self, events)

    # -- scheduling ----------------------------------------------------------

    def _enqueue(self, event: SimEvent, priority: int,
                 delay: float = 0.0) -> None:
        if delay < 0:
            raise SchedulingError(f"cannot schedule {delay!r}s in the past")
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._queue, (self._now + delay, priority, seq, event))

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        if not self._queue:
            raise SimulationError("step() on an empty schedule")
        when, _prio, _seq, event = _heappop(self._queue)
        self._now = when
        self.events_processed += 1
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks is None:
            raise SimulationError(f"{event!r} processed twice")
        for fn in callbacks:
            fn(event)
        if not event._ok and not event.defused:
            # An event failed and nobody was listening: surface the error
            # instead of silently losing it.
            raise event._value

    def run(self, until: float | SimEvent | None = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until no events remain.
            a float — run until virtual time reaches that instant.
            a :class:`SimEvent` — run until the event is processed and
            return its value (re-raising its exception on failure).
        """
        queue = self._queue
        step = self.step
        if until is None:
            while queue:
                step()
            return None

        if isinstance(until, SimEvent):
            stop = until
            if stop.processed:
                if stop._ok:
                    return stop._value
                raise stop._value
            finished = []
            stop.add_callback(finished.append)
            while queue and not finished:
                step()
            if not finished:
                raise SimulationError(
                    "schedule ran dry before the awaited event triggered")
            if stop._ok:
                return stop._value
            stop.defused = True
            raise stop._value

        horizon = float(until)
        if horizon < self._now:
            raise SchedulingError(
                f"cannot run until {horizon} (now is {self._now})")
        while queue and queue[0][0] <= horizon:
            step()
        self._now = horizon
        return None
