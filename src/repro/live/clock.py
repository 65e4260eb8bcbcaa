"""Wall-clock time and the event-loop generator driver.

The simulator runs d-mon's polling loop as a generator that yields
``env.timeout(...)`` events.  The live backend runs *the same
generator* from event-loop callbacks: each step is one
``loop.call_later(delay, step)`` for the :class:`LiveTimeout` the
previous step yielded, so a sleeping task owns one timer handle and
no ``asyncio.Task``, coroutine or Future.  :meth:`LiveTask.interrupt`
cancels the pending timer and throws :class:`repro.errors.InterruptError`
at the suspended yield from a ``call_soon`` callback — exactly the
simulator's interrupt semantics.  :meth:`LiveTask.cancel` closes the
generator, so its ``finally`` blocks run.

An exception escaping a generator ends that task; the clock keeps
the first one in :attr:`AsyncClock.error`, and the runtime re-raises
it once teardown has finished, as the simulator's ``run`` would.

Time is the wall clock, reported as seconds since the runtime started
so both backends' clocks read 0.0 at scenario start.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Generator, Optional

from repro.errors import InterruptError

__all__ = ["AsyncClock", "LiveTimeout", "LiveTask"]


class LiveTimeout:
    """What :meth:`AsyncClock.timeout` returns: a yieldable delay."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        self.delay = float(delay)
        self.value = value


class AsyncClock:
    """Monotonic wall clock, zeroed when the runtime starts.

    Satisfies :class:`repro.runtime.protocol.Clock`.  ``active_process``
    is maintained by :class:`LiveTask` while a driven generator is
    executing a step — the event loop is single-threaded, so a plain
    attribute is race-free.
    """

    def __init__(self) -> None:
        self._t0: Optional[float] = None
        self._active: Optional["LiveTask"] = None
        #: Every task spawned against this clock (for teardown).
        self.tasks: list["LiveTask"] = []
        #: The first exception that escaped a task's generator.
        self.error: Optional[BaseException] = None

    def start(self) -> None:
        """Zero the clock (idempotent: only the first call anchors)."""
        if self._t0 is None:
            self._t0 = time.monotonic()

    @property
    def now(self) -> float:
        """Wall seconds since :meth:`start` (0.0 before it)."""
        if self._t0 is None:
            return 0.0
        return time.monotonic() - self._t0

    def timeout(self, delay: float, value: Any = None) -> LiveTimeout:
        return LiveTimeout(delay, value)

    @property
    def active_process(self) -> Optional["LiveTask"]:
        return self._active

    def spawn(self, gen: Generator, name: str = "") -> "LiveTask":
        task = LiveTask(self, gen, name=name)
        self.tasks.append(task)
        return task

    def cancel_all(self) -> None:
        """Cancel every live task; their ``finally`` blocks run now."""
        tasks, self.tasks = self.tasks, []
        for task in tasks:
            task.cancel()


class LiveTask:
    """One driven generator: the live analogue of ``sim.core.Process``.

    Satisfies :class:`repro.runtime.protocol.TaskHandle`.  The first
    step runs from ``call_soon``, as a freshly spawned simulator
    process starts at the current instant.
    """

    __slots__ = ("clock", "gen", "name", "_loop", "_handle", "_alive")

    def __init__(self, clock: AsyncClock, gen: Generator,
                 name: str = "") -> None:
        self.clock = clock
        self.gen = gen
        self.name = name
        self._loop = asyncio.get_running_loop()
        self._alive = True
        #: The pending step: the first one, then one timer per yield.
        self._handle: Optional[asyncio.Handle] = self._loop.call_soon(
            self._step, None)

    @property
    def is_alive(self) -> bool:
        return self._alive

    def interrupt(self, cause: Any = None) -> None:
        """Raise InterruptError inside the generator at its yield.

        Each call is delivered, in call order, by its own loop
        callback; the generator may catch it and carry on.
        """
        if self._alive:
            self._loop.call_soon(self._step, InterruptError(cause))

    def cancel(self) -> None:
        """Hard-stop the task (teardown path, not an interrupt)."""
        if not self._alive:
            return
        self._alive = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        clock = self.clock
        clock._active = self
        try:
            self.gen.close()
        except Exception as error:
            self._fail(error)
        finally:
            clock._active = None

    def _step(self, throw: Optional[InterruptError]) -> None:
        """Advance the generator one yield; arm the timer for the next."""
        if not self._alive:
            return
        pending, self._handle = self._handle, None
        if throw is not None and pending is not None:
            # An interrupt cuts the pending sleep short.
            pending.cancel()
        clock = self.clock
        clock._active = self
        try:
            if throw is None:
                item = self.gen.send(None)
            else:
                item = self.gen.throw(throw)
        except (StopIteration, InterruptError):
            self._alive = False
            return
        except Exception as error:
            self._alive = False
            self._fail(error)
            return
        finally:
            clock._active = None
        self._handle = self._loop.call_later(
            getattr(item, "delay", 0.0), self._step, None)

    def _fail(self, error: Exception) -> None:
        if self.clock.error is None:
            self.clock.error = error
