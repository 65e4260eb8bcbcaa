"""Shared-state synchronisation primitives for the simulation kernel.

Provides the queueing abstractions used by the higher-level models:

* :class:`Store` — unbounded FIFO of Python objects (a client's
  event receive queue).
* :class:`Resource` — counted resource with FIFO request queue (disk
  heads, locks).

Every wait returns an event that processes ``yield`` on.
"""

from __future__ import annotations

from collections import deque
from typing import Generic, TypeVar

from repro.errors import SimulationError
from repro.sim.core import Environment, SimEvent

__all__ = ["Store", "Resource"]

T = TypeVar("T")


class Store(Generic[T]):
    """Unbounded FIFO store of items.

    ``put(item)`` hands the item to the oldest waiting getter, or
    buffers it.  ``get()`` returns an event that succeeds with the
    oldest item once one is available.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.items: deque[T] = deque()
        self._getters: deque[SimEvent] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: T) -> None:
        """Hand ``item`` to the oldest waiting getter, or buffer it."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self.items.append(item)

    def get(self) -> SimEvent:
        """Request the oldest item; event value is the item."""
        event = SimEvent(self.env)
        if self.items:
            event.succeed(self.items.popleft())
        else:
            self._getters.append(event)
        return event


class _ResourceRequest(SimEvent):
    """Request event for :class:`Resource`; usable as a context token."""

    __slots__ = ("resource",)

    def __init__(self, env: Environment, resource: "Resource") -> None:
        super().__init__(env)
        self.resource = resource

    def release(self) -> None:
        self.resource.release(self)


class Resource:
    """Counted resource with a FIFO wait queue.

    ``request()`` yields an event; once granted the caller holds one of
    ``capacity`` slots until it calls ``release(req)`` (or
    ``req.release()``).
    """

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.users: list[_ResourceRequest] = []
        self.queue: list[_ResourceRequest] = []

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self) -> _ResourceRequest:
        event = _ResourceRequest(self.env, self)
        self.queue.append(event)
        self._grant()
        return event

    def release(self, request: _ResourceRequest) -> None:
        """Return a granted slot (or cancel a queued request)."""
        if request in self.users:
            self.users.remove(request)
            self._grant()
        else:
            try:
                self.queue.remove(request)
            except ValueError:
                raise SimulationError("release of a request never made")

    def _grant(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            req = self.queue.pop(0)
            self.users.append(req)
            req.succeed(req)
