"""Shared-state synchronisation primitives for the simulation kernel.

Provides the queueing abstractions used by the higher-level models:

* :class:`Store` — unbounded/bounded FIFO of Python objects (message
  queues, event receive queues).
* :class:`Resource` — counted resource with FIFO request queue (disk
  heads, locks).

All operations return events that processes ``yield`` on.
"""

from __future__ import annotations

from typing import Any, Generic, TypeVar

from repro.errors import SimulationError
from repro.sim.core import Environment, SimEvent

__all__ = ["Store", "Resource"]

T = TypeVar("T")


class _StorePut(SimEvent):
    __slots__ = ("item",)

    def __init__(self, env: Environment, item: Any) -> None:
        super().__init__(env)
        self.item = item


class _StoreGet(SimEvent):
    __slots__ = ()


class Store(Generic[T]):
    """FIFO store of items with optional capacity.

    ``put(item)`` returns an event that succeeds once the item has been
    accepted (immediately unless the store is full).  ``get()`` returns
    an event that succeeds with the oldest item once one is available.
    """

    def __init__(self, env: Environment,
                 capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise SimulationError("store capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: list[T] = []
        self._putters: list[_StorePut] = []
        self._getters: list[_StoreGet] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: T) -> SimEvent:
        """Offer ``item``; the returned event succeeds on acceptance."""
        event = _StorePut(self.env, item)
        self._putters.append(event)
        self._dispatch()
        return event

    def get(self) -> SimEvent:
        """Request the oldest item; event value is the item."""
        event = _StoreGet(self.env)
        self._getters.append(event)
        self._dispatch()
        return event

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            # Move accepted puts into the buffer.
            while self._putters and len(self.items) < self.capacity:
                put = self._putters.pop(0)
                self.items.append(put.item)
                put.succeed()
                progress = True
            # Serve waiting getters from the buffer.
            while self._getters and self.items:
                get = self._getters.pop(0)
                get.succeed(self.items.pop(0))
                progress = True


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
