"""Physical-memory model.

A trivially simple but observable allocator: processes grab and return
byte ranges; MEM_MON reads the free-page count exactly like the kernel's
``nr_free_pages()`` the paper mentions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.sim.core import Environment
from repro.units import MB, PAGE_SIZE

__all__ = ["Memory", "Allocation"]


@dataclass
class Allocation:
    """Handle for a live memory allocation."""

    aid: int
    nbytes: float
    tag: str
    _memory: "Memory"
    freed: bool = False

    def free(self) -> None:
        """Return this allocation to the pool (idempotent)."""
        if not self.freed:
            self._memory._release(self)
            self.freed = True


class Memory:
    """Byte-accounting memory with free-page reporting."""

    def __init__(self, env: Environment, capacity_bytes: float = MB(512),
                 reserved_bytes: float = MB(32)) -> None:
        """``reserved_bytes`` models the kernel's own footprint."""
        if capacity_bytes <= 0:
            raise SimulationError("memory capacity must be positive")
        if not 0 <= reserved_bytes < capacity_bytes:
            raise SimulationError("reservation outside capacity")
        self.env = env
        self.capacity_bytes = float(capacity_bytes)
        self._used = float(reserved_bytes)
        self._ids = itertools.count(1)
        self._live: dict[int, Allocation] = {}

    @property
    def free_bytes(self) -> float:
        return self.capacity_bytes - self._used

    def nr_free_pages(self) -> int:
        """Free memory in pages — the kernel call MEM_MON invokes."""
        return int(self.free_bytes // PAGE_SIZE)

    def allocate(self, nbytes: float, tag: str = "anon") -> Allocation:
        """Claim ``nbytes``; raises when the pool is exhausted."""
        if nbytes < 0:
            raise SimulationError("cannot allocate negative bytes")
        if nbytes > self.free_bytes:
            raise SimulationError(
                f"out of memory: want {nbytes:.0f}B, "
                f"free {self.free_bytes:.0f}B")
        alloc = Allocation(aid=next(self._ids), nbytes=float(nbytes),
                           tag=tag, _memory=self)
        self._used += nbytes
        self._live[alloc.aid] = alloc
        return alloc

    def _release(self, alloc: Allocation) -> None:
        if alloc.aid not in self._live:
            raise SimulationError("double free")
        del self._live[alloc.aid]
        self._used -= alloc.nbytes
