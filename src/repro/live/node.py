"""LiveNode: the per-host service bundle over real host resources.

Satisfies :class:`repro.runtime.protocol.RuntimeNode` with the exact
attribute surface d-mon, KECho and the toolkit use: ``env`` (the shared
:class:`~repro.live.clock.AsyncClock`), ``rng`` (a
:class:`~repro.runtime.rng.Pcg64Stream`: numpy's stream, drawn in Python),
``costs`` (the same :data:`~repro.runtime.costs.KERNEL_COSTS` the
simulator charges — live costs are *accounted*, not simulated, so the
telemetry/overhead reports stay comparable), ``telemetry``, ``stack``
and ``spawn``.

``cpu`` and ``memory`` expose just enough of the simulated devices'
shape for the toolkit's standard ``/proc/loadavg`` and
``/proc/meminfo`` mounts, backed by the real host's kernel counters
(``getloadavg`` and ``sysinfo``, through ``sysconf``); the host modules
read them the way the sim modules read sim devices.  Every fixed
``/proc`` or ``/sys`` path is read through one held descriptor
(:func:`_read_proc`).
"""

from __future__ import annotations

import os
from typing import Any, Generator

from repro.live.clock import AsyncClock, LiveTask
from repro.live.transport import LiveStack
from repro.runtime.costs import KERNEL_COSTS
from repro.runtime.rng import Pcg64Stream
from repro.telemetry import TelemetryRegistry

__all__ = ["LiveNode", "HostCpu", "HostMemory"]


#: Descriptors held open on the fixed ``/proc`` and ``/sys`` paths the
#: host views and modules poll, by path.  Such a file regenerates its
#: text on each read from offset 0 and ``pread`` carries no file
#: position, so one descriptor serves every poll in the process — and
#: in the forked pool workers that inherit it.
_held: dict[str, int] = {}


def _read_proc(path: str) -> str:
    """Text of a fixed ``/proc`` or ``/sys`` path, through a held
    descriptor.

    Any ``OSError`` reads as ``""``; the descriptor is then closed and
    forgotten, so the next poll opens the path again.
    """
    try:
        fd = _held.get(path)
        if fd is None:
            fd = _held[path] = os.open(path, os.O_RDONLY)
        data = b""
        # To EOF: procfs may return less than asked before the end.
        while chunk := os.pread(fd, 65536, len(data)):
            data += chunk
        return str(data, "utf-8", "replace")
    except OSError:
        fd = _held.pop(path, None)
        if fd is not None:
            try:
                os.close(fd)
            except OSError:
                pass
        return ""


class HostCpu:
    """Real-host CPU view (shape of ``repro.sim.cpu.CPU``)."""

    @staticmethod
    def load_averages() -> tuple[float, float, float]:
        """The host kernel's 1/5/15-minute load averages."""
        try:
            return os.getloadavg()
        except OSError:  # pragma: no cover - platform without loadavg
            return (0.0, 0.0, 0.0)


def _sysconf_bytes(pages: str) -> float:
    """``sysconf(pages)`` in bytes, or 0.0 where the platform has no
    such name (macOS has no ``SC_AVPHYS_PAGES``)."""
    try:
        return float(os.sysconf(pages) * os.sysconf("SC_PAGE_SIZE"))
    except (ValueError, OSError):
        return 0.0


class HostMemory:
    """Real-host memory view (shape of ``repro.sim.memory.Memory``).

    glibc and musl answer ``SC_PHYS_PAGES``/``SC_AVPHYS_PAGES`` from
    ``sysinfo(2)``: the kernel counters ``/proc/meminfo`` prints as
    ``MemTotal`` and ``MemFree``, without formatting the whole file.
    """

    @property
    def capacity_bytes(self) -> float:
        return _sysconf_bytes("SC_PHYS_PAGES")

    @property
    def free_bytes(self) -> float:
        return _sysconf_bytes("SC_AVPHYS_PAGES")


class LiveNode:
    """One live host: clock + RNG + costs + telemetry + TCP stack."""

    def __init__(self, name: str, clock: AsyncClock,
                 seed: int = 0, index: int = 0) -> None:
        self.name = name
        self.env = clock
        self.rng = Pcg64Stream(seed, index)
        self.costs = KERNEL_COSTS
        self.telemetry = TelemetryRegistry(scope=name)
        self.stack = LiveStack(name, self.telemetry)
        self.cpu = HostCpu()
        self.memory = HostMemory()
        self.services: dict[str, Any] = {}
        #: Modeled kernel CPU seconds accounted to this node.
        self.kernel_cpu_seconds = 0.0

    def spawn(self, gen: Generator, name: str = "") -> LiveTask:
        return self.env.spawn(gen, name=name or self.name)

    def charge_kernel_seconds(self, seconds: float) -> None:
        """Account modeled kernel CPU (live charges are bookkeeping)."""
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        self.kernel_cpu_seconds += seconds

    def attach_service(self, key: str, service: Any) -> None:
        self.services[key] = service

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LiveNode {self.name}>"
