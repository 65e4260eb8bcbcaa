"""Disk model with FIFO service and the counters DISK_MON reports.

Service time of an operation = ``per_op_latency`` (seek + rotational
average) plus ``size / transfer_rate``.  A single head serves requests in
arrival order, so a data-logging client under heavy stream rates shows
rising disk utilisation — the signal the paper's hybrid experiment needs.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.sim.core import Environment, SimEvent
from repro.sim.stores import Resource
from repro.runtime.series import DEVICE_HISTORY, CounterTrace
from repro.units import MB, SECTOR_SIZE, msec

__all__ = ["Disk"]


class Disk:
    """Single-spindle disk with operation counters.

    The counters (``reads``, ``writes``, ``sectors_read``,
    ``sectors_written``) are bounded :class:`CounterTrace` instances so
    DISK_MON can ask for windowed rates, exactly matching the paper's
    "average number of disk writes and reads as well as the average
    number of sectors written and read for a certain period of time".
    """

    def __init__(self, env: Environment,
                 transfer_rate: float = MB(20),
                 per_op_latency: float = msec(8)) -> None:
        if transfer_rate <= 0:
            raise SimulationError("transfer rate must be positive")
        if per_op_latency < 0:
            raise SimulationError("latency cannot be negative")
        self.env = env
        self.transfer_rate = float(transfer_rate)
        self.per_op_latency = float(per_op_latency)
        self._head = Resource(env, capacity=1)
        self.reads = CounterTrace(DEVICE_HISTORY)
        self.writes = CounterTrace(DEVICE_HISTORY)
        self.sectors_read = CounterTrace(DEVICE_HISTORY)
        self.sectors_written = CounterTrace(DEVICE_HISTORY)
        #: Cumulative seconds the head has spent in service.
        self.busy_seconds = 0.0

    # -- public API ---------------------------------------------------------

    def read(self, nbytes: float) -> SimEvent:
        """Start a read; the returned process-event completes when done."""
        return self.env.process(self._operate(nbytes, is_write=False),
                                name="disk-read")

    def write(self, nbytes: float) -> SimEvent:
        """Start a write; the returned process-event completes when done."""
        return self.env.process(self._operate(nbytes, is_write=True),
                                name="disk-write")

    def service_time(self, nbytes: float) -> float:
        """Raw (uncontended) service time for an operation."""
        return self.per_op_latency + nbytes / self.transfer_rate

    # -- internals ------------------------------------------------------------

    def _operate(self, nbytes: float, is_write: bool):
        if nbytes < 0:
            raise SimulationError("operation size cannot be negative")
        req = self._head.request()
        yield req
        try:
            duration = self.service_time(nbytes)
            yield self.env.timeout(duration)
            self.busy_seconds += duration
            t = self.env.now
            sectors = max(1.0, nbytes / SECTOR_SIZE)
            if is_write:
                self.writes.add(t, 1.0)
                self.sectors_written.add(t, sectors)
            else:
                self.reads.add(t, 1.0)
                self.sectors_read.add(t, sectors)
        finally:
            req.release()
        return nbytes
