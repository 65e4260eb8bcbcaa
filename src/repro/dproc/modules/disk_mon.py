"""DISK_MON: disk operation and sector rates over a window.

"This measures the average number of disk writes and reads as well as
the average number of sectors written and read for a certain period of
time.  The default period is 1 s; as with CPU_MON, d-mon can change
this value to any desired number." (paper §2.1)
"""

from __future__ import annotations

from repro.dproc.metrics import MetricId
from repro.dproc.modules.base import MonitoringModule
from repro.errors import DprocError
from repro.runtime.protocol import RuntimeNode

__all__ = ["DiskMon"]


class DiskMon(MonitoringModule):
    """Windowed disk-rate sampler."""

    name = "disk"

    def __init__(self, node: RuntimeNode, window: float = 1.0) -> None:
        super().__init__(node)
        if window <= 0:
            raise DprocError("disk window must be positive")
        self.window = float(window)

    def metrics(self) -> tuple[MetricId, ...]:
        return (MetricId.DISKUSAGE, MetricId.DISK_READS,
                MetricId.DISK_WRITES)

    def configure(self, key: str, value: float) -> None:
        if key != "period":
            super().configure(key, value)
        if value <= 0:
            raise DprocError("disk window must be positive")
        self.window = float(value)

    def collect(self, now: float) -> list[float]:
        disk = self.node.disk
        w = self.window
        sectors = (disk.sectors_read.rate(now, w)
                   + disk.sectors_written.rate(now, w))
        return [sectors, disk.reads.rate(now, w),
                disk.writes.rate(now, w)]
