"""MEM_MON: free-memory reporting via ``nr_free_pages``.

"This provides information regarding the available memory.  To obtain
this information, the nr_free_pages kernel function is invoked."
(paper §2.1).  The metric value is reported in **bytes** so that
filters like the paper's ``input[FREEMEM].value < 50e6`` read
naturally.
"""

from __future__ import annotations

from repro.dproc.metrics import MetricId
from repro.dproc.modules.base import MonitoringModule
from repro.units import PAGE_SIZE

__all__ = ["MemMon"]


class MemMon(MonitoringModule):
    """Free-memory sampler."""

    name = "mem"

    def metrics(self) -> tuple[MetricId, ...]:
        return (MetricId.FREEMEM,)

    def collect(self, now: float) -> list[float]:
        return [float(self.node.memory.nr_free_pages() * PAGE_SIZE)]
