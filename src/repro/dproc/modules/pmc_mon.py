"""PMC: performance-monitoring counters.

"Most modern processors offer performance monitoring counters ...
cache misses, number of operations, and other potentially interesting
chip-level statistics" (paper §2.1).  The paper's motivating use:
tracking cache-line loads lets a remote master estimate how much data a
worker has consumed.

The simulated node has no real PMU, so counters are *synthesised* from
simulator ground truth with a fixed linear model (documented
substitution — DESIGN.md §2):

* instructions retired ∝ Mflop executed;
* cache misses ∝ Mflop executed (capacity misses) + bytes received
  (DMA/copy traffic pollutes the cache).
"""

from __future__ import annotations

from repro.dproc.metrics import MetricId
from repro.dproc.modules.base import MonitoringModule
from repro.errors import DprocError
from repro.runtime.protocol import RuntimeNode

__all__ = ["PmcMon"]

#: Instructions per floating-point operation (superscalar-era blend).
INSTRUCTIONS_PER_FLOP = 2.5
#: Cache misses per Mflop of compute (512 KB L2, Pentium Pro class).
MISSES_PER_MFLOP = 1.2e4
#: Cache misses per byte of received network data.
MISSES_PER_RX_BYTE = 1.0 / 32.0  # one line fill per 32-byte line


class PmcMon(MonitoringModule):
    """Synthetic performance-counter sampler (windowed rates)."""

    name = "pmc"

    def __init__(self, node: RuntimeNode, window: float = 1.0) -> None:
        super().__init__(node)
        if window <= 0:
            raise DprocError("pmc window must be positive")
        self.window = float(window)
        self._last_busy = 0.0
        self._last_rx = 0.0
        self._last_time: float | None = None

    def metrics(self) -> tuple[MetricId, ...]:
        return (MetricId.CACHE_MISS, MetricId.INSTRUCTIONS)

    def collect(self, now: float) -> list[float]:
        cpu = self.node.cpu
        cpu.settle()
        busy = cpu.busy_cpu_seconds
        rx = self.node.stack.bytes_received
        if self._last_time is None or now <= self._last_time:
            mflop_rate = 0.0
            rx_rate = 0.0
        else:
            dt = now - self._last_time
            mflop_rate = (busy - self._last_busy) \
                * cpu.mflops_per_cpu / dt
            rx_rate = (rx - self._last_rx) / dt
        self._last_busy, self._last_rx, self._last_time = busy, rx, now
        misses = mflop_rate * MISSES_PER_MFLOP \
            + rx_rate * MISSES_PER_RX_BYTE
        instructions = mflop_rate * 1e6 * INSTRUCTIONS_PER_FLOP
        return [misses, instructions]
