"""CPU_MON: run-queue averaging over an application-specified period.

Per the paper: the standard /proc/loadavg 1/5/15-minute averages "may
not be useful in a fast system with constantly varying CPU load", so
CPU_MON "creates a kernel thread which wakes up periodically to examine
the task list in the kernel and computes the average of the run-queue
lengths over an application-specified period" (default one minute).

Each wake-up charges the cost of walking the task list, so aggressive
averaging periods show up as monitoring perturbation — a real trade-off
the ablation benchmark explores.
"""

from __future__ import annotations

from repro.dproc.metrics import MetricId
from repro.dproc.modules.base import MonitoringModule
from repro.errors import DprocError
from repro.runtime.protocol import RuntimeNode
from repro.runtime.series import WindowAverage
from repro.units import minutes

__all__ = ["CpuMon"]


class CpuMon(MonitoringModule):
    """Run-queue averaging kernel thread."""

    name = "cpu"

    #: Floor on the sampling interval (wake-up rate of the thread).
    MIN_SAMPLE_INTERVAL = 0.1

    def __init__(self, node: RuntimeNode, avg_period: float = minutes(1)) -> None:
        super().__init__(node)
        if avg_period <= 0:
            raise DprocError("averaging period must be positive")
        self.avg_period = float(avg_period)
        self._window = WindowAverage(self.avg_period)
        self._thread = None

    # -- module protocol ---------------------------------------------------

    def metrics(self) -> tuple[MetricId, ...]:
        return (MetricId.LOADAVG,)

    def start(self) -> None:
        super().start()
        self._thread = self.node.spawn(self._sampler(), name="cpu_mon")

    def stop(self) -> None:
        super().stop()

    def collect(self, now: float) -> list[float]:
        return [self._window.value]

    def configure(self, key: str, value: float) -> None:
        """``period`` changes the averaging window on the fly."""
        if key != "period":
            super().configure(key, value)
        if value <= 0:
            raise DprocError("averaging period must be positive")
        self.avg_period = float(value)
        self._window.set_window(self.avg_period)

    # -- internals ------------------------------------------------------------

    @property
    def sample_interval(self) -> float:
        """Thread wake-up interval: ~10 samples per window, floored."""
        return max(self.MIN_SAMPLE_INTERVAL, self.avg_period / 10.0)

    def _sampler(self):
        env = self.node.env
        while self.started:
            self._window.record(env.now, self.node.cpu.run_queue_length)
            # Walking the task list costs kernel CPU.
            self.node.charge_kernel_seconds(
                self.node.costs.tasklist_walk)
            yield env.timeout(self.sample_interval)
