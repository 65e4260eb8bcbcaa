"""BATTERY_MON: the paper's canonical dynamically-deployed module.

§1: filters "can dynamically deploy monitoring functionality available
in the remote kernel but not directly supported in dproc (such as the
monitoring of the current battery power in mobile devices)"; the future
work makes power a first-class resource for mobile clients.

This module is intentionally *not* part of the default module set — it
exists to exercise dproc's run-time extensibility
(:meth:`~repro.dproc.dmon.DMon.register_service` on a live d-mon).
"""

from __future__ import annotations

from repro.dproc.metrics import MetricId
from repro.dproc.modules.base import MonitoringModule
from repro.errors import DprocError
from repro.runtime.protocol import RuntimeNode
from repro.sim.power import Battery

__all__ = ["BatteryMon"]


class BatteryMon(MonitoringModule):
    """Battery charge sampler for mobile nodes."""

    name = "battery"

    def __init__(self, node: RuntimeNode, battery: Battery | None = None)\
            -> None:
        super().__init__(node)
        if battery is None:
            battery = node.services.get("battery")
        if battery is None:
            raise DprocError(
                f"node {node.name!r} has no battery to monitor")
        self.battery = battery

    def metrics(self) -> tuple[MetricId, ...]:
        return (MetricId.BATTERY,)

    def collect(self, now: float) -> list[float]:
        return [self.battery.level_percent()]
