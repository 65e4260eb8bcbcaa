"""SELF_MON: dproc monitoring its own overhead (dogfooding).

The paper's thesis is that monitoring must know its own cost.  This
module closes the loop: it samples the node's *telemetry registry*
(the same counters d-mon and KECho update on their hot paths) and
publishes the result through the ordinary d-mon pipeline — so a
remote operator can read ``/proc/cluster/<host>/dproc_poll_cost`` and
see what monitoring costs *that host*, delivered by the monitoring
system it is measuring.

Like :class:`~repro.dproc.modules.battery_mon.BatteryMon`, SELF_MON is
*not* part of the default module set: registering it changes what gets
published (and therefore seeded traces), so it is opt-in —
``register_default_modules(dmon, names=(..., "dproc"))`` or an explicit
``dmon.register_service(SelfMon(node))``.
"""

from __future__ import annotations

from repro.dproc.metrics import MetricId
from repro.dproc.modules.base import MonitoringModule
from repro.runtime.protocol import RuntimeNode

__all__ = ["SelfMon"]

#: Telemetry counters summed into DMON_POLL_COST (CPU seconds the
#: monitoring pipeline spent *producing* data, excluding receive).
_POLL_COST_COUNTERS = ("dmon.collect_seconds", "dmon.filter_seconds",
                       "dmon.param_seconds", "dmon.submit_seconds")


class SelfMon(MonitoringModule):
    """Samples the node's own monitoring-overhead telemetry."""

    name = "dproc"

    def __init__(self, node: RuntimeNode) -> None:
        super().__init__(node)
        # Registrable even with node telemetry disabled: a disabled
        # registry returns 0.0 for every counter, so samples are zero.
        self.telemetry = node.telemetry

    def metrics(self) -> tuple[MetricId, ...]:
        return (MetricId.DMON_POLL_COST, MetricId.DMON_RX_COST,
                MetricId.DMON_EVENT_RATE)

    def collect(self, now: float) -> list[float]:
        reg = self.telemetry
        polls = reg.value("dmon.polls")
        produce = sum(reg.value(name) for name in _POLL_COST_COUNTERS)
        poll_cost = produce / polls if polls else 0.0
        rx_cost = (reg.value("dmon.receive_seconds") / polls
                   if polls else 0.0)
        event_rate = (reg.value("dmon.events_published") / now
                      if now > 0 else 0.0)
        return [poll_cost, rx_cost, event_rate]
