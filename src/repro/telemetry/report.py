"""Telemetry rendering: text for procfs, JSON for run reports.

Two consumers share this module:

* the dproc procfs files (``/proc/cluster/<node>/dproc/...``) render a
  registry (or a prefix of it) as stable ``key: value`` text;
* run reports (``Scenario.overhead()``, the chaos report,
  ``perf/``) render a whole cluster's registries into one
  ``overhead`` summary — the paper's monitoring-perturbation
  measurement, produced by the monitoring system about itself.

Everything here is read-only over registry snapshots; rendering a
report never mutates telemetry state.
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.telemetry.instruments import Counter, Gauge, Histogram
from repro.telemetry.registry import TelemetryRegistry

__all__ = ["render_text", "overhead_summary", "MONITOR_CPU_COUNTERS"]

#: Registry counters (seconds) that together make up a node's
#: monitoring CPU overhead — the quantity the paper's Figures 4-8
#: measure from outside and this subsystem measures from inside.
MONITOR_CPU_COUNTERS: tuple[str, ...] = (
    "dmon.collect_seconds",
    "dmon.filter_seconds",
    "dmon.param_seconds",
    "dmon.submit_seconds",
    "dmon.receive_seconds",
)


def _fmt(value: float) -> str:
    if value != value:
        return "nan"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def render_text(registry: TelemetryRegistry, prefix: str = "") -> str:
    """Render a registry (or a name-prefix slice) as ``key: value`` text.

    Counters show total (and mean per update where meaningful), gauges
    show current/high, histograms show count/mean/p50/p99/max.  Span
    logs are summarised, not dumped — procfs files stay small.
    """
    lines: list[str] = []
    for name in registry.names(prefix):
        instrument = registry.get(name)
        if isinstance(instrument, Counter):
            lines.append(f"{name}: {_fmt(instrument.value)}")
        elif isinstance(instrument, Gauge):
            high = instrument.high if instrument.updates else math.nan
            lines.append(f"{name}: {_fmt(instrument.value)} "
                         f"(high {_fmt(high)})")
        elif isinstance(instrument, Histogram):
            lines.append(
                f"{name}: count={instrument.count} "
                f"mean={_fmt(instrument.mean)} "
                f"p50={_fmt(instrument.quantile(0.5))} "
                f"p99={_fmt(instrument.quantile(0.99))} "
                f"max={_fmt(instrument.max if instrument.count else math.nan)}")
    return "".join(f"{line}\n" for line in lines)


def _total(registries: Mapping[str, TelemetryRegistry],
           name: str) -> float:
    return sum(r.value(name) for r in registries.values())


def overhead_summary(registries: Mapping[str, TelemetryRegistry],
                     sim_seconds: float) -> dict:
    """Cluster-wide monitoring-overhead summary of one run.

    ``registries`` maps node name → that node's telemetry registry —
    local nodes' own, and for hosts that ran in a live pool worker
    the registry rebuilt from the counters it shipped
    (:meth:`TelemetryRegistry.from_counters`), so one run has one
    mapping whatever ran it.  An empty mapping summarises to zeros.
    ``sim_seconds`` is the monitored span, used to express the CPU
    overhead as a fraction of total node time (the paper's
    perturbation framing).
    """
    if sim_seconds <= 0:
        raise ValueError("sim_seconds must be positive")
    n = len(registries)
    components = {name.split(".", 1)[1]: _total(registries, name)
                  for name in MONITOR_CPU_COUNTERS}
    per_node = {node: sum(reg.value(name)
                          for name in MONITOR_CPU_COUNTERS)
                for node, reg in registries.items()}
    total_cpu = sum(per_node.values())
    busiest = max(per_node, key=per_node.get) if per_node else None
    return {
        "source": "repro.telemetry",
        "n_nodes": n,
        "sim_seconds": sim_seconds,
        "polls": _total(registries, "dmon.polls"),
        "events_published": _total(registries, "dmon.events_published"),
        "records_published": _total(registries,
                                    "dmon.records_published"),
        "monitor_cpu_seconds": {
            "total": total_cpu,
            "per_node_mean": (total_cpu / n) if n else 0.0,
            "busiest_node": busiest,
            "busiest_node_seconds": per_node.get(busiest, 0.0)
            if busiest is not None else 0.0,
            "components": components,
        },
        "cpu_fraction_of_node_time":
            (total_cpu / (n * sim_seconds)) if n else 0.0,
        "network": {
            "drops_fault": _total(registries, "net.drops_fault"),
            "drops_congestion": _total(registries,
                                       "net.drops_congestion"),
            "retransmissions": _total(registries,
                                      "net.retransmissions"),
        },
    }
