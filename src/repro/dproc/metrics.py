"""The dproc metric namespace.

Every monitored quantity has a stable :class:`MetricId`.  The integer
values double as the ``input[]`` indices that E-code filters use (the
paper's ``input[LOADAVG]``), so they are part of the public filter ABI
and must never be renumbered.
"""

from __future__ import annotations

from enum import IntEnum

from repro.errors import UnknownMetricError

__all__ = ["MetricId", "MODULE_METRICS", "METRIC_CONSTANTS",
           "METRIC_FILES", "metric_by_name"]


class MetricId(IntEnum):
    """Stable metric indices (the E-code filter ABI)."""

    LOADAVG = 0        #: CPU_MON — windowed run-queue average
    FREEMEM = 1        #: MEM_MON — free memory in bytes
    DISKUSAGE = 2      #: DISK_MON — sectors read+written per second
    CACHE_MISS = 3     #: PMC — cache misses per second
    NET_BANDWIDTH = 4  #: NET_MON — available bandwidth (bytes/s)
    NET_RTT = 5        #: NET_MON — mean connection RTT (seconds)
    DISK_READS = 6     #: DISK_MON — read ops per second
    DISK_WRITES = 7    #: DISK_MON — write ops per second
    NET_RETX = 8       #: NET_MON — TCP retransmissions per second
    NET_LOST = 9       #: NET_MON — UDP messages lost per second
    INSTRUCTIONS = 10  #: PMC — instructions retired per second
    NET_USED = 11      #: NET_MON — used outbound bandwidth (bytes/s)
    BATTERY = 12       #: BATTERY_MON — remaining charge (percent)
    NET_DELAY = 13     #: NET_MON — mean end-to-end delay (seconds)
    # Self-telemetry (SELF_MON): dproc monitoring its own overhead.
    # Appended, never renumbered — the values above are the filter ABI.
    DMON_POLL_COST = 14  #: SELF_MON — mean CPU s per polling iteration
    DMON_RX_COST = 15    #: SELF_MON — mean receive-path CPU s per poll
    DMON_EVENT_RATE = 16  #: SELF_MON — monitoring events published /s
    # Per-process monitor (PROC_MON) aggregates; the per-PID table
    # itself travels as a keyed stream, not as MetricIds.
    PROC_COUNT = 17    #: PROC_MON — processes in the sampled table
    PROC_CPU_MAX = 18  #: PROC_MON — heaviest per-PID CPU share
    PROC_RSS_MAX = 19  #: PROC_MON — largest per-PID resident set (bytes)


#: Which monitoring module owns which metrics.
MODULE_METRICS: dict[str, tuple[MetricId, ...]] = {
    "cpu": (MetricId.LOADAVG,),
    "mem": (MetricId.FREEMEM,),
    "disk": (MetricId.DISKUSAGE, MetricId.DISK_READS,
             MetricId.DISK_WRITES),
    "net": (MetricId.NET_BANDWIDTH, MetricId.NET_RTT, MetricId.NET_RETX,
            MetricId.NET_LOST, MetricId.NET_USED, MetricId.NET_DELAY),
    "pmc": (MetricId.CACHE_MISS, MetricId.INSTRUCTIONS),
    "battery": (MetricId.BATTERY,),
    "dproc": (MetricId.DMON_POLL_COST, MetricId.DMON_RX_COST,
              MetricId.DMON_EVENT_RATE),
    "proc": (MetricId.PROC_COUNT, MetricId.PROC_CPU_MAX,
             MetricId.PROC_RSS_MAX),
}

#: Constants handed to the E-code compiler so filters can write
#: ``input[LOADAVG]`` etc.
METRIC_CONSTANTS: dict[str, int] = {m.name: int(m) for m in MetricId}

#: Pseudo-file name under /proc/cluster/<node>/ for each metric.
METRIC_FILES: dict[MetricId, str] = {
    MetricId.LOADAVG: "loadavg",
    MetricId.FREEMEM: "freemem",
    MetricId.DISKUSAGE: "diskusage",
    MetricId.CACHE_MISS: "cache_miss",
    MetricId.NET_BANDWIDTH: "net_bandwidth",
    MetricId.NET_RTT: "net_rtt",
    MetricId.DISK_READS: "disk_reads",
    MetricId.DISK_WRITES: "disk_writes",
    MetricId.NET_RETX: "net_retx",
    MetricId.NET_LOST: "net_lost",
    MetricId.INSTRUCTIONS: "instructions",
    MetricId.NET_USED: "net_used",
    MetricId.BATTERY: "battery",
    MetricId.NET_DELAY: "net_delay",
    MetricId.DMON_POLL_COST: "dproc_poll_cost",
    MetricId.DMON_RX_COST: "dproc_rx_cost",
    MetricId.DMON_EVENT_RATE: "dproc_event_rate",
    MetricId.PROC_COUNT: "proc_count",
    MetricId.PROC_CPU_MAX: "proc_cpu_max",
    MetricId.PROC_RSS_MAX: "proc_rss_max",
}

_BY_NAME = {m.name.lower(): m for m in MetricId}
_BY_FILE = {f: m for m, f in METRIC_FILES.items()}


def metric_by_name(name: str) -> MetricId:
    """Resolve a metric from its enum name or pseudo-file name."""
    key = name.strip().lower()
    metric = _BY_NAME.get(key) or _BY_FILE.get(key)
    if metric is None:
        raise UnknownMetricError(f"unknown metric {name!r}")
    return metric
