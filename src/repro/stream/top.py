"""``dtop``, stream-fed: an hsm-action-top-style live cluster table.

:class:`StreamTop` reads the monitor channel's log past its own
cursor instead of polling one node's procfs snapshot.  Its state is
exactly what the stream delivered, so the table works on a live run,
on a replayed dump, and during a run.

The row set is the union of *every* host that has ever appeared in the
stream, whatever subset of metrics it reported — the old snapshot
printer keyed rows on the load/freemem snapshots only and silently
dropped hosts that had reported just disk or network data.  The table
shows what was heard and how long ago; cluster-wide answers (a mean,
the least-loaded host) come from
:class:`~repro.dproc.aggregate.ClusterView`, which counts only the
hosts d-mon reports fresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.dproc.dmon import MONITOR_CHANNEL
from repro.dproc.metrics import MetricId
from repro.stream.broker import StreamBroker
from repro.stream.entry import SUBMIT

__all__ = ["StreamTop", "HostRow"]


@dataclass
class HostRow:
    """Latest streamed state of one host."""

    host: str
    #: metric ABI id -> (value, source timestamp).
    last: dict[int, tuple[float, float]] = field(default_factory=dict)
    events: int = 0
    last_seen: float = 0.0

    def value(self, metric: MetricId) -> Optional[float]:
        rec = self.last.get(int(metric))
        return rec[0] if rec is not None else None


class StreamTop:
    """Cluster table fed from the monitor stream past a cursor."""

    def __init__(self, broker: StreamBroker) -> None:
        self.stream = broker.stream(MONITOR_CHANNEL)
        #: Seq of the last entry read.
        self.cursor = 0
        self.hosts: dict[str, HostRow] = {}
        self.events_consumed = 0
        self.last_event_time = 0.0

    def feed(self, count: Optional[int] = None) -> int:
        """Consume new stream entries; returns how many were applied.

        Entries are read past the cursor, which then moves to the last
        one read, so a second feed never double-counts; a cursor the
        ring has passed raises :class:`~repro.stream.StreamError`.
        Only submit entries mutate the table — one per published
        event, independent of fan-out.
        """
        entries = self.stream.read_after(self.cursor, count)
        applied = 0
        for entry in entries:
            if entry.kind == SUBMIT and entry.records:
                row = self.hosts.get(entry.source)
                if row is None:
                    row = self.hosts[entry.source] = HostRow(
                        host=entry.source)
                for mid, value, ts in entry.records:
                    row.last[mid] = (value, ts)
                row.events += 1
                if entry.time > row.last_seen:
                    row.last_seen = entry.time
                applied += 1
            self.events_consumed += 1
            if entry.time > self.last_event_time:
                self.last_event_time = entry.time
        if entries:
            self.cursor = entries[-1].seq
        return applied

    # -- queries -----------------------------------------------------------

    def rows(self) -> list[HostRow]:
        """Every host ever seen, sorted by name — all metric sets."""
        return [self.hosts[h] for h in sorted(self.hosts)]

    # -- rendering ---------------------------------------------------------

    def render(self, now: Optional[float] = None) -> str:
        """The dtop table plus a footer of what was consumed."""
        lines = [f"{'node':>8} {'load':>6} {'free MiB':>8} "
                 f"{'disk sec/s':>10} {'avail Mbps':>10} {'age':>5}"]
        for row in self.rows():
            load = row.value(MetricId.LOADAVG)
            free = row.value(MetricId.FREEMEM)
            disk = row.value(MetricId.DISKUSAGE)
            net = row.value(MetricId.NET_BANDWIDTH)
            age = (f"{now - row.last_seen:4.0f}s"
                   if now is not None else "    -")
            lines.append(
                f"{row.host:>8} "
                f"{load if load is not None else float('nan'):6.2f} "
                f"{(free or 0) / 2**20:8.0f} "
                f"{disk if disk is not None else float('nan'):10.1f} "
                f"{(net or 0) * 8 / 1e6:10.1f} {age:>5}")
        lines.append(f"  [{self.events_consumed} events consumed, "
                     f"last @{self.last_event_time:.1f}s]")
        return "\n".join(lines)
