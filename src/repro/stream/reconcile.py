"""Replay reconciliation: the stream vs. procfs ground truth.

``reconcile`` replays a recorded broker and audits the whole delivery
accounting of a run:

* every submit's expected audience (its remote targets plus the local
  delivery, when the publisher subscribes to itself) is paired with
  the recorded deliveries and transport drops per destination;
* a deficit *explained by a recorded drop* is attributed to its fault
  (``crash:<host>``, ``partition``, ``injected loss``, ...);
* a deficit with no drop behind it is **missing** — the unexplained
  discrepancy class a healthy run must keep at zero;
* surpluses are **duplicated**, deliveries without a submit are
  **unexpected**, and submits younger than ``open_window`` at the end
  of the observation window are **in flight** (informational — the
  run ended before their copies could land);
* per ``(channel, dest)`` the delivery order is checked against
  submission order per source (**out_of_order**, informational: the
  fabric does not promise cross-size FIFO) and against a staleness
  bound (**stale**);
* finally, when the run's dprocs are available, the monitor channel is
  replayed into a last-value cache per ``(dest, source, metric)`` and
  compared — both directions — against each d-mon's *actual* remote
  cache, the data procfs serves.  The stream must explain procfs
  exactly.

The report's :attr:`ReconcileReport.ok` is the audit verdict: no
missing, duplicated, or unexpected entries and no procfs mismatches.
Attributed drops, in-flight tails, out-of-order and stale entries do
not fail it — they are either explained or informational.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

from repro.dproc.dmon import MONITOR_CHANNEL
from repro.stream.broker import StreamBroker
from repro.stream.entry import DELIVER, DROP, SUBMIT

__all__ = ["Discrepancy", "ReconcileReport", "reconcile"]


@dataclass(frozen=True)
class Discrepancy:
    """One reconciliation finding."""

    kind: str
    channel: str
    source: str
    dest: str
    submitted_at: float
    detail: str = ""


@dataclass
class ReconcileReport:
    """Outcome of one replay audit."""

    channels: list[str] = field(default_factory=list)
    submits: int = 0
    #: Expected deliveries (fan-out target count + local deliveries).
    expected: int = 0
    delivered: int = 0
    local_delivered: int = 0
    #: Deficits attributed to a recorded transport drop, by fault kind.
    dropped_by_fault: dict[str, int] = field(default_factory=dict)
    dropped: list[Discrepancy] = field(default_factory=list)
    #: Unexplained deficits — the class that must be empty.
    missing: list[Discrepancy] = field(default_factory=list)
    duplicated: list[Discrepancy] = field(default_factory=list)
    unexpected: list[Discrepancy] = field(default_factory=list)
    #: Informational: the run ended with these still in flight.
    in_flight: list[Discrepancy] = field(default_factory=list)
    out_of_order: list[Discrepancy] = field(default_factory=list)
    stale: list[Discrepancy] = field(default_factory=list)
    procfs_checked: int = 0
    procfs_mismatches: list[Discrepancy] = field(default_factory=list)
    #: dest host -> metric-file name -> counters per finding kind.
    per_host: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every discrepancy is explained or informational."""
        return not (self.missing or self.duplicated or self.unexpected
                    or self.procfs_mismatches)

    def counts(self) -> dict[str, int]:
        return {
            "submits": self.submits, "expected": self.expected,
            "delivered": self.delivered,
            "local_delivered": self.local_delivered,
            "dropped": len(self.dropped),
            "missing": len(self.missing),
            "duplicated": len(self.duplicated),
            "unexpected": len(self.unexpected),
            "in_flight": len(self.in_flight),
            "out_of_order": len(self.out_of_order),
            "stale": len(self.stale),
            "procfs_checked": self.procfs_checked,
            "procfs_mismatches": len(self.procfs_mismatches),
        }

    def to_json(self) -> dict:
        def rows(items):
            return [{"kind": d.kind, "channel": d.channel,
                     "source": d.source, "dest": d.dest,
                     "submitted_at": d.submitted_at,
                     "detail": d.detail} for d in items]
        return {
            "ok": self.ok, "channels": self.channels,
            "counts": self.counts(),
            "dropped_by_fault": dict(self.dropped_by_fault),
            "missing": rows(self.missing),
            "duplicated": rows(self.duplicated),
            "unexpected": rows(self.unexpected),
            "procfs_mismatches": rows(self.procfs_mismatches),
            "per_host": self.per_host,
        }

    def render(self) -> str:
        """Human-readable validation report."""
        c = self.counts()
        lines = [
            "stream reconciliation "
            + ("OK" if self.ok else "FAILED"),
            f"  channels:       {', '.join(self.channels) or '(none)'}",
            f"  submits:        {c['submits']} "
            f"(expected deliveries {c['expected']})",
            f"  delivered:      {c['delivered']} "
            f"({c['local_delivered']} local)",
            f"  dropped:        {c['dropped']} attributed to faults",
        ]
        for fault, n in sorted(self.dropped_by_fault.items()):
            lines.append(f"                    {fault}: {n}")
        lines += [
            f"  missing:        {c['missing']} (unexplained)",
            f"  duplicated:     {c['duplicated']}",
            f"  unexpected:     {c['unexpected']}",
            f"  in flight:      {c['in_flight']} (run ended)",
            f"  out of order:   {c['out_of_order']} (informational)",
            f"  stale:          {c['stale']}",
            f"  procfs checked: {c['procfs_checked']} cache entries, "
            f"{c['procfs_mismatches']} mismatches",
        ]
        shown = 0
        for bucket, label in ((self.missing, "missing"),
                              (self.duplicated, "duplicated"),
                              (self.unexpected, "unexpected"),
                              (self.procfs_mismatches, "procfs")):
            for d in bucket:
                if shown >= 20:
                    lines.append("  ... (more omitted)")
                    break
                lines.append(
                    f"  ! {label}: {d.channel} {d.source}->"
                    f"{d.dest or '*'} @{d.submitted_at:.3f} {d.detail}")
                shown += 1
            else:
                continue
            break
        if self.per_host:
            lines.append("  per-host findings:")
            for host in sorted(self.per_host):
                parts = []
                for metric in sorted(self.per_host[host]):
                    kinds = self.per_host[host][metric]
                    parts.append(metric + "{" + ",".join(
                        f"{k}:{v}" for k, v in sorted(kinds.items()))
                        + "}")
                lines.append(f"    {host}: " + " ".join(parts))
        return "\n".join(lines)


def _metric_names(records: tuple) -> list[str]:
    from repro.dproc.metrics import METRIC_FILES, MetricId
    names = []
    for mid, _value, _ts in records:
        try:
            names.append(METRIC_FILES[MetricId(mid)])
        except (ValueError, KeyError):
            names.append(f"metric{mid}")
    return names or ["(payload)"]


def reconcile(broker: StreamBroker, dprocs: Optional[dict] = None, *,
              until: Optional[float] = None,
              open_window: float = 1.0,
              stale_after: Optional[float] = None
              ) -> ReconcileReport:
    """Audit ``broker`` against itself and (optionally) procfs truth.

    ``until`` is the end of the observation window (defaults to the
    newest entry time); submits within ``open_window`` of it whose
    copies have not landed are reported in-flight, not missing.
    ``dprocs`` (host → Dproc) enables the procfs ground-truth pass.
    A stream whose ring dropped entries raises
    :class:`~repro.stream.StreamError`.
    """
    report = ReconcileReport(channels=broker.channels())
    if until is None:
        until = max((e.time for ch in broker.channels()
                     for e in broker.entries(ch)), default=0.0)

    def tally(host: str, records: tuple, kind: str, n: int = 1) -> None:
        per_metric = report.per_host.setdefault(host, {})
        for name in _metric_names(records):
            bucket = per_metric.setdefault(name, {})
            bucket[kind] = bucket.get(kind, 0) + n

    for channel in report.channels:
        entries = broker.entries(channel)
        # Pair submits with deliveries/drops on the natural key.
        submits: dict[tuple, list] = defaultdict(list)
        delivered: dict[tuple, int] = defaultdict(int)
        drops: dict[tuple, list] = defaultdict(list)
        last_sub_seen: dict[tuple, float] = {}
        for e in entries:
            if e.kind == SUBMIT:
                report.submits += 1
                submits[e.key].append(e)
            elif e.kind == DELIVER:
                report.delivered += 1
                if e.dest == e.source:
                    report.local_delivered += 1
                delivered[(e.key, e.dest)] += 1
                # Ordering audit per (dest, source): deliveries must
                # not regress in submission time.
                prev = last_sub_seen.get((e.dest, e.source))
                if prev is not None and e.submitted_at < prev:
                    report.out_of_order.append(Discrepancy(
                        kind="out_of_order", channel=channel,
                        source=e.source, dest=e.dest,
                        submitted_at=e.submitted_at,
                        detail=f"after one submitted at {prev:.3f}"))
                else:
                    last_sub_seen[(e.dest, e.source)] = e.submitted_at
                if stale_after is not None \
                        and e.latency > stale_after:
                    report.stale.append(Discrepancy(
                        kind="stale", channel=channel,
                        source=e.source, dest=e.dest,
                        submitted_at=e.submitted_at,
                        detail=f"latency {e.latency:.3f}s"))
                    # Deliveries are light entries; their records live
                    # on the paired submit (always appended first).
                    subs = submits.get(e.key)
                    tally(e.dest, subs[0].records if subs else (),
                          "stale")
            elif e.kind == DROP:
                drops[(e.key, e.dest)].append(e)

        for key, subs in submits.items():
            _, source, submitted_at = key
            expected: dict[str, int] = defaultdict(int)
            records = subs[0].records
            for sub in subs:
                for target in sub.targets:
                    expected[target] += 1
                if sub.local:
                    expected[source] += 1
            for dest, want in expected.items():
                report.expected += want
                got = delivered.pop((key, dest), 0)
                killed = drops.get((key, dest), [])
                if got > want:
                    report.duplicated.append(Discrepancy(
                        kind="duplicated", channel=channel,
                        source=source, dest=dest,
                        submitted_at=submitted_at,
                        detail=f"{got} deliveries for {want} submits"))
                    tally(dest, records, "duplicated", got - want)
                    continue
                deficit = want - got
                for drop in killed[:deficit]:
                    fault = drop.fault or "dropped"
                    report.dropped.append(Discrepancy(
                        kind="dropped", channel=channel, source=source,
                        dest=dest, submitted_at=submitted_at,
                        detail=fault))
                    report.dropped_by_fault[fault] = \
                        report.dropped_by_fault.get(fault, 0) + 1
                    tally(dest, records, "dropped")
                deficit -= min(deficit, len(killed))
                if deficit <= 0:
                    continue
                if submitted_at > until - open_window:
                    report.in_flight.append(Discrepancy(
                        kind="in_flight", channel=channel,
                        source=source, dest=dest,
                        submitted_at=submitted_at))
                    continue
                report.missing.append(Discrepancy(
                    kind="missing", channel=channel, source=source,
                    dest=dest, submitted_at=submitted_at,
                    detail=f"{deficit} of {want} copies unaccounted"))
                tally(dest, records, "missing", deficit)

        # Deliveries left unmatched have no submit behind them.
        for (key, dest), extra in delivered.items():
            _, source, submitted_at = key
            report.unexpected.append(Discrepancy(
                kind="unexpected", channel=channel, source=source,
                dest=dest, submitted_at=submitted_at,
                detail=f"{extra} deliveries with no recorded submit"))

    if dprocs:
        _check_procfs(broker, dprocs, report)
    return report


def _check_procfs(broker: StreamBroker, dprocs: dict,
                  report: ReconcileReport) -> None:
    """Replay the monitor stream into last-value caches and compare
    them — both directions — with each d-mon's remote cache."""
    from repro.dproc.metrics import MetricId
    # Delivery entries are light: the records behind each one are
    # joined from the paired submit on the natural key.
    sub_records: dict[tuple, tuple] = {}
    replayed: dict[str, dict[tuple, tuple]] = defaultdict(dict)
    for e in broker.entries(MONITOR_CHANNEL):
        if e.kind == SUBMIT:
            sub_records.setdefault(e.key, e.records)
            continue
        if e.kind != DELIVER or e.dest == e.source:
            continue
        cache = replayed[e.dest]
        for mid, value, ts in sub_records.get(e.key, ()):
            cache[(e.source, mid)] = (value, ts)

    for host, dproc in dprocs.items():
        dmon = dproc.dmon
        stream_cache = replayed.get(host, {})
        # Forward: every replayed last value must be what procfs serves.
        for (source, mid), (value, ts) in stream_cache.items():
            report.procfs_checked += 1
            try:
                metric = MetricId(mid)
            except ValueError:  # pragma: no cover - ABI is closed
                continue
            actual = dmon.remote_value(source, metric)
            if actual is None:
                report.procfs_mismatches.append(Discrepancy(
                    kind="procfs", channel=MONITOR_CHANNEL,
                    source=source, dest=host, submitted_at=ts,
                    detail=f"{metric.name}: stream delivered "
                           f"{value!r} but procfs has no entry"))
            elif actual.value != value or actual.timestamp != ts:
                report.procfs_mismatches.append(Discrepancy(
                    kind="procfs", channel=MONITOR_CHANNEL,
                    source=source, dest=host, submitted_at=ts,
                    detail=f"{metric.name}: stream says "
                           f"({value!r}, {ts!r}), procfs says "
                           f"({actual.value!r}, "
                           f"{actual.timestamp!r})"))
        # Reverse: nothing in procfs may be unexplained by the stream.
        for source, store in dmon.remote.items():
            for metric in store:
                if (source, int(metric)) not in stream_cache:
                    report.procfs_checked += 1
                    report.procfs_mismatches.append(Discrepancy(
                        kind="procfs", channel=MONITOR_CHANNEL,
                        source=source, dest=host, submitted_at=0.0,
                        detail=f"{metric.name}: procfs entry with no "
                               f"delivery in the stream"))
