"""Stats-by-replay: recompute telemetry summaries purely from the log.

``replay_stats`` walks a recorded broker and rebuilds the telemetry
registries' per-channel accounting — submits, deliveries, fan-out bytes, record
counts, delivery-latency summaries — from nothing but stream entries.

``verify_stats`` then asserts that the replayed numbers match the live
telemetry registries *exactly*: every per-node KECho counter
(``kecho.<channel>.submits/receives/failed_deliveries/tx_bytes``), the
d-mon publication counters, and the delivery-latency histogram's
count/total.  The tee and the instruments observe the same dispatches
in the same order, so equality is exact (floats included — sums
accumulate in identical order); any divergence means an accounting bug
on one side.  Returns the list of mismatches (empty = verified).

Both replay the whole log, so both raise
:class:`~repro.stream.StreamError` for a stream whose ring dropped
entries.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable, Optional

from repro.dproc.dmon import MONITOR_CHANNEL
from repro.stream.broker import StreamBroker
from repro.stream.entry import DELIVER, DROP, SUBMIT

__all__ = ["replay_stats", "verify_stats"]


def replay_stats(broker: StreamBroker) -> dict:
    """Per-channel and per-host summaries recomputed from the log."""
    out: dict = {"channels": {}, "per_source": {}, "total_entries": 0}
    for channel in broker.channels():
        submits = deliveries = local = drops = 0
        tx_bytes = 0.0
        records = 0
        lat_count = 0
        lat_total = 0.0
        lat_max = 0.0
        per_source: dict[str, int] = defaultdict(int)
        for e in broker.entries(channel):
            out["total_entries"] += 1
            if e.kind == SUBMIT:
                submits += 1
                per_source[e.source] += 1
                tx_bytes += e.size * len(e.targets)
                records += len(e.records)
            elif e.kind == DELIVER:
                deliveries += 1
                if e.dest == e.source:
                    local += 1
                lat_count += 1
                lat_total += e.latency
                if e.latency > lat_max:
                    lat_max = e.latency
            elif e.kind == DROP:
                drops += 1
        out["channels"][channel] = {
            "submits": submits,
            "deliveries": deliveries,
            "local_deliveries": local,
            "drops": drops,
            "tx_bytes": tx_bytes,
            "records": records,
            "latency": {
                "count": lat_count,
                "total": lat_total,
                "mean": lat_total / lat_count if lat_count else 0.0,
                "max": lat_max,
            },
        }
        for source, n in per_source.items():
            out["per_source"].setdefault(source, {})[channel] = n
    return out


def verify_stats(broker: StreamBroker, nodes: Iterable,
                 channels: Optional[Iterable[str]] = None) -> list[str]:
    """Cross-check replayed stats against the live telemetry registry.

    ``nodes`` is any iterable of runtime nodes (``scenario.nodes``).
    Returns human-readable mismatch strings; an empty list means the
    stream log and the telemetry instruments agree exactly.
    """
    targets = list(channels) if channels is not None \
        else broker.channels()
    mismatches: list[str] = []

    # Replay per (node, channel): submits, receives, failed (drops the
    # publisher's completion saw), tx bytes, latency count/total.
    sub = defaultdict(int)
    rcv = defaultdict(int)
    fail = defaultdict(int)
    txb = defaultdict(float)
    lat_n = defaultdict(int)
    lat_t = defaultdict(float)
    mon_events = defaultdict(int)
    mon_records = defaultdict(int)
    for channel in targets:
        for e in broker.entries(channel):
            if e.kind == SUBMIT:
                sub[(e.source, channel)] += 1
                txb[(e.source, channel)] += e.size * len(e.targets)
                if channel == MONITOR_CHANNEL:
                    mon_events[e.source] += 1
                    mon_records[e.source] += len(e.records)
            elif e.kind == DELIVER:
                rcv[(e.dest, channel)] += 1
                lat_n[(e.dest, channel)] += 1
                lat_t[(e.dest, channel)] += e.latency
            elif e.kind == DROP:
                fail[(e.source, channel)] += 1

    def check(label: str, want, got) -> None:
        if isinstance(want, float) or isinstance(got, float):
            if not math.isclose(want, got, rel_tol=1e-9,
                                abs_tol=1e-12):
                mismatches.append(
                    f"{label}: stream={want!r} telemetry={got!r}")
        elif want != got:
            mismatches.append(
                f"{label}: stream={want!r} telemetry={got!r}")

    for node in nodes:
        telemetry = node.telemetry
        name = node.name
        for channel in targets:
            base = f"kecho.{channel}"
            key = (name, channel)
            check(f"{name} {base}.submits", sub[key],
                  int(telemetry.value(f"{base}.submits")))
            check(f"{name} {base}.receives", rcv[key],
                  int(telemetry.value(f"{base}.receives")))
            check(f"{name} {base}.failed_deliveries", fail[key],
                  int(telemetry.value(f"{base}.failed_deliveries")))
            check(f"{name} {base}.tx_bytes", txb[key],
                  telemetry.value(f"{base}.tx_bytes"))
            hist = telemetry.histogram(f"{base}.delivery_seconds")
            check(f"{name} {base}.delivery_seconds.count",
                  lat_n[key], hist.count)
            check(f"{name} {base}.delivery_seconds.total",
                  lat_t[key], hist.total)
        check(f"{name} dmon.events_published", mon_events[name],
              int(telemetry.value("dmon.events_published")))
        check(f"{name} dmon.records_published", mon_records[name],
              int(telemetry.value("dmon.records_published")))
    return mismatches
