"""The durable event stream: broker, reconciler, stats, top.

An append-only log behind the Runtime protocol: KECho submits,
deliveries and transport drops are teed into per-channel streams with
monotone ids, each a ring of the last :data:`STREAM_CAPACITY`
entries, and the replay toolkit audits a recorded run — a reconciler
against procfs ground truth, stats-by-replay against the telemetry
registry, and a stream-fed cluster top.  A replay that needs an entry
the ring dropped raises :class:`StreamError`.  In-memory on both
backends (deterministic on the sim); ``dump``/``load`` persist it as
JSONL segments.
"""

from repro.stream.broker import (STREAM_CAPACITY, ChannelStream,
                                 StreamBroker, StreamError,
                                 segment_name)
from repro.stream.entry import (DELIVER, DROP, SUBMIT, StreamEntry,
                                normalize_payload)
from repro.stream.reconcile import (Discrepancy, ReconcileReport,
                                    reconcile)
from repro.stream.stats import replay_stats, verify_stats
from repro.stream.top import HostRow, StreamTop

__all__ = [
    "SUBMIT", "DELIVER", "DROP", "StreamEntry", "normalize_payload",
    "STREAM_CAPACITY", "ChannelStream", "StreamBroker", "StreamError",
    "segment_name",
    "Discrepancy", "ReconcileReport", "reconcile",
    "replay_stats", "verify_stats",
    "HostRow", "StreamTop",
]
