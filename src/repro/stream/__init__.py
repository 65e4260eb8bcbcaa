"""The durable event stream: broker, janitor, reconciler, stats, top.

A Redis-Streams-style append-only log behind the Runtime protocol:
KECho submits, deliveries and transport drops are teed into
per-channel streams with monotone ids, consumer groups track ack/
pending state, a janitor trims by age and acked state, and the replay
toolkit audits a recorded run — a reconciler against procfs ground
truth, stats-by-replay against the telemetry registry, and a
stream-fed cluster top.  In-memory on both backends (deterministic on
the sim); ``dump``/``load`` persist it as JSONL segments.
"""

from repro.stream.broker import (ChannelStream, ConsumerGroup,
                                 PendingEntry, StreamBroker,
                                 StreamError)
from repro.stream.entry import (DELIVER, DROP, SUBMIT, StreamEntry,
                                normalize_payload)
from repro.stream.janitor import Janitor, TrimReport
from repro.stream.reconcile import (Discrepancy, ReconcileReport,
                                    reconcile)
from repro.stream.stats import replay_stats, verify_stats
from repro.stream.store import (channel_of_segment, dump_broker,
                                load_broker, segment_name)
from repro.stream.top import HostRow, StreamTop

__all__ = [
    "SUBMIT", "DELIVER", "DROP", "StreamEntry", "normalize_payload",
    "ChannelStream", "ConsumerGroup", "PendingEntry", "StreamBroker",
    "StreamError",
    "Janitor", "TrimReport",
    "Discrepancy", "ReconcileReport", "reconcile",
    "replay_stats", "verify_stats",
    "dump_broker", "load_broker", "segment_name",
    "channel_of_segment",
    "HostRow", "StreamTop",
]
