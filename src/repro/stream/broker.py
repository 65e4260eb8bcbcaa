"""The append-only stream broker: a Redis-Streams-style durable log.

One :class:`StreamBroker` tees the whole KECho data plane — submits,
deliveries and transport drops — into per-channel
:class:`ChannelStream` logs with monotone entry ids.  Consumers read
through :class:`ConsumerGroup` cursors with Redis-style ack/pending
tracking (XREADGROUP / XACK / XPENDING / XCLAIM analogues), and the
:class:`~repro.stream.janitor.Janitor` trims by age and acked state.

The tee is *passive*: recording an entry draws no RNG, charges no CPU
and schedules no simulation events, so enabling the broker leaves the
event schedule — and therefore every golden trace — bit-identical.

Setting ``bus.stream`` on any :class:`~repro.kecho.channel.KechoBus`
(the sim bus; the live bus inherits from it) attaches a broker: the
bus's endpoints record what they submit and dispatch, and each copy
their transport reports lost through ``on_fail``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable, Optional

from repro.errors import ReproError
from repro.stream.entry import (DELIVER, DROP, SUBMIT, StreamEntry,
                                normalize_payload)

__all__ = ["StreamError", "ChannelStream", "ConsumerGroup",
           "PendingEntry", "StreamBroker"]

class StreamError(ReproError):
    """Misuse of the stream broker (bad seq, unknown group, ...)."""


@dataclass
class PendingEntry:
    """One read-but-unacked entry in a consumer group (XPENDING row)."""

    consumer: str
    #: Broker time of the last read/claim that handed it out.
    last_delivered: float
    #: How many times it has been handed out (reads + claims).
    delivery_count: int


class ConsumerGroup:
    """A named cursor over one channel stream with ack/pending state.

    ``read`` hands out entries past the group's cursor and parks them
    in the pending map until ``ack``; ``claim`` reassigns stuck pending
    entries to another consumer (the crash-recovery path).  The
    ``acked_floor`` — the highest seq such that every entry at or
    below it has been read *and* acked — is what the janitor respects.
    """

    def __init__(self, stream: "ChannelStream", name: str,
                 start: int = 0) -> None:
        self.stream = stream
        self.name = name
        #: Highest seq handed out so far.
        self.cursor = int(start)
        self.pending: dict[int, PendingEntry] = {}

    def read(self, consumer: str, count: Optional[int] = None,
             now: float = 0.0) -> list[StreamEntry]:
        """Next unread entries (XREADGROUP ``>``); parked as pending."""
        out = self.stream.read_after(self.cursor, count)
        for entry in out:
            self.pending[entry.seq] = PendingEntry(
                consumer=consumer, last_delivered=now, delivery_count=1)
        if out:
            self.cursor = out[-1].seq
        return out

    def ack(self, *seqs: int) -> int:
        """Acknowledge entries by seq; returns how many were pending."""
        acked = 0
        for seq in seqs:
            if self.pending.pop(int(seq), None) is not None:
                acked += 1
        return acked

    def pending_for(self, consumer: Optional[str] = None
                    ) -> dict[int, PendingEntry]:
        """Pending entries (XPENDING), optionally for one consumer."""
        if consumer is None:
            return dict(self.pending)
        return {seq: p for seq, p in self.pending.items()
                if p.consumer == consumer}

    def claim(self, consumer: str, seqs: Iterable[int],
              now: float = 0.0) -> list[StreamEntry]:
        """Reassign pending entries to ``consumer`` (XCLAIM)."""
        claimed: list[StreamEntry] = []
        for seq in seqs:
            info = self.pending.get(int(seq))
            if info is None:
                continue
            info.consumer = consumer
            info.last_delivered = now
            info.delivery_count += 1
            entry = self.stream.get(int(seq))
            if entry is not None:
                claimed.append(entry)
        return claimed

    @property
    def acked_floor(self) -> int:
        """Highest seq with everything at/below it read and acked."""
        if self.pending:
            return min(self.pending) - 1
        return self.cursor


class ChannelStream:
    """One channel's append-only log with monotone ids.

    Entries are contiguous by ``seq``; trimming drops a prefix, never
    a middle slice, so ``get`` stays O(1).  ``max_len`` is a hard ring
    bound (Redis ``XADD MAXLEN``): oldest entries fall off regardless
    of ack state — use it for bounded-memory benches, and the janitor
    for policy-driven trims.

    Head drops are lazy: trimmed entries stay in the backing list as a
    dead prefix (``_head``) until the prefix outgrows the live part,
    then one compaction pays them all off.  A naive ``del [:1]`` per
    append is an O(max_len) memmove — at bench fan-outs that one line
    dominated the whole tee.
    """

    def __init__(self, channel: str,
                 max_len: Optional[int] = None) -> None:
        self.channel = channel
        self.max_len = max_len
        self._entries: list[StreamEntry] = []
        #: Dead-prefix length of ``_entries`` (lazily compacted).
        self._head = 0
        self._next_seq = 1
        #: Entries dropped from the head (by janitor or max_len).
        self.trimmed = 0
        self.groups: dict[str, ConsumerGroup] = {}

    def __len__(self) -> int:
        return len(self._entries) - self._head

    @property
    def first_seq(self) -> int:
        """Seq of the oldest retained entry (0 when empty)."""
        if self._head >= len(self._entries):
            return 0
        return self._entries[self._head].seq

    @property
    def last_seq(self) -> int:
        """Seq of the newest entry ever appended (0 when none)."""
        return self._next_seq - 1

    def _drop_head(self, n: int) -> None:
        """Retire ``n`` oldest entries; amortized O(1) per entry."""
        self._head += n
        self.trimmed += n
        if self._head * 2 >= len(self._entries):
            del self._entries[:self._head]
            self._head = 0

    def append_entry(self, entry: StreamEntry) -> StreamEntry:
        """Append ``entry`` in place, assigning the next monotone seq.

        The tee's hot path: the caller constructs the entry (any seq)
        and this stamps the id and applies the ``max_len`` ring.
        """
        entry.seq = self._next_seq
        self._next_seq += 1
        entries = self._entries
        entries.append(entry)
        if self.max_len is not None \
                and len(entries) - self._head > self.max_len:
            self._drop_head(len(entries) - self._head - self.max_len)
        return entry

    def append(self, **fields: Any) -> StreamEntry:
        """Append one entry built from ``fields`` (convenience form)."""
        return self.append_entry(
            StreamEntry(seq=0, channel=self.channel, **fields))

    def entries(self) -> tuple[StreamEntry, ...]:
        """Every retained entry, oldest first."""
        return tuple(self._entries[self._head:])

    def get(self, seq: int) -> Optional[StreamEntry]:
        """The entry with ``seq`` (None if trimmed away or unwritten)."""
        head = self._head
        if head >= len(self._entries):
            return None
        idx = head + (seq - self._entries[head].seq)
        if idx < head or idx >= len(self._entries):
            return None
        return self._entries[idx]

    def read_after(self, seq: int,
                   count: Optional[int] = None) -> list[StreamEntry]:
        """Entries with seq strictly greater than ``seq``, in order."""
        head = self._head
        if head >= len(self._entries):
            return []
        idx = max(head, head + seq + 1 - self._entries[head].seq)
        out = self._entries[idx:]
        if count is not None:
            out = out[:count]
        return list(out)

    def tail(self, n: int) -> list[StreamEntry]:
        """The newest ``n`` retained entries, oldest first."""
        if n <= 0:
            return []
        start = max(self._head, len(self._entries) - n)
        return list(self._entries[start:])

    def trim_to(self, seq: int) -> int:
        """Drop every entry with seq <= ``seq``; returns the count."""
        first = self.first_seq
        if not len(self) or seq < first:
            return 0
        drop = min(seq - first + 1, len(self))
        self._drop_head(drop)
        return drop

    def group(self, name: str, start: int = 0) -> ConsumerGroup:
        """Get or create the consumer group ``name``."""
        grp = self.groups.get(name)
        if grp is None:
            grp = self.groups[name] = ConsumerGroup(self, name,
                                                    start=start)
        return grp


class StreamBroker:
    """The cluster-wide durable event log: one stream per channel.

    ``record_submit`` / ``record_delivery`` / ``record_drop`` are the
    tee entry points the KECho endpoints call; everything else is the
    read side.  :meth:`dump` and :meth:`load` persist it as JSONL
    segments.
    """

    def __init__(self) -> None:
        self.streams: dict[str, ChannelStream] = {}

    # -- write side (the tee) ---------------------------------------------

    def stream(self, channel: str) -> ChannelStream:
        """Get or create the stream for ``channel``."""
        st = self.streams.get(channel)
        if st is None:
            st = self.streams[channel] = ChannelStream(channel)
        return st

    def record_submit(self, event: Any, targets: Iterable[str],
                      local: bool) -> StreamEntry:
        """Tee one publisher submit (before any send settles)."""
        records, summary = normalize_payload(event.payload)
        return self.stream(event.channel).append(
            kind=SUBMIT, source=event.source, dest="",
            time=event.submitted_at, submitted_at=event.submitted_at,
            size=event.size, records=records, summary=summary,
            targets=tuple(targets), local=local)

    def record_delivery(self, event: Any, dest: str,
                        now: float) -> StreamEntry:
        """Tee one endpoint dispatch (local or remote) at ``dest``,
        delivered at ``now``.

        Deliveries are the hot path (one per receiving host per
        submit), so the entry stays light: no records/summary — the
        replay side joins them from the paired submit entry on the
        natural key.
        """
        channel = event.channel
        st = self.streams.get(channel)
        if st is None:
            st = self.stream(channel)
        return st.append_entry(StreamEntry(
            0, DELIVER, channel, event.source, dest, now,
            event.submitted_at, event.size))

    def record_drop(self, event: Any, dest: str, reason: str,
                    now: float) -> StreamEntry:
        """Tee one copy of ``event`` that the publisher's transport
        reported lost on its way to ``dest``."""
        return self.stream(event.channel).append(
            kind=DROP, source=event.source, dest=dest,
            time=now, submitted_at=event.submitted_at, size=event.size,
            fault=reason)

    # -- read side ---------------------------------------------------------

    def channels(self) -> list[str]:
        """Sorted channel names with at least one recorded entry."""
        return sorted(self.streams)

    def entries(self, channel: str) -> tuple[StreamEntry, ...]:
        st = self.streams.get(channel)
        return st.entries() if st is not None else ()

    def total_entries(self) -> int:
        """Retained entries across all channels."""
        return sum(len(st) for st in self.streams.values())

    def group(self, channel: str, name: str,
              start: int = 0) -> ConsumerGroup:
        """Get or create consumer group ``name`` on ``channel``."""
        return self.stream(channel).group(name, start=start)

    def serialize(self) -> str:
        """Canonical textual form: JSONL, channels sorted, seq order.

        Two runs of the same scenario with the same seed produce the
        same byte string (test-enforced) — the replay guarantee.
        """
        lines = []
        for channel in self.channels():
            for entry in self.streams[channel].entries():
                lines.append(json.dumps(entry.to_record(),
                                        sort_keys=True,
                                        separators=(",", ":")))
        return "\n".join(lines) + ("\n" if lines else "")

    def dump(self, directory) -> list:
        """Write one JSONL segment per channel into ``directory``."""
        from repro.stream.store import dump_broker
        return dump_broker(self, directory)

    @classmethod
    def load(cls, directory) -> "StreamBroker":
        """Rebuild a broker from :meth:`dump` output."""
        from repro.stream.store import load_broker
        return load_broker(directory)

