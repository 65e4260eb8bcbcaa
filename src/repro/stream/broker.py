"""The append-only stream broker: one bounded log per channel.

One :class:`StreamBroker` tees the whole KECho data plane — submits,
deliveries and transport drops — into per-channel
:class:`ChannelStream` logs with monotone entry ids.  Each log is a
ring of at most :data:`STREAM_CAPACITY` entries: the oldest falls off
and is counted in ``trimmed``.  A read that needs a dropped entry —
the whole-log :meth:`ChannelStream.entries` behind every replay, or a
:meth:`ChannelStream.read_after` cursor the ring has passed — raises
:class:`StreamError` rather than answer short; ``tail``,
``serialize`` and ``dump`` serve what the ring holds.

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
from collections import deque
from itertools import islice
from pathlib import Path
from typing import Any, Iterable, Iterator, Optional

from repro.errors import ReproError
from repro.stream.entry import (DELIVER, DROP, SUBMIT, StreamEntry,
                                normalize_payload)

__all__ = ["STREAM_CAPACITY", "StreamError", "ChannelStream",
           "StreamBroker", "segment_name"]

#: Entries each channel's log keeps: the smallest power of two at
#: least twice the largest stream a documented run records (153,000
#: on ``dproc.monitor`` for 50 nodes over 60 s).
STREAM_CAPACITY = 2 ** 19


class StreamError(ReproError):
    """A read the stream cannot answer whole, or a malformed dump."""


def segment_name(channel: str) -> str:
    """Segment file name for ``channel`` (slashes made path-safe)."""
    return f"segment-{channel.replace('/', '_')}.jsonl"


class ChannelStream:
    """One channel's log: a ring of the newest ``max_len`` entries.

    Seqs are 1-based and contiguous; ``last_seq`` counts every entry
    ever appended and ``trimmed`` those the ring has dropped.
    """

    def __init__(self, channel: str,
                 max_len: int = STREAM_CAPACITY) -> None:
        self.channel = channel
        self.max_len = max_len
        self._entries: deque[StreamEntry] = deque(maxlen=max_len)
        #: Seq of the newest entry ever appended (0 when none).
        self.last_seq = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[StreamEntry]:
        """The entries the ring holds, oldest first."""
        return iter(self._entries)

    @property
    def first_seq(self) -> int:
        """Seq of the oldest retained entry (0 when empty)."""
        return self._entries[0].seq if self._entries else 0

    @property
    def trimmed(self) -> int:
        """Entries the ring has dropped from its head."""
        return self.last_seq - len(self._entries)

    def append_entry(self, entry: StreamEntry) -> StreamEntry:
        """Append ``entry`` in place, assigning the next monotone seq.

        The tee's hot path: the caller constructs the entry (any seq)
        and this stamps the id; a full ring drops its oldest entry.
        """
        self.last_seq = entry.seq = self.last_seq + 1
        self._entries.append(entry)
        return entry

    def append(self, **fields: Any) -> StreamEntry:
        """Append one entry built from ``fields`` (convenience form)."""
        return self.append_entry(
            StreamEntry(seq=0, channel=self.channel, **fields))

    def read_after(self, seq: int,
                   count: Optional[int] = None) -> list[StreamEntry]:
        """Entries with seq strictly greater than ``seq``, in order.

        Raises :class:`StreamError` when the ring has dropped one.
        """
        start = seq - self.trimmed
        if start < 0:
            raise StreamError(
                f"stream {self.channel!r}: entries {seq + 1}.."
                f"{self.trimmed} fell off its ring of {self.max_len}")
        if count is None:
            return self.tail(len(self._entries) - start)
        return list(islice(self._entries, start, start + count))

    def entries(self) -> tuple[StreamEntry, ...]:
        """Every entry the channel recorded, oldest first.

        Raises :class:`StreamError` once the ring has dropped any.
        """
        return tuple(self.read_after(0))

    def tail(self, n: int) -> list[StreamEntry]:
        """The newest ``n`` retained entries, oldest first.

        Walked from the newest end, so it costs ``n``, not the ring.
        """
        out = list(islice(reversed(self._entries), max(n, 0)))
        out.reverse()
        return out


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
        """Sorted channel names."""
        return sorted(self.streams)

    def entries(self, channel: str) -> tuple[StreamEntry, ...]:
        """Every entry ``channel`` recorded (the replays' one read);
        raises :class:`StreamError` once its ring has dropped any."""
        st = self.streams.get(channel)
        return st.entries() if st is not None else ()

    def total_entries(self) -> int:
        """Retained entries across all channels."""
        return sum(len(st) for st in self.streams.values())

    def serialize(self) -> str:
        """Canonical textual form: JSONL, channels sorted, seq order.

        Two runs of the same scenario with the same seed produce the
        same byte string (test-enforced) — the replay guarantee.
        """
        lines = []
        for channel in self.channels():
            for entry in self.streams[channel]:
                lines.append(json.dumps(entry.to_record(),
                                        sort_keys=True,
                                        separators=(",", ":")))
        return "\n".join(lines) + ("\n" if lines else "")

    # -- persistence -------------------------------------------------------

    def dump(self, directory) -> list[Path]:
        """Write each channel's retained entries, one JSON row each,
        into ``directory/segment-<channel>.jsonl``."""
        out = Path(directory)
        out.mkdir(parents=True, exist_ok=True)
        written: list[Path] = []
        for channel in self.channels():
            path = out / segment_name(channel)
            with path.open("w", encoding="utf-8") as fh:
                for entry in self.streams[channel]:
                    fh.write(json.dumps(entry.to_record(),
                                        separators=(",", ":")) + "\n")
            written.append(path)
        return written

    @classmethod
    def load(cls, directory) -> "StreamBroker":
        """Rebuild a broker from :meth:`dump` output.

        Each row keeps its recorded seq, so a stream dumped after its
        ring dropped entries reloads with the same ``trimmed`` count.
        A row that does not parse, or whose seq does not follow the
        row before it, raises :class:`StreamError`.
        """
        root = Path(directory)
        if not root.is_dir():
            raise FileNotFoundError(f"no stream directory {root}")
        broker = cls()
        for path in sorted(root.glob("segment-*.jsonl")):
            with path.open("r", encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, 1):
                    if not line.strip():
                        continue
                    where = f"{path.name}:{lineno}"
                    try:
                        entry = StreamEntry.from_record(json.loads(line))
                    except (ValueError, KeyError, TypeError) as exc:
                        raise StreamError(
                            f"{where}: not a stream row ({exc!r})"
                        ) from None
                    st = broker.stream(entry.channel)
                    if entry.seq < 1 or (len(st) and
                                         entry.seq != st.last_seq + 1):
                        raise StreamError(
                            f"{where}: seq {entry.seq} does not "
                            f"follow {st.last_seq}")
                    st.last_seq = entry.seq - 1
                    st.append_entry(entry)
        return broker
