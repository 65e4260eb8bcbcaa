"""File-backed persistence: JSONL segments for the stream broker.

On the live backend the broker is constructed with a
:class:`JsonlSink`, which appends every entry eagerly as one JSON row
into a per-channel segment file (``segment-<channel>.jsonl``) — the
durable log survives the process.  ``dump_broker`` / ``load_broker``
write and re-read the same layout for in-memory (sim) brokers, so a
recorded run can be reconciled or replayed offline::

    broker.dump("run1/")                 # after a run
    broker = StreamBroker.load("run1/")  # much later
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Optional

from repro.stream.entry import StreamEntry

__all__ = ["JsonlSink", "dump_broker", "load_broker",
           "segment_name", "channel_of_segment"]


def segment_name(channel: str) -> str:
    """Segment file name for ``channel`` (slashes made path-safe)."""
    return f"segment-{channel.replace('/', '_')}.jsonl"


def channel_of_segment(path: Path) -> str:
    """Inverse of :func:`segment_name` for well-formed names."""
    stem = path.name
    if stem.startswith("segment-") and stem.endswith(".jsonl"):
        return stem[len("segment-"):-len(".jsonl")]
    return stem


class JsonlSink:
    """Eagerly appends broker entries into per-channel JSONL segments."""

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._files: dict[str, IO[str]] = {}
        self.rows_written = 0
        self.closed = False

    def write(self, channel: str, record: dict) -> None:
        if self.closed:
            return
        handle = self._files.get(channel)
        if handle is None:
            path = self.directory / segment_name(channel)
            handle = self._files[channel] = path.open(
                "a", encoding="utf-8")
        handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        self.rows_written += 1

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        for handle in self._files.values():
            try:
                handle.close()
            except OSError:  # pragma: no cover - defensive
                pass
        self._files.clear()


def dump_broker(broker, directory) -> list[Path]:
    """Write every retained entry as per-channel JSONL segments."""
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for channel in broker.channels():
        path = out / segment_name(channel)
        with path.open("w", encoding="utf-8") as fh:
            for entry in broker.streams[channel].entries():
                fh.write(json.dumps(entry.to_record(),
                                    separators=(",", ":")) + "\n")
        written.append(path)
    return written


def load_broker(directory, max_len: Optional[int] = None):
    """Rebuild an in-memory broker from a segment directory.

    Accepts both :func:`dump_broker` output and a live
    :class:`JsonlSink` directory (they share the layout).  Entries are
    re-appended in file order, so seqs are regenerated monotonically —
    a trimmed source stream loads with a fresh 1-based numbering.
    """
    from repro.stream.broker import StreamBroker
    root = Path(directory)
    if not root.is_dir():
        raise FileNotFoundError(f"no stream directory {root}")
    broker = StreamBroker(max_len=max_len)
    for path in sorted(root.glob("segment-*.jsonl")):
        with path.open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                entry = StreamEntry.from_record(rec)
                broker.stream(entry.channel).append(
                    kind=entry.kind, source=entry.source,
                    dest=entry.dest, time=entry.time,
                    submitted_at=entry.submitted_at, size=entry.size,
                    records=entry.records, summary=entry.summary,
                    targets=entry.targets, local=entry.local,
                    fault=entry.fault)
    return broker
