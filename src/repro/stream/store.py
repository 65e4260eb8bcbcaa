"""File-backed persistence: JSONL segments for the stream broker.

``dump_broker`` writes every retained entry as one JSON row into a
per-channel segment file (``segment-<channel>.jsonl``) and
``load_broker`` re-reads that layout, so a recorded run on either
backend can be reconciled or replayed offline::

    broker.dump("run1/")                 # after a run
    broker = StreamBroker.load("run1/")  # much later
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.stream.entry import StreamEntry

__all__ = ["dump_broker", "load_broker",
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


def load_broker(directory):
    """Rebuild an in-memory broker from :func:`dump_broker` output.

    Entries are re-appended in file order, so seqs are regenerated
    monotonically — a trimmed source stream loads with a fresh 1-based
    numbering.
    """
    from repro.stream.broker import StreamBroker
    root = Path(directory)
    if not root.is_dir():
        raise FileNotFoundError(f"no stream directory {root}")
    broker = StreamBroker()
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
