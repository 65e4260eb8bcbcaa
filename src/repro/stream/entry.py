"""Stream entries: the durable record of one KECho data-plane action.

Every event that crosses a channel leaves up to three kinds of entries
in the broker's per-channel log:

* ``submit``  — the publisher pushed the event (one per submit call,
  carrying the intended remote targets and whether a local delivery
  is expected);
* ``deliver`` — one subscriber's endpoint dispatched the event (one
  per receiving host, local or remote);
* ``drop``    — the transport killed one host's copy (fault plane,
  injected loss, congestion), annotated with the fault kind.

Entries are correlated by the *natural key* ``(channel, source,
submitted_at)`` rather than the in-process event id: delivered copies
and wire-decoded events get fresh ``eid`` values, but the natural key
survives the live binary codec byte-for-byte (f64 round-trips are
exact), so the same pairing works on sim and live runs.

Monitor payloads are normalised to ``(metric-ABI-id, value, timestamp)``
records — the same triples the live wire format packs — so a replayed
stream carries exactly the ground truth procfs was fed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.dproc.batch import RecordBatch

__all__ = ["StreamEntry", "SUBMIT", "DELIVER", "DROP",
           "normalize_payload"]

SUBMIT = "submit"
DELIVER = "deliver"
DROP = "drop"


def normalize_payload(payload: Any) -> tuple[tuple, str]:
    """Reduce a channel payload to ``(records, summary)``.

    d-mon monitor payloads (a :class:`~repro.dproc.batch.RecordBatch`)
    become a tuple of ``(int metric-ABI-id, value, timestamp)`` records
    in publication order; anything else keeps an empty record tuple and
    a short type summary (control messages name their verb).
    """
    if isinstance(payload, RecordBatch):
        records = tuple((int(m), float(v), float(ts))
                        for m, v, ts in payload.records())
        return records, ""
    from repro.kecho.control import ControlMessage
    if isinstance(payload, ControlMessage):
        return (), f"control:{payload.command.partition(' ')[0]}"
    return (), type(payload).__name__


@dataclass(slots=True)
class StreamEntry:
    """One entry in a channel's append-only log.

    Treat as immutable once appended.  (Not ``frozen=True``: entry
    construction sits on the delivery hot path, and a frozen dataclass
    pays an ``object.__setattr__`` per field — measurably slower at
    bench fan-outs.)
    """

    #: Monotone per-channel id, assigned by the stream on append.
    seq: int
    #: ``submit`` | ``deliver`` | ``drop``.
    kind: str
    channel: str
    #: Publishing host.
    source: str
    #: Receiving host (empty for submits).
    dest: str
    #: When the entry was recorded (submit/delivery/drop time).
    time: float
    #: The event's submission time — half of the natural key.
    submitted_at: float
    #: Declared wire size (bytes).
    size: float
    #: Normalised monitor records ``(metric_id, value, ts)``.
    records: tuple = ()
    #: Payload summary for non-monitor events ("" for monitor).
    summary: str = ""
    #: Submit only: remote hosts the event was pushed to.
    targets: tuple = ()
    #: Submit only: a local delivery on the source host is expected.
    local: bool = False
    #: Drop only: the fault kind ("crash:<host>", "partition",
    #: "injected loss", "congestion", ...).
    fault: str = ""

    @property
    def key(self) -> tuple[str, str, float]:
        """Natural correlation key ``(channel, source, submitted_at)``."""
        return (self.channel, self.source, self.submitted_at)

    @property
    def latency(self) -> float:
        """Submission-to-record latency (meaningful for deliveries)."""
        return self.time - self.submitted_at

    def to_record(self) -> dict:
        """JSON-serialisable form (the JSONL segment row)."""
        rec = {
            "seq": self.seq, "kind": self.kind, "channel": self.channel,
            "source": self.source, "dest": self.dest, "time": self.time,
            "submitted_at": self.submitted_at, "size": self.size,
        }
        if self.records:
            rec["records"] = [list(r) for r in self.records]
        if self.summary:
            rec["summary"] = self.summary
        if self.targets:
            rec["targets"] = list(self.targets)
        if self.local:
            rec["local"] = True
        if self.fault:
            rec["fault"] = self.fault
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "StreamEntry":
        return cls(
            seq=int(rec["seq"]), kind=rec["kind"],
            channel=rec["channel"], source=rec["source"],
            dest=rec.get("dest", ""), time=float(rec["time"]),
            submitted_at=float(rec["submitted_at"]),
            size=float(rec["size"]),
            records=tuple((int(m), float(v), float(ts))
                          for m, v, ts in rec.get("records", ())),
            summary=rec.get("summary", ""),
            targets=tuple(rec.get("targets", ())),
            local=bool(rec.get("local", False)),
            fault=rec.get("fault", ""))
