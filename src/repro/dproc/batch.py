"""RecordBatch: one d-mon poll's published records, kept as columns.

The one record type from a module's ``collect`` to the subscriber's
cache.  d-mon builds one batch per poll from the value columns its
modules return, its parameters and filters narrow it by index, the
live codec packs the columns as they are (``MONITOR`` frames) and
decodes them back into a batch, and the subscribing d-mon applies it
record by record to the host the event came from.  A simulated
fan-out shares one batch by reference across every delivery.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, Optional, Sequence

from repro.dproc.metrics import MetricId

__all__ = ["RecordBatch"]


@dataclass(slots=True, eq=False)
class RecordBatch:
    """``(ids, values)`` columns sampled at one time, plus the
    optional keyed per-process sections."""

    #: Metric ids, in publication order.
    ids: Sequence[MetricId]
    #: One value per id.
    values: Sequence[float]
    #: When the poll sampled them.
    ts: float
    #: Sketch-filtered top-K pairs: pid -> ranked weight.
    proc_top: Optional[dict[int, float]] = None
    #: Unfiltered per-process rows: pid -> (cpu, mem, io).
    procs: Optional[dict[int, tuple[float, float, float]]] = None

    def __len__(self) -> int:
        return len(self.ids)

    def records(self) -> Iterator[tuple[MetricId, float, float]]:
        """``(id, value, ts)`` per record, in publication order."""
        return zip(self.ids, self.values, repeat(self.ts))
