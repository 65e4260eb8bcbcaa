"""Span bookkeeping: interval validation, attrs, ordering.

What the :class:`~repro.tracing.TraceCollector` and its exporters
agree on: what a valid interval is, how attributes are normalised,
and how spans that share a timestamp are ordered — so the same instant
never renders in two different orders.

The ordering contract: spans sort by *(start, end, arrival sequence)*.
Open spans (``end is None``) sort after every completed span that
started at the same time — a span still in flight is, by definition,
the later story.  Ties fall back to arrival order, the collector's
span-id counter — deterministic because the simulation itself is.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional

__all__ = ["check_interval", "freeze_attrs", "span_sort_key"]


def check_interval(name: str, start: float, end: float) -> None:
    """Validate one recorded interval; raises ``ValueError`` on misuse.

    A span may be instantaneous (``end == start``) but never reversed,
    and its endpoints must be real timestamps, not NaN.
    """
    if math.isnan(start) or math.isnan(end):
        raise ValueError(
            f"span {name!r} has a NaN endpoint "
            f"(start={start!r}, end={end!r})")
    if end < start:
        raise ValueError(
            f"span {name!r} ends ({end}) before it starts "
            f"({start})")


def freeze_attrs(attrs: Mapping[str, object]) -> tuple:
    """Normalise span attributes to a sorted, hashable tuple.

    Sorting by key makes two spans with the same attributes compare
    (and serialise) identically no matter the call-site keyword order.
    """
    return tuple(sorted(attrs.items()))


def span_sort_key(start: float, end: Optional[float],
                  seq: int) -> tuple[float, float, int]:
    """Stable sort key for spans: (start, end, arrival sequence).

    ``end=None`` (a still-open span) sorts after any finished span with
    the same start.
    """
    return (start, math.inf if end is None else end, seq)
