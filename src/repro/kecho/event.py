"""KECho events.

An event is an opaque payload submitted to a channel and delivered to
every subscriber's handler.  Sizes are explicit (bytes): the publisher
declares how large the encoded event is, and the cost model charges
encode/send/receive CPU accordingly.

One submit builds one event; every delivery of it hands the handler
that same object, so handlers must not mutate it.  Per-delivery state
(the delivery time, the delivery's trace span) travels as arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

__all__ = ["ChannelEvent"]


@dataclass(slots=True)
class ChannelEvent:
    """One event flowing through a KECho channel."""

    channel: str                 #: channel name
    source: str                  #: publishing host name
    payload: Any                 #: application data (opaque)
    size: float                  #: encoded size in bytes
    submitted_at: float = 0.0    #: simulation time of submission
    #: Causal-trace context (a :class:`repro.tracing.TraceContext`) of
    #: the submit span; None when untraced.
    trace: Optional[Any] = None
