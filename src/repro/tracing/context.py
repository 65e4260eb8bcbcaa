"""Trace context: the tag that rides along with every traced event.

A :class:`TraceContext` names one position inside one causal trace —
the trace id, the span under which the next stage should record its
work, the collector that holds the trace, and how many stages deep the
event already is.  A stage handed a context records into
``ctx.collector``: only the stage that starts a trace needs to know
where the run's collector lives (``bus.tracer``).  Contexts are
immutable; each pipeline stage derives a child context from the span
it opened and hands *that* to the next stage (event field, message
attribute), exactly like W3C traceparent propagation but in-process.

Sampling is decided once, at the root (*head sampling*): a trace id is
hashed with a stable CRC (never Python's randomised ``hash``) against
the collector's seed, so the same seed samples the same traces in
every run — traces are bit-identical run-to-run.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any

__all__ = ["TraceContext", "TraceRef", "trace_hash"]

#: Denominator of the sampling hash: crc32 yields 32-bit values.
_HASH_SPACE = float(2 ** 32)


def trace_hash(seed: int, trace_id: str) -> float:
    """Deterministic hash of a trace id into [0, 1).

    Seeded and stable across processes and platforms — this is what
    makes head sampling reproducible (``PYTHONHASHSEED`` never enters
    the picture).
    """
    digest = zlib.crc32(f"{seed}:{trace_id}".encode("utf-8"))
    return digest / _HASH_SPACE


@dataclass(frozen=True)
class TraceContext:
    """Immutable position inside one causal trace."""

    trace_id: str     #: the trace this event belongs to
    span_id: int      #: parent span for the next recorded stage
    #: The :class:`~repro.tracing.TraceCollector` holding the trace.
    collector: Any = field(compare=False, repr=False)
    hop: int = 0      #: pipeline depth of that span (root = 0)


@dataclass(frozen=True)
class TraceRef:
    """Provenance pointer: which trace delivered a cached value.

    The d-mon remote-metric cache keeps one of these per
    ``(host, metric)`` while tracing is attached, so the adaptation
    audit trail can name the exact monitoring event behind a decision.
    """

    trace_id: str
    received_at: float
