"""The per-cluster trace collector: spans, trees, the audit log.

One :class:`TraceCollector` hangs on a run's bus (``bus.tracer``, None
when tracing is off).  The stages that start a trace — d-mon's poll and
control roots, SmartPointer's audit — read it there; every later stage
records into the collector its :class:`TraceContext` names, so neither
nodes nor transports hold a binding.  The collector is built
under the same constraints as the telemetry registry — and one more:

* **Passive.**  Recording never schedules simulator events, draws from
  any sim RNG stream, or charges kernel CPU.  A traced run and an
  untraced run of the same seed are behaviourally bit-identical
  (test-enforced).
* **Deterministic.**  Trace ids come from per-node counters, span ids
  from the collector's own counter (which only advances while tracing
  is attached), and head sampling hashes trace ids with a seeded CRC.
* **Bounded.**  At most ``max_traces`` traces are retained (oldest
  evicted first) and at most ``max_spans_per_trace`` spans per trace
  (later spans counted, not stored); the adaptation audit log is a
  bounded deque.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable, Optional

from repro.errors import TracingError
from repro.tracing.context import TraceContext, trace_hash
from repro.tracing.ordering import (check_interval, freeze_attrs,
                                    span_sort_key)

__all__ = ["SpanRecord", "SpanHandle", "SpanTree", "AuditEntry",
           "TraceCollector"]

#: Span status values.
STATUS_OPEN = "open"
STATUS_OK = "ok"
STATUS_DROPPED = "dropped"

#: Adaptation decisions the audit log keeps; older ones are evicted.
MAX_AUDIT = 4096


class SpanRecord:
    """One recorded pipeline stage inside one trace (mutable while
    open; ``end is None`` until finished)."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "stage",
                 "node", "start", "end", "status", "depth", "attrs")

    def __init__(self, trace_id: str, span_id: int,
                 parent_id: Optional[int], name: str, stage: str,
                 node: str, start: float, depth: int,
                 attrs: dict[str, Any]) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.stage = stage
        self.node = node
        self.start = float(start)
        self.end: Optional[float] = None
        self.status = STATUS_OPEN
        self.depth = depth
        self.attrs = attrs

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def sort_key(self) -> tuple[float, float, int]:
        # Span ids are issued in arrival order, so they double as the
        # sequence component of the shared ordering contract.
        return span_sort_key(self.start, self.end, self.span_id)

    def snapshot(self) -> dict:
        """Plain JSON-able view (attrs in the shared sorted order)."""
        return {"trace_id": self.trace_id, "span_id": self.span_id,
                "parent_id": self.parent_id, "name": self.name,
                "stage": self.stage, "node": self.node,
                "start": self.start, "end": self.end,
                "status": self.status, "depth": self.depth,
                "attrs": dict(freeze_attrs(self.attrs))}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<span {self.trace_id}#{self.span_id} {self.name} "
                f"[{self.stage}] {self.status}>")


class SpanHandle:
    """Caller-facing handle for one recorded span."""

    __slots__ = ("record", "collector")

    def __init__(self, record: SpanRecord,
                 collector: "TraceCollector") -> None:
        self.record = record
        self.collector = collector

    @property
    def context(self) -> TraceContext:
        """Context for child stages of this span."""
        rec = self.record
        return TraceContext(trace_id=rec.trace_id, span_id=rec.span_id,
                            collector=self.collector, hop=rec.depth)

    def annotate(self, **attrs: Any) -> "SpanHandle":
        """Merge attributes into the span (open or finished)."""
        self.record.attrs.update(attrs)
        return self

    def finish(self, end: float, status: str = STATUS_OK,
               **attrs: Any) -> "SpanHandle":
        """Close the span at simulation time ``end``."""
        rec = self.record
        if rec.end is not None:
            raise TracingError(
                f"span {rec.name!r} in trace {rec.trace_id!r} finished "
                f"twice")
        check_interval(rec.name, rec.start, end)
        rec.end = float(end)
        rec.status = status
        if attrs:
            rec.attrs.update(attrs)
        return self


@dataclass
class SpanTree:
    """One trace's spans, assembled into a parent/child tree."""

    trace_id: str
    #: All retained spans, in the shared (start, end, seq) order.
    spans: list[SpanRecord]
    #: span id -> ordered child spans.
    children: dict[Optional[int], list[SpanRecord]]
    #: Spans dropped by the per-trace bound (not retained).
    dropped: int

    @property
    def root(self) -> Optional[SpanRecord]:
        roots = self.children.get(None, ())
        return roots[0] if roots else None

    @property
    def complete(self) -> bool:
        """True when every retained span has finished."""
        return all(s.end is not None for s in self.spans)

    def span(self, span_id: int) -> Optional[SpanRecord]:
        for rec in self.spans:
            if rec.span_id == span_id:
                return rec
        return None

    def snapshot(self) -> dict:
        return {"trace_id": self.trace_id, "dropped": self.dropped,
                "spans": [s.snapshot() for s in self.spans]}


@dataclass(frozen=True)
class AuditEntry:
    """One SmartPointer adaptation decision, with its evidence."""

    time: float
    node: str            #: server host that made the decision
    client: str          #: client stream being adapted
    policy: str          #: adaptation policy name
    previous: Optional[str]   #: previous transform (None = first pick)
    chosen: str          #: the transform chosen at ``time``
    #: Observation name -> value the policy saw (NaN = unknown).
    observations: tuple[tuple[str, float], ...]
    #: One entry per monitored metric that fed the decision:
    #: {"metric", "observation", "value", "trace_id", "received_at"} —
    #: trace_id/received_at are None when no traced event delivered it.
    triggers: tuple[dict, ...]

    def snapshot(self) -> dict:
        return {"time": self.time, "node": self.node,
                "client": self.client, "policy": self.policy,
                "previous": self.previous, "chosen": self.chosen,
                "observations": dict(self.observations),
                "triggers": [dict(t) for t in self.triggers]}


class _TraceBuf:
    __slots__ = ("spans", "dropped")

    def __init__(self) -> None:
        self.spans: list[SpanRecord] = []
        self.dropped = 0


class TraceCollector:
    """Bounded, deterministic, head-sampling span store for a cluster."""

    def __init__(self, seed: int = 0, sample_rate: float = 1.0,
                 max_traces: int = 4096,
                 max_spans_per_trace: int = 512) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise TracingError(
                f"sample_rate must be in [0, 1], got {sample_rate!r}")
        if max_traces < 1 or max_spans_per_trace < 1:
            raise TracingError("trace bounds must be positive")
        self.seed = int(seed)
        self.sample_rate = float(sample_rate)
        self.max_traces = int(max_traces)
        self.max_spans_per_trace = int(max_spans_per_trace)
        self._traces: dict[str, _TraceBuf] = {}
        self._next_span = 1
        #: Adaptation decisions, oldest evicted beyond ``MAX_AUDIT``.
        self.audit: deque[AuditEntry] = deque(maxlen=MAX_AUDIT)
        # accounting -------------------------------------------------------
        self.traces_started = 0
        self.traces_sampled_out = 0
        self.traces_evicted = 0
        self.spans_recorded = 0
        self.spans_dropped = 0

    # -- sampling -----------------------------------------------------------

    def sampled(self, trace_id: str) -> bool:
        """Head-sampling decision for one trace id (deterministic)."""
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        return trace_hash(self.seed, trace_id) < self.sample_rate

    # -- recording ----------------------------------------------------------

    def begin_trace(self, trace_id: str, name: str, stage: str,
                    node: str, start: float,
                    **attrs: Any) -> Optional[SpanHandle]:
        """Open a trace's root span; None when sampled out."""
        if not self.sampled(trace_id):
            self.traces_sampled_out += 1
            return None
        if trace_id in self._traces:
            raise TracingError(f"trace {trace_id!r} already exists")
        while len(self._traces) >= self.max_traces:
            oldest = next(iter(self._traces))
            del self._traces[oldest]
            self.traces_evicted += 1
        self._traces[trace_id] = _TraceBuf()
        self.traces_started += 1
        return self._record(trace_id, None, name, stage, node, start,
                            depth=0, attrs=attrs)

    def start_span(self, ctx: Optional[TraceContext], name: str,
                   stage: str, node: str, start: float,
                   **attrs: Any) -> Optional[SpanHandle]:
        """Open a child span under ``ctx`` (None-safe: unsampled or
        evicted traces propagate None down the pipeline)."""
        if ctx is None:
            return None
        return self._record(ctx.trace_id, ctx.span_id, name, stage,
                            node, start, depth=ctx.hop + 1, attrs=attrs)

    def record_span(self, ctx: Optional[TraceContext], name: str,
                    stage: str, node: str, start: float, end: float,
                    status: str = STATUS_OK,
                    **attrs: Any) -> Optional[SpanHandle]:
        """Record an already-completed span in one call."""
        handle = self.start_span(ctx, name, stage, node, start, **attrs)
        if handle is not None:
            handle.finish(end, status=status)
        return handle

    def record_adaptation(self, time: float, node: str, client: str,
                          policy: str, previous: Optional[str],
                          chosen: str,
                          observations: dict[str, float],
                          triggers: Iterable[dict]) -> AuditEntry:
        """Append one adaptation decision to the audit trail."""
        entry = AuditEntry(
            time=float(time), node=node, client=client, policy=policy,
            previous=previous, chosen=chosen,
            observations=freeze_attrs(observations),
            triggers=tuple(dict(t) for t in triggers))
        self.audit.append(entry)
        return entry

    def _record(self, trace_id: str, parent_id: Optional[int],
                name: str, stage: str, node: str, start: float,
                depth: int, attrs: dict) -> Optional[SpanHandle]:
        buf = self._traces.get(trace_id)
        if buf is None:
            # The trace was evicted (or never sampled via begin_trace):
            # downstream stages degrade to untraced, never crash.
            self.spans_dropped += 1
            return None
        if len(buf.spans) >= self.max_spans_per_trace:
            buf.dropped += 1
            self.spans_dropped += 1
            return None
        record = SpanRecord(trace_id=trace_id,
                            span_id=self._next_span,
                            parent_id=parent_id, name=name,
                            stage=stage, node=node, start=start,
                            depth=depth, attrs=dict(attrs))
        self._next_span += 1
        buf.spans.append(record)
        self.spans_recorded += 1
        return SpanHandle(record, self)

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._traces)

    def __contains__(self, trace_id: str) -> bool:
        return trace_id in self._traces

    def trace_ids(self) -> list[str]:
        """Retained trace ids in insertion (root-start) order."""
        return list(self._traces)

    def tree(self, trace_id: str) -> Optional[SpanTree]:
        """Assemble one trace's span tree (None when not retained).

        Spans and every child list follow the shared
        (start, end, sequence) ordering, so out-of-order hop
        completion cannot reorder the rendered tree.
        """
        buf = self._traces.get(trace_id)
        if buf is None:
            return None
        spans = sorted(buf.spans, key=SpanRecord.sort_key)
        retained = {s.span_id for s in spans}
        children: dict[Optional[int], list[SpanRecord]] = {}
        for span in spans:
            parent = span.parent_id
            if parent is not None and parent not in retained:
                # Parent was dropped by the per-trace bound: surface
                # the orphan at the top level rather than losing it.
                parent = None
            children.setdefault(parent, []).append(span)
        return SpanTree(trace_id=trace_id, spans=spans,
                        children=children, dropped=buf.dropped)

    def trees(self) -> list[SpanTree]:
        """Every retained trace, assembled, in insertion order."""
        return [self.tree(tid) for tid in self._traces]

    def snapshot(self) -> dict:
        """Full JSON-able dump (what the determinism tests compare)."""
        return {
            "seed": self.seed,
            "sample_rate": self.sample_rate,
            "traces_started": self.traces_started,
            "traces_sampled_out": self.traces_sampled_out,
            "traces_evicted": self.traces_evicted,
            "spans_recorded": self.spans_recorded,
            "spans_dropped": self.spans_dropped,
            "traces": {tid: self.tree(tid).snapshot()
                       for tid in self._traces},
            "audit": [entry.snapshot() for entry in self.audit],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TraceCollector seed={self.seed} "
                f"rate={self.sample_rate:g} {len(self._traces)} traces "
                f"{self.spans_recorded} spans>")
