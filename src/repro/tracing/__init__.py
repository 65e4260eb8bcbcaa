"""Deterministic causal tracing for the dproc monitoring pipeline.

Aggregate telemetry (:mod:`repro.telemetry`) answers "how much, on
average"; this package answers "where did *this one event* spend its
time, and what did it cause".  A :class:`TraceCollector` on a run's
bus (``bus.tracer``) records a span tree per monitoring or
control event — module sample, d-mon parameter/filter evaluation,
KECho submit, per-subscriber transport hops (with fault annotations),
delivery, remote-cache/procfs update — and an audit trail linking each
SmartPointer adaptation back to the monitoring events that triggered
it.

Tracing is *passive*: no scheduled events, no draws from any sim RNG
stream, no kernel CPU charged.  Seeded runs are bit-identical with
tracing attached or not, and two traced runs of the same seed retain
identical span trees (head sampling hashes trace ids with a seeded
CRC, never Python's randomised ``hash``).
"""

from repro.tracing.analysis import (adaptation_audit, critical_path,
                                    latency_breakdown,
                                    render_audit, render_breakdown)
from repro.tracing.collector import (AuditEntry, SpanHandle,
                                     SpanRecord, SpanTree,
                                     TraceCollector)
from repro.tracing.context import TraceContext, TraceRef, trace_hash
from repro.tracing.export import render_tree, to_chrome_trace

__all__ = [
    "TraceContext", "TraceRef", "trace_hash",
    "TraceCollector", "SpanRecord", "SpanHandle", "SpanTree",
    "AuditEntry",
    "critical_path", "latency_breakdown", "adaptation_audit",
    "render_breakdown", "render_audit",
    "to_chrome_trace", "render_tree",
]
