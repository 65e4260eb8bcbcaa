"""Trace analyzers: critical path, latency breakdown, adaptation audit.

Two consumers of the assembled span trees:

* :func:`latency_breakdown` — decomposes each end-to-end trace along
  its *critical path* (the chain of spans ending at the latest-ending
  span) and aggregates per-stage p50/p95/p99, the per-event analogue
  of the paper's Figures 9–10 latency curves;
* :func:`adaptation_audit` — resolves each recorded SmartPointer
  adaptation back to the monitoring trace(s) that delivered its
  inputs, naming the metric, the threshold/filter evaluation that let
  the sample through, and the monitoring latency it experienced.

Everything here is pure post-processing over a
:class:`~repro.tracing.collector.TraceCollector` — no simulator state,
no RNG, safe to run mid-simulation or after.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.runtime.series import nearest_rank
from repro.tracing.collector import SpanRecord, SpanTree, TraceCollector

__all__ = ["critical_path", "latency_breakdown", "adaptation_audit",
           "render_breakdown", "render_audit"]

#: Stages whose spans mark a trace as having reached a consumer.
TERMINAL_STAGES = frozenset({"delivery", "update"})

#: Canonical stage ordering for reports (unknown stages sort after).
STAGE_ORDER = ("dmon", "module", "dmon.param", "dmon.filter", "kecho",
               "transport", "delivery", "update", "control")


def critical_path(tree: SpanTree) -> list[tuple[SpanRecord, float]]:
    """The chain of spans ending at the trace's latest finished span.

    Returns ``[(span, seconds attributed to it), ...]`` from the root
    of the chain down to the terminal span.  A span's share is the gap
    until its successor starts (the time the event spent *in* that
    stage before the next stage took over); the terminal span keeps
    its own full duration.  The shares therefore sum exactly to
    ``terminal.end - chain_root.start``.
    """
    finished = [s for s in tree.spans if s.end is not None]
    if not finished:
        return []
    by_id = {s.span_id: s for s in finished}
    terminal = max(finished, key=lambda s: (s.end, s.span_id))
    chain = [terminal]
    current = terminal
    while (current.parent_id is not None
           and current.parent_id in by_id):
        current = by_id[current.parent_id]
        chain.append(current)
    chain.reverse()
    segments: list[tuple[SpanRecord, float]] = []
    for i, span in enumerate(chain):
        if i + 1 < len(chain):
            share = chain[i + 1].start - span.start
        else:
            share = span.end - span.start
        segments.append((span, max(0.0, share)))
    return segments


def _stats(values: list[float]) -> dict:
    ordered = sorted(values)
    total = sum(ordered)
    return {"count": len(ordered),
            "mean": total / len(ordered) if ordered else math.nan,
            "p50": nearest_rank(ordered, 0.50),
            "p95": nearest_rank(ordered, 0.95),
            "p99": nearest_rank(ordered, 0.99),
            "max": ordered[-1] if ordered else math.nan}


def latency_breakdown(collector: TraceCollector) -> dict:
    """Per-stage critical-path decomposition across all end-to-end
    traces (those whose critical path reaches a delivery/update span).

    Per trace, each critical-path span's share is attributed to its
    stage; stage shares sum to that trace's end-to-end latency.  The
    report aggregates p50/p95/p99 per stage and for the total.
    """
    per_stage: dict[str, list[float]] = {}
    end_to_end: list[float] = []
    used = 0
    skipped = 0
    for tree in collector.trees():
        segments = critical_path(tree)
        if not segments or segments[-1][0].stage not in TERMINAL_STAGES:
            skipped += 1
            continue
        used += 1
        shares: dict[str, float] = {}
        for span, share in segments:
            shares[span.stage] = shares.get(span.stage, 0.0) + share
        end_to_end.append(sum(shares.values()))
        for stage, share in shares.items():
            per_stage.setdefault(stage, []).append(share)

    def stage_rank(stage: str) -> tuple[int, str]:
        try:
            return (STAGE_ORDER.index(stage), stage)
        except ValueError:
            return (len(STAGE_ORDER), stage)

    return {
        "source": "repro.tracing",
        "n_traces": used,
        "n_traces_skipped": skipped,
        "end_to_end": _stats(end_to_end),
        "stages": {stage: _stats(per_stage[stage])
                   for stage in sorted(per_stage, key=stage_rank)},
    }


def _resolve_trigger(collector: TraceCollector, trigger: dict) -> dict:
    """Augment one audit trigger with the evaluation that passed it.

    Looks up the monitoring trace that delivered the metric and pulls
    the d-mon decision span for it — a ``dmon.param`` span names the
    threshold/period rule, a ``dmon.filter`` span names the dynamic
    filter.  Falls back gracefully when the trace was evicted.
    """
    resolved = dict(trigger)
    resolved.setdefault("rule", None)
    resolved.setdefault("filter_id", None)
    resolved.setdefault("monitor_latency", None)
    trace_id = trigger.get("trace_id")
    if trace_id is None:
        return resolved
    tree = collector.tree(trace_id)
    if tree is None:
        return resolved
    metric = trigger.get("metric")
    for span in tree.spans:
        if (span.stage == "dmon.param"
                and span.attrs.get("metric") == metric):
            resolved["rule"] = span.attrs.get("rule")
            break
        if (span.stage == "dmon.filter"
                and metric in span.attrs.get("kept", ())):
            resolved["filter_id"] = span.attrs.get("filter_id")
            break
    root = tree.root
    received = trigger.get("received_at")
    if root is not None and received is not None:
        resolved["monitor_latency"] = received - root.start
    return resolved


def adaptation_audit(collector: TraceCollector) -> list[dict]:
    """The audit trail, with every trigger resolved against its trace.

    One dict per adaptation decision; ``triggers`` gains ``rule`` /
    ``filter_id`` (which evaluation passed the sample) and
    ``monitor_latency`` (poll start to arrival at the decision node).
    """
    out = []
    for entry in collector.audit:
        record = entry.snapshot()
        record["triggers"] = [_resolve_trigger(collector, t)
                              for t in record["triggers"]]
        out.append(record)
    return out


# -- text rendering ----------------------------------------------------------

def _fmt_seconds(value: float) -> str:
    if value != value:  # NaN
        return "-"
    if value >= 1.0:
        return f"{value:.3f}s"
    return f"{value * 1e3:.3f}ms"


def render_breakdown(report: dict) -> str:
    """Fixed-width table of a :func:`latency_breakdown` report."""
    lines = [f"critical-path latency breakdown "
             f"({report['n_traces']} end-to-end traces, "
             f"{report['n_traces_skipped']} skipped)"]
    header = (f"  {'stage':<12} {'count':>6} {'p50':>10} {'p95':>10} "
              f"{'p99':>10} {'max':>10}")
    lines.append(header)
    rows = list(report["stages"].items())
    rows.append(("end-to-end", report["end_to_end"]))
    for stage, stats in rows:
        lines.append(
            f"  {stage:<12} {stats['count']:>6} "
            f"{_fmt_seconds(stats['p50']):>10} "
            f"{_fmt_seconds(stats['p95']):>10} "
            f"{_fmt_seconds(stats['p99']):>10} "
            f"{_fmt_seconds(stats['max']):>10}")
    return "\n".join(lines)


def render_audit(entries: list[dict], limit: Optional[int] = None) -> str:
    """Readable adaptation audit trail (most recent last)."""
    if not entries:
        return "adaptation audit: no decisions recorded"
    shown = entries if limit is None else entries[-limit:]
    lines = [f"adaptation audit trail "
             f"({len(entries)} decisions, showing {len(shown)})"]
    for entry in shown:
        change = (f"{entry['previous']} -> {entry['chosen']}"
                  if entry["previous"] else f"start {entry['chosen']}")
        lines.append(f"  [t={entry['time']:.2f}] {entry['node']}: "
                     f"stream to {entry['client']} via "
                     f"{entry['policy']}: {change}")
        for trig in entry["triggers"]:
            evidence = []
            if trig.get("rule"):
                evidence.append(f"rule '{trig['rule']}'")
            if trig.get("filter_id"):
                evidence.append(f"filter '{trig['filter_id']}'")
            if trig.get("trace_id"):
                evidence.append(f"trace {trig['trace_id']}")
            if trig.get("monitor_latency") is not None:
                evidence.append(
                    "monitor latency "
                    f"{_fmt_seconds(trig['monitor_latency'])}")
            detail = "; ".join(evidence) if evidence else "no trace"
            lines.append(f"      {trig['metric']} = "
                         f"{trig['value']:.4g}  ({detail})")
    return "\n".join(lines)
