"""Trace exporters: Chrome trace-event (Perfetto) JSON and text trees.

:func:`to_chrome_trace` emits the Trace Event Format's JSON object
flavour (``{"traceEvents": [...]}``) with complete-event (``"ph": "X"``)
slices, loadable directly in ``ui.perfetto.dev`` or ``chrome://tracing``
— each simulated node becomes a process, each trace a thread within
it, so the fan-out of one monitoring event reads as one lane per trace.

:func:`render_tree` draws one span tree as indented ASCII with
per-span stage, relative timing, status and attributes — the quick
look the CLI prints.
"""

from __future__ import annotations

from repro.tracing.collector import (SpanRecord, SpanTree,
                                     TraceCollector)
from repro.tracing.ordering import freeze_attrs

__all__ = ["to_chrome_trace", "render_tree"]

#: Simulation seconds -> trace-event microseconds.
_US = 1e6


def to_chrome_trace(collector: TraceCollector) -> dict:
    """Export every retained trace as a Chrome trace-event JSON object.

    Only finished spans become slices (an open span has no duration to
    draw); every slice carries the full span identity in ``args`` so
    Perfetto's query view can join parents to children.
    """
    trees = collector.trees()

    # Stable pid/tid assignment: nodes sorted by name, traces in
    # collector insertion order.
    nodes = sorted({span.node for tree in trees for span in tree.spans})
    pid_of = {node: i + 1 for i, node in enumerate(nodes)}
    tid_of = {tree.trace_id: i + 1 for i, tree in enumerate(trees)}

    events: list[dict] = []
    for node in nodes:
        events.append({"name": "process_name", "ph": "M",
                       "pid": pid_of[node], "tid": 0,
                       "args": {"name": node}})
    for tree in trees:
        named: set[tuple[int, int]] = set()
        for span in tree.spans:
            if span.end is None:
                continue
            pid = pid_of[span.node]
            tid = tid_of[tree.trace_id]
            if (pid, tid) not in named:
                named.add((pid, tid))
                events.append({"name": "thread_name", "ph": "M",
                               "pid": pid, "tid": tid,
                               "args": {"name": tree.trace_id}})
            args = dict(freeze_attrs(span.attrs))
            args.update({"trace_id": span.trace_id,
                         "span_id": span.span_id,
                         "parent_id": span.parent_id,
                         "status": span.status})
            events.append({
                "name": span.name,
                "cat": span.stage,
                "ph": "X",
                "ts": span.start * _US,
                "dur": (span.end - span.start) * _US,
                "pid": pid,
                "tid": tid,
                "args": args,
            })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.tracing",
            "n_traces": len(trees),
            "seed": collector.seed,
            "sample_rate": collector.sample_rate,
        },
    }


def _fmt_attrs(span: SpanRecord) -> str:
    items = freeze_attrs(span.attrs)
    if not items:
        return ""
    rendered = []
    for key, value in items:
        if isinstance(value, float):
            rendered.append(f"{key}={value:.4g}")
        else:
            rendered.append(f"{key}={value}")
    return " " + " ".join(rendered)


def _fmt_offset(seconds: float) -> str:
    if seconds >= 1.0:
        return f"+{seconds:.3f}s"
    return f"+{seconds * 1e3:.3f}ms"


def render_tree(tree: SpanTree) -> str:
    """One span tree as indented ASCII (children in shared order)."""
    root = tree.root
    origin = root.start if root is not None else (
        tree.spans[0].start if tree.spans else 0.0)
    header = (f"trace {tree.trace_id} — {len(tree.spans)} spans"
              + (f", {tree.dropped} dropped" if tree.dropped else ""))
    lines = [header]

    def emit(span: SpanRecord, depth: int) -> None:
        if span.end is None:
            timing = f"{_fmt_offset(span.start - origin)} .. open"
        else:
            timing = (f"{_fmt_offset(span.start - origin)} "
                      f"dur={_fmt_offset(span.end - span.start)[1:]}")
        status = "" if span.status == "ok" else f" !{span.status}"
        lines.append(f"{'  ' * depth}- {span.name} [{span.stage}] "
                     f"@{span.node} {timing}{status}{_fmt_attrs(span)}")
        for child in tree.children.get(span.span_id, ()):
            emit(child, depth + 1)

    for top in tree.children.get(None, ()):
        emit(top, 1)
    return "\n".join(lines)
