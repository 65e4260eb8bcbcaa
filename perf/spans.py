"""In-memory spans recorded from the benchmark's side of each layer boundary.

The traced pass replaces a public callable (``Dproc.add_cluster_node``,
``DMon.poll_once``, ``ChannelEndpoint.submit``, ...) with a wrapper that
records ``(parent, name, start, end)``.  The calls it wraps are
synchronous, so a plain stack gives the parent link on both backends:
the asyncio loop never interleaves two of them.  Spans inside the
program are a later issue; nothing under ``src/`` knows this file.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter
from typing import Optional

__all__ = ["SpanLog"]


class SpanLog:
    """Parent-linked spans, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        #: ``[parent index or -1, name, start, end]`` per span.
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str,
             capture: Optional[list] = None, capture_max: int = 64) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``capture`` collects up to ``capture_max`` return values: the
        inputs the isolated layer probes replay after the run.
        """
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([stack[-1] if stack else -1, name,
                          perf_counter(), 0.0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = perf_counter()
            if capture is not None and len(capture) < capture_max:
                capture.append(result)
            return result

        setattr(owner, attr, traced)

    def summary(self, since: float = 0.0,
                until: float = float("inf")) -> dict[str, dict]:
        """Per span name: count, total seconds and self seconds.

        Self time is the span's duration minus what its direct children
        cover.  Only spans that *start* in ``[since, until)`` count, so
        the run phase can be summarised apart from set-up.
        """
        child_time = [0.0] * len(self.spans)
        for parent, _name, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for index, (_parent, name, start, end) in enumerate(self.spans):
            if not since <= start < until:
                continue
            row = out.setdefault(name, {"count": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[index]
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line (index = line number)."""
        with open(path, "w") as fh:
            for parent, name, start, end in self.spans:
                fh.write(json.dumps({"parent": parent, "name": name,
                                     "start": start, "end": end}))
                fh.write("\n")
