"""Telemetry instruments: counters, gauges, histograms.

Design constraints (they matter more here than in an ordinary metrics
library, because the *monitoring system being measured is the product*):

* **Deterministic.**  No wall-clock reads, no RNG, no id generation —
  every timestamp is the caller-supplied simulation time.  Two seeded
  runs produce bit-identical snapshots.
* **Passive.**  Recording never schedules simulator events, charges
  CPU cost, or touches the network; the telemetry layer only
  *observes* costs other layers already compute.
* **Bounded.**  Histograms are fixed-size bucket arrays, so day-long
  large-cluster runs cannot grow telemetry state without bound.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Optional, Sequence

__all__ = ["Counter", "Gauge", "Histogram", "DEFAULT_LATENCY_BOUNDS"]

#: Default histogram bucket upper bounds (seconds): spans microseconds
#: (kernel costs) through tens of seconds (WAN backoff), log-spaced.
DEFAULT_LATENCY_BOUNDS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)


class Counter:
    """A monotonically increasing total (events, seconds, bytes)."""

    __slots__ = ("name", "value", "updates")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        #: Number of ``inc`` calls (lets reports derive per-event means).
        self.updates = 0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} can only increase "
                f"(got {amount!r})")
        self.value += amount
        self.updates += 1

    @property
    def mean(self) -> float:
        """Mean increment per update (NaN before the first update)."""
        if self.updates == 0:
            return math.nan
        return self.value / self.updates

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value,
                "updates": self.updates}


class Gauge:
    """A value that can move both ways (queue depth, in-flight count).

    Tracks the running extremes so a report can show the high-water
    mark without retaining a sample series.
    """

    __slots__ = ("name", "value", "high", "low", "updates")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.high = -math.inf
        self.low = math.inf
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = value
        self.updates += 1
        if value > self.high:
            self.high = value
        if value < self.low:
            self.low = value

    def adjust(self, delta: float) -> None:
        self.set(self.value + delta)

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value,
                "high": (None if self.updates == 0 else self.high),
                "low": (None if self.updates == 0 else self.low),
                "updates": self.updates}


class Histogram:
    """Fixed-bucket distribution of observed values.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    overflow bucket catches everything above the last edge.  NaN
    observations are counted separately (never silently dropped, never
    corrupting the sums).
    """

    __slots__ = ("name", "bounds", "counts", "count", "total",
                 "min", "max", "nan_count")

    def __init__(self, name: str,
                 bounds: Optional[Sequence[float]] = None) -> None:
        edges = tuple(float(b) for b in
                      (DEFAULT_LATENCY_BOUNDS if bounds is None
                       else bounds))
        if not edges:
            raise ValueError(
                f"histogram {name!r} needs at least one bound")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError(
                f"histogram {name!r} bounds must strictly increase")
        self.name = name
        self.bounds = edges
        self.counts = [0] * (len(edges) + 1)   # + overflow bucket
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.nan_count = 0

    def observe(self, value: float) -> None:
        if value != value:  # NaN
            self.nan_count += 1
            return
        self.counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Mean of non-NaN observations (NaN when empty)."""
        if self.count == 0:
            return math.nan
        return self.total / self.count

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (0..1) from the bucket upper edges.

        Returns NaN when empty; values in the overflow bucket report
        the last finite edge (the histogram cannot see past it).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if self.count == 0:
            return math.nan
        rank = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank and c:
                return self.bounds[min(i, len(self.bounds) - 1)]
        return self.bounds[-1]

    def snapshot(self) -> dict:
        return {"type": "histogram", "count": self.count,
                "total": self.total, "mean": self.mean,
                "min": (None if self.count == 0 else self.min),
                "max": (None if self.count == 0 else self.max),
                "nan_count": self.nan_count,
                "bounds": list(self.bounds),
                "counts": list(self.counts)}
