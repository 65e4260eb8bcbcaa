"""A deterministic, bounded, in-memory time-series store.

The metrics plane's substrate: fixed-interval ring series with labels,
per-bucket count/sum/min/max/last, and windowed queries
(:meth:`TimeSeriesDB.rate`, :meth:`~TimeSeriesDB.avg_over_time`,
:meth:`~TimeSeriesDB.quantile_over_time`).  Design constraints mirror
:mod:`repro.telemetry.instruments` — the store observes the monitor,
so it must never perturb it:

* **Deterministic.**  No wall-clock reads, no RNG, no dict-order
  dependence: every timestamp is caller-supplied, bucket indices are
  integers (``floor(t / interval)``), and every export walks keys in
  sorted order.  Two seeded runs produce byte-identical
  :meth:`TimeSeriesDB.export_json` documents.
* **Bounded.**  Each series is one ring of at most
  :data:`SERIES_CAPACITY` per-interval buckets; the oldest falls off
  (counted in :attr:`Series.dropped`), so memory per series does not
  grow with run length.  A windowed query that reaches a dropped
  bucket raises :class:`ObsError` rather than answering short, and
  the plane refuses a health rule whose window the ring cannot hold.
* **Passive.**  Observing a sample only appends to the store; queries
  are pure reads.
"""

from __future__ import annotations

import json
import math
from collections import deque
from typing import Mapping, Optional, Sequence

from repro.errors import ReproError
from repro.runtime.series import nearest_rank

__all__ = ["ObsError", "Bucket", "Series", "TimeSeriesDB",
           "series_key", "SERIES_CAPACITY"]

#: Buckets one series keeps.  A window of ``w`` seconds reads the
#: ``w / interval + 1`` buckets in ``[now - w, now]``, so a full ring
#: answers windows up to ``(SERIES_CAPACITY - 1) * interval``.
SERIES_CAPACITY = 240


class ObsError(ReproError):
    """Misuse of the observability plane (bad window, unknown series)."""


def series_key(name: str, labels: Mapping[str, str] | Sequence = ()
               ) -> str:
    """Canonical series identity: ``name{k=v,...}`` with sorted labels."""
    if isinstance(labels, Mapping):
        items = sorted(labels.items())
    else:
        items = sorted(tuple(pair) for pair in labels)
    if not items:
        return name
    inner = ",".join(f"{k}={v}" for k, v in items)
    return f"{name}{{{inner}}}"


class Bucket:
    """One fixed-interval aggregate: count/sum/min/max/last.

    ``idx`` is the integer bucket index (``floor(t / interval)``); the
    bucket's nominal time is ``idx * interval``.
    """

    __slots__ = ("idx", "count", "total", "min", "max", "last")

    def __init__(self, idx: int, value: float) -> None:
        self.idx = idx
        self.count = 1
        self.total = value
        self.min = value
        self.max = value
        self.last = value

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.last = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def to_row(self, interval: float) -> list:
        """JSON row ``[t, count, sum, min, max, last]``."""
        return [self.idx * interval, self.count, self.total,
                self.min, self.max, self.last]


class Series:
    """One labelled series: a ring of at most ``capacity`` buckets.

    ``kind`` is advisory ("counter" for sampled cumulative values,
    "gauge" for point-in-time values) — it picks the natural reading
    in reports but does not change storage.
    """

    __slots__ = ("name", "labels", "kind", "interval", "buckets",
                 "dropped", "_horizon")

    def __init__(self, name: str, labels: Sequence = (), *,
                 kind: str = "gauge", interval: float = 1.0,
                 capacity: int = SERIES_CAPACITY) -> None:
        if interval <= 0:
            raise ObsError(f"series {name!r}: interval must be positive")
        if capacity < 1:
            raise ObsError(f"series {name!r}: capacity must be positive")
        self.name = name
        self.labels = tuple(sorted(tuple(pair) for pair in labels))
        self.kind = kind
        self.interval = interval
        self.buckets: deque[Bucket] = deque(maxlen=capacity)
        #: Buckets that fell off the ring.
        self.dropped = 0
        # Index of the newest dropped bucket: a window reaching it
        # would be answered short.
        self._horizon = 0

    @property
    def key(self) -> str:
        return series_key(self.name, self.labels)

    def observe(self, t: float, value: float) -> None:
        """Record ``value`` at time ``t`` (NaN samples are ignored)."""
        # + epsilon so exact multiples of the interval land in the
        # bucket they open rather than flapping on float error.
        self.observe_idx(int(math.floor(t / self.interval + 1e-9)), value)

    def observe_idx(self, idx: int, value: float) -> None:
        """:meth:`observe` with the bucket index precomputed.

        The sampler's hot path: one tick lands tens of thousands of
        observations at the same instant, so the caller computes the
        bucket index once and every series skips the float math.
        """
        if value != value:
            return
        buckets = self.buckets
        if buckets:
            last = buckets[-1]
            if last.idx == idx:
                last.observe(value)
                return
            if idx < last.idx:
                raise ObsError(
                    f"series {self.key!r}: time went backwards "
                    f"(bucket {idx} after {last.idx})")
            if len(buckets) == buckets.maxlen:
                self._horizon = buckets[0].idx
                self.dropped += 1
        buckets.append(Bucket(idx, value))

    def check_window(self, start: float) -> None:
        """Raise :class:`ObsError` if ``[start, ...]`` reaches a bucket
        this ring dropped."""
        if self.dropped and start <= self._horizon * self.interval:
            raise ObsError(
                f"series {self.key!r}: window from t={start:g} reaches "
                f"a dropped bucket; the ring keeps the last "
                f"{self.buckets.maxlen} of {self.interval:g} s")

    # -- reads -------------------------------------------------------------

    def samples(self, start: float = -math.inf,
                end: float = math.inf) -> list[tuple[float, Bucket]]:
        """``(t, bucket)`` pairs in [start, end], oldest first."""
        interval = self.interval
        return [(t, b) for b in self.buckets
                if start <= (t := b.idx * interval) <= end]

    def points(self, start: float = -math.inf,
               end: float = math.inf) -> list[tuple[float, float]]:
        """``(t, value)`` pairs: last for counters, mean otherwise."""
        use_last = self.kind == "counter"
        return [(t, b.last if use_last else b.mean)
                for t, b in self.samples(start, end)]

    @property
    def latest(self) -> Optional[float]:
        """The most recent observed value (None when empty)."""
        return self.buckets[-1].last if self.buckets else None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "labels": {k: v for k, v in self.labels},
            "kind": self.kind,
            "dropped": self.dropped,
            "samples": [b.to_row(self.interval) for b in self.buckets],
        }


class TimeSeriesDB:
    """Labelled ring series with windowed queries."""

    def __init__(self, interval: float = 1.0) -> None:
        self.interval = interval
        self._series: dict[str, Series] = {}

    def __len__(self) -> int:
        return len(self._series)

    def __contains__(self, key: str) -> bool:
        return key in self._series

    def series(self, name: str, labels: Sequence = (), *,
               kind: str = "gauge") -> Series:
        """Get or create the series ``name{labels}``."""
        key = series_key(name, labels)
        s = self._series.get(key)
        if s is None:
            s = Series(name, labels, kind=kind, interval=self.interval)
            self._series[key] = s
        return s

    def get(self, name: str, labels: Sequence = ()) -> Optional[Series]:
        return self._series.get(series_key(name, labels))

    def observe(self, name: str, labels: Sequence, t: float,
                value: float, kind: str = "gauge") -> None:
        self.series(name, labels, kind=kind).observe(t, value)

    def keys(self, pattern: str = "") -> list[str]:
        """Sorted series keys, filtered by substring ``pattern``."""
        return sorted(k for k in self._series if pattern in k)

    def all_series(self) -> list[Series]:
        """Every series, in sorted key order."""
        return [self._series[k] for k in sorted(self._series)]

    # -- windowed queries ---------------------------------------------------

    def _window(self, name: str, labels: Sequence, window: float,
                now: float) -> list[tuple[float, Bucket]]:
        """The buckets in ``[now - window, now]``; raises
        :class:`ObsError` rather than answer from a ring that dropped
        part of the window."""
        if window <= 0:
            raise ObsError(f"window must be positive, got {window!r}")
        s = self.get(name, labels)
        if s is None:
            return []
        s.check_window(now - window)
        return s.samples(now - window, now)

    def avg_over_time(self, name: str, labels: Sequence = (), *,
                      window: float, now: float) -> float:
        """Observation-weighted mean over the window (NaN if empty)."""
        rows = self._window(name, labels, window, now)
        count = sum(b.count for _, b in rows)
        if not count:
            return math.nan
        return sum(b.total for _, b in rows) / count

    def min_over_time(self, name: str, labels: Sequence = (), *,
                      window: float, now: float) -> float:
        rows = self._window(name, labels, window, now)
        return min((b.min for _, b in rows), default=math.nan)

    def max_over_time(self, name: str, labels: Sequence = (), *,
                      window: float, now: float) -> float:
        rows = self._window(name, labels, window, now)
        return max((b.max for _, b in rows), default=math.nan)

    def quantile_over_time(self, q: float, name: str,
                           labels: Sequence = (), *, window: float,
                           now: float) -> float:
        """Nearest-rank quantile of the window's bucket values.

        Values are per-bucket means (multi-observation buckets carry
        their average); with one sample per bucket — the sampler's
        case — this is the exact quantile of the observations.
        """
        if not 0.0 <= q <= 1.0:
            raise ObsError(f"quantile must be in [0, 1], got {q!r}")
        rows = self._window(name, labels, window, now)
        return nearest_rank(sorted(b.mean for _, b in rows if b.count), q)

    def rate(self, name: str, labels: Sequence = (), *, window: float,
             now: float) -> float:
        """Per-second increase of a cumulative series over the window.

        Sums the positive increments between consecutive samples
        (a value drop is a counter reset and contributes the new
        value), divided by the covered span.  NaN with fewer than two
        samples.
        """
        rows = self._window(name, labels, window, now)
        if len(rows) < 2:
            return math.nan
        increase = 0.0
        prev = rows[0][1].last
        for _, bucket in rows[1:]:
            cur = bucket.last
            increase += cur - prev if cur >= prev else cur
            prev = cur
        span = rows[-1][0] - rows[0][0]
        if span <= 0:
            return math.nan
        return increase / span

    # -- export -------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-serialisable document of every series, sorted keys."""
        return {
            "interval": self.interval,
            "series": {key: self._series[key].to_json()
                       for key in sorted(self._series)},
        }

    def export_json(self) -> str:
        """Canonical byte form: same run ⇒ same string (test-pinned)."""
        return json.dumps(self.snapshot(), sort_keys=True,
                          separators=(",", ":"))
