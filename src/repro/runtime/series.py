"""Windowed counters and measurement series (backend-neutral).

These classes carry no simulator dependency: timestamps are plain
floats from whichever :class:`repro.runtime.protocol.Clock` the
backend provides (simulated seconds or wall-clock seconds since
start).

A time-stamped history is kept only where a reader asks for a *window*
of it: the device counters behind NET_MON's and DISK_MON's
``rate(now, window)`` and d-mon's two rdtsc-style overhead series
(``mean(since)``).  A value read only as "the latest" or "the total" is
a plain float on its owner, not a trace.

* :class:`TimeSeries` — (t, value) samples with windowed statistics.
* :class:`CounterTrace` — monotonically increasing counters with
  windowed *rate* queries (used by DISK_MON and NET_MON).
* :class:`WindowAverage` — sliding-window mean of samples (used by
  CPU_MON for run-queue averaging over an application-chosen period).
* :class:`EwmaLoad` — UNIX-style exponentially weighted load average
  (the classic /proc/loadavg 1/5/15-minute figures).

Bounded mode
------------
Both :class:`TimeSeries` and :class:`CounterTrace` accept an optional
``max_samples``: once the sample count exceeds the bound the *oldest*
samples are discarded in amortised-O(1) chunks, keeping recent-window
queries (``mean(since=...)``, ``rate(now, window)``) exact while
capping memory.  Queries that reach back past the retained horizon see
only the retained samples (for a counter, cumulative totals remain
correct because the trace stores running totals).  Everything on the
path a monitoring record travels is constructed with a bound
(:data:`DEVICE_HISTORY` for the kernel devices and transports).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from typing import Iterable, Optional

import numpy as np

__all__ = ["TimeSeries", "CounterTrace", "WindowAverage", "EwmaLoad",
           "DEVICE_HISTORY"]

#: ``max_samples`` of every windowed device counter (a connection's
#: sent bytes, retransmissions and losses, a stack's sent bytes, a
#: disk's operations and sectors).  Their readers want ``total`` and
#: ``rate(now, window)``, which stay exact while one window holds
#: fewer updates than this.
DEVICE_HISTORY = 8192


class TimeSeries:
    """Append-only sequence of time-stamped samples.

    With ``max_samples`` set, only the most recent ``max_samples``
    samples are retained (trimmed in chunks, amortised O(1) per
    append).
    """

    def __init__(self, name: str = "",
                 max_samples: Optional[int] = None) -> None:
        if max_samples is not None and max_samples < 1:
            raise ValueError("max_samples must be positive")
        self.name = name
        self.max_samples = max_samples
        self.times: list[float] = []
        self.values: list[float] = []
        #: Number of samples discarded by the retention bound.
        self.dropped_samples = 0

    def record(self, t: float, value: float) -> None:
        """Append one sample.  Timestamps must be non-decreasing."""
        times = self.times
        if times and t < times[-1]:
            raise ValueError(
                f"non-monotonic sample at t={t} (last {times[-1]})")
        times.append(float(t))
        self.values.append(float(value))
        bound = self.max_samples
        if bound is not None and len(times) >= 2 * bound:
            # Trim in one chunk so appends stay amortised O(1).
            cut = len(times) - bound
            del times[:cut]
            del self.values[:cut]
            self.dropped_samples += cut

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterable[tuple[float, float]]:
        return iter(zip(self.times, self.values))

    def last(self) -> float:
        """Most recent value."""
        if not self.values:
            raise ValueError(f"time series {self.name!r} is empty")
        return self.values[-1]

    def mean(self, since: float = -math.inf) -> float:
        """Arithmetic mean of samples recorded at or after ``since``."""
        i = bisect_left(self.times, since)
        window = self.values[i:]
        if not window:
            raise ValueError("no samples in requested window")
        return float(np.mean(window))

    def percentile(self, q: float, since: float = -math.inf) -> float:
        """q-th percentile (0..100) of samples at or after ``since``."""
        i = bisect_left(self.times, since)
        window = self.values[i:]
        if not window:
            raise ValueError("no samples in requested window")
        return float(np.percentile(window, q))


class CounterTrace:
    """A monotonically increasing event counter with rate queries.

    The trace stores ``(time, cumulative-total)`` pairs in two parallel
    lists so windowed queries are a pair of bisects, never a scan.
    With ``max_samples`` set, the oldest update records are discarded
    (the running total is preserved, so ``total`` and recent-window
    queries stay exact; queries reaching past the horizon treat the
    oldest retained record as the epoch).
    """

    def __init__(self, name: str = "",
                 max_samples: Optional[int] = None) -> None:
        if max_samples is not None and max_samples < 1:
            raise ValueError("max_samples must be positive")
        self.name = name
        self.max_samples = max_samples
        self._times: list[float] = []
        self._cumulative: list[float] = []
        self._total = 0.0
        #: Cumulative total at the retention horizon (0 when unbounded).
        self._base = 0.0
        #: Number of update records discarded by the retention bound.
        self.dropped_samples = 0

    @property
    def total(self) -> float:
        """Cumulative count so far."""
        return self._total

    def add(self, t: float, amount: float = 1.0) -> None:
        """Record ``amount`` more units at time ``t``."""
        if amount < 0:
            raise ValueError("counters only increase")
        times = self._times
        if times and t < times[-1]:
            raise ValueError("non-monotonic counter update")
        self._total += amount
        times.append(t)
        self._cumulative.append(self._total)
        bound = self.max_samples
        if bound is not None and len(times) >= 2 * bound:
            cut = len(times) - bound
            self._base = self._cumulative[cut - 1]
            del times[:cut]
            del self._cumulative[:cut]
            self.dropped_samples += cut

    def count_between(self, t0: float, t1: float) -> float:
        """Units accumulated in the half-open window ``(t0, t1]``."""
        if t1 < t0:
            raise ValueError("window end precedes start")
        return self._cumulative_at(t1) - self._cumulative_at(t0)

    def rate(self, now: float, window: float) -> float:
        """Average accumulation rate over the trailing ``window`` seconds."""
        if window <= 0:
            raise ValueError("window must be positive")
        return self.count_between(now - window, now) / window

    def _cumulative_at(self, t: float) -> float:
        # Index of the first record strictly after t; everything at or
        # before t has happened.
        i = bisect_left(self._times, t)
        times = self._times
        n = len(times)
        while i < n and times[i] <= t:
            i += 1
        return self._cumulative[i - 1] if i > 0 else self._base


class WindowAverage:
    """Sliding-window average over the most recent ``window`` seconds."""

    def __init__(self, window: float) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = float(window)
        self._samples: deque[tuple[float, float]] = deque()
        self._sum = 0.0

    def record(self, t: float, value: float) -> None:
        """Add one sample, expiring samples older than the window."""
        self._samples.append((t, float(value)))
        self._sum += value
        cutoff = t - self.window
        while self._samples and self._samples[0][0] < cutoff:
            _, old = self._samples.popleft()
            self._sum -= old

    def set_window(self, window: float) -> None:
        """Change the averaging period (used when an application tunes it)."""
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = float(window)

    @property
    def value(self) -> float:
        """Current window mean (0.0 with no samples)."""
        if not self._samples:
            return 0.0
        return self._sum / len(self._samples)

    def __len__(self) -> int:
        return len(self._samples)


class EwmaLoad:
    """UNIX exponentially-weighted load averages (1/5/15 minutes).

    Mirrors the kernel's ``calc_load``: on each sample at interval
    ``dt``, ``load = load * exp(-dt/tau) + n * (1 - exp(-dt/tau))``.
    """

    PERIODS = (60.0, 300.0, 900.0)

    def __init__(self) -> None:
        self.loads = [0.0, 0.0, 0.0]
        self._last_t: float | None = None

    def update(self, t: float, runnable: float) -> None:
        """Fold in ``runnable``, the run-queue length that held since
        the previous sample, at time ``t``.

        The first sample only anchors the clock (averages stay at the
        boot value 0.0, as on a freshly started kernel); subsequent
        samples decay exponentially toward the observed run queue.

        At rest — nothing runnable and every average exactly 0.0 — the
        fold is the identity (``0.0·d + 0·(1 − d) == 0.0``), so the
        three ``exp`` calls are skipped.
        """
        loads = self.loads
        if runnable or loads[0] or loads[1] or loads[2]:
            loads[:] = self.at(t, runnable)
        elif self._last_t is not None and t < self._last_t:
            raise ValueError("time went backwards")
        self._last_t = t

    def at(self, t: float, runnable: float) -> tuple[float, float, float]:
        """The averages :meth:`update` would leave, without storing them."""
        last = self._last_t
        if last is None:
            return tuple(self.loads)  # type: ignore[return-value]
        dt = t - last
        if dt < 0:
            raise ValueError("time went backwards")
        return tuple(  # type: ignore[return-value]
            load * decay + runnable * (1.0 - decay)
            for load, decay in zip(self.loads, (
                math.exp(-dt / tau) for tau in self.PERIODS)))
