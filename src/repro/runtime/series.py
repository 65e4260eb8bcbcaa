"""Windowed counters and statistics (backend-neutral, standard library
only).

These classes carry no simulator dependency: timestamps are plain
floats from whichever :class:`repro.runtime.protocol.Clock` the
backend provides (simulated seconds or wall-clock seconds since
start).

A time-stamped history is kept only where a reader asks for a *window*
of it, and then in one class, :class:`CounterTrace`: the device
counters behind NET_MON's and DISK_MON's ``rate(now, window)``, d-mon's
two rdtsc-style overhead series and the applications' measurements
(``mean(since)``, ``count_between``).  A value read only as "the
latest" or "the total" is a plain float on its owner, not a trace.

* :class:`CounterTrace` — non-negative amounts over time, with
  windowed *rate*, *count* and per-sample *mean* queries.
* :class:`WindowAverage` — sliding-window mean of samples (used by
  CPU_MON for run-queue averaging over an application-chosen period).
* :class:`EwmaLoad` — UNIX-style exponentially weighted load average
  (the classic /proc/loadavg 1/5/15-minute figures).
* :func:`nearest_rank` — the one percentile rule (trace analysis and
  the TSDB's ``quantile_over_time``).

Bounds
------
Every :class:`CounterTrace` is built with a sample-count bound, one of
two constants: :data:`DEVICE_HISTORY` for the kernel devices and
:data:`MEASUREMENT_HISTORY` for series that gain one sample per poll or
per measured event.  Once a trace holds twice its bound the *oldest*
samples go in one chunk (amortised O(1) per ``add``); the running total
at the cut is kept, so ``total`` and every window that starts inside
the retained samples stay exact, and a window that reaches past them
raises ``ValueError`` instead of answering short.  The bound is a
count, not a time horizon, because readers pick their windows at run
time (DISK_MON's ``period`` option, a figure's ``since=``): a horizon
fixed by the owner would cut such a window short without any error.

Sample storage appears on the first ``add``: until then both columns
are the one shared empty tuple, and every query answers as on an
empty trace.  The traces no run writes (a fault-free connection's
retransmissions and losses) cost only the trace itself.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import deque
from typing import Iterator, Sequence

__all__ = ["CounterTrace", "WindowAverage", "EwmaLoad", "nearest_rank",
           "DEVICE_HISTORY", "MEASUREMENT_HISTORY"]

#: Bound of every kernel-device counter (a connection's
#: retransmissions and losses, a stack's sent bytes, a disk's
#: operations and sectors).  Their readers want ``total`` and
#: ``rate(now, window)``, which stay exact while one window holds
#: fewer updates than this.
DEVICE_HISTORY = 8192

#: Bound of a series that gains one sample per poll or per measured
#: event (d-mon's two overhead series, Linpack's and iperf's progress,
#: a SmartPointer stream's sent bytes and its client's processed
#: events and latencies): day-long runs stay bounded, and nothing is
#: trimmed within the horizons of the paper figures that read them.
MEASUREMENT_HISTORY = 65536


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` quantile (``q`` in [0, 1]) of an already
    sorted sample; NaN when it is empty."""
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


class CounterTrace:
    """Non-negative amounts added over time, bounded by a sample count.

    Two parallel columns — the sample times and the running total after
    each sample — so every windowed query is a pair of bisects, never a
    scan.  Iterating yields ``(t, amount)`` per retained sample.
    """

    __slots__ = ("max_samples", "dropped_samples", "_times",
                 "_cumulative", "_total", "_base", "_horizon")

    def __init__(self, max_samples: int) -> None:
        if max_samples < 1:
            raise ValueError("max_samples must be positive")
        self.max_samples = max_samples
        #: Number of samples discarded by the bound.
        self.dropped_samples = 0
        #: The two columns: one shared empty tuple until the first
        #: :meth:`add` makes them lists.
        self._times: Sequence[float] = ()
        self._cumulative: Sequence[float] = ()
        self._total = 0.0
        #: Running total and time of the last discarded sample.
        self._base = 0.0
        self._horizon = -math.inf

    @property
    def total(self) -> float:
        """Sum of every amount added so far."""
        return self._total

    def add(self, t: float, amount: float = 1.0) -> None:
        """Record ``amount`` more units at time ``t``."""
        if amount < 0:
            raise ValueError("counters only increase")
        times = self._times
        if not times:
            # First sample (a trimmed trace still holds max_samples).
            times = self._times = []
            self._cumulative = []
        elif t < times[-1]:
            raise ValueError("non-monotonic counter update")
        self._total += amount
        times.append(t)
        self._cumulative.append(self._total)
        if len(times) >= 2 * self.max_samples:
            cut = len(times) - self.max_samples
            self._base = self._cumulative[cut - 1]
            self._horizon = times[cut - 1]
            del times[:cut]
            del self._cumulative[:cut]
            self.dropped_samples += cut

    def __iter__(self) -> Iterator[tuple[float, float]]:
        before = self._base
        for t, running in zip(self._times, self._cumulative):
            yield t, running - before
            before = running

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

    def mean(self, since: float = -math.inf) -> float:
        """Mean amount per sample over the samples at or after
        ``since``."""
        times = self._times
        i = bisect_left(times, since)
        if not i and self.dropped_samples and since <= self._horizon:
            raise ValueError("window reaches past the retained samples")
        n = len(times) - i
        if not n:
            raise ValueError("no samples in requested window")
        cumulative = self._cumulative
        before = cumulative[i - 1] if i else self._base
        return (cumulative[-1] - before) / n

    def _cumulative_at(self, t: float) -> float:
        # Everything at or before t has happened.
        i = bisect_right(self._times, t)
        if i:
            return self._cumulative[i - 1]
        if t < self._horizon:
            raise ValueError("window reaches past the retained samples")
        return self._base


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
