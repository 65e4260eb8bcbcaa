"""Statistics for experiment replication.

The paper reports single-run measurements; for a simulation study we
can do better.  This module provides the classic small-sample tooling:
mean with Student-t confidence intervals, cross-seed replication of a
whole experiment, and warm-up truncation for steady-state series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.harness.experiment import FigureResult, SeriesResult

__all__ = ["Summary", "summarize", "replicate", "truncate_warmup",
           "HistogramResult", "histogram"]


@dataclass(frozen=True)
class Summary:
    """Mean and confidence half-width of one sample set."""

    n: int
    mean: float
    std: float
    #: Half-width of the two-sided confidence interval.
    half_width: float
    confidence: float

    @property
    def lo(self) -> float:
        return self.mean - self.half_width

    @property
    def hi(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:
        return (f"{self.mean:.4g} ± {self.half_width:.2g} "
                f"({self.confidence:.0%}, n={self.n})")


def summarize(samples: Sequence[float],
              confidence: float = 0.95,
              nan_policy: str = "propagate") -> Summary:
    """Mean with a Student-t confidence interval.

    A single sample yields an infinite interval honestly rather than
    pretending to certainty.  ``nan_policy`` controls NaN samples:
    ``"propagate"`` (default) lets them poison the mean/std — visible,
    never silently wrong; ``"omit"`` drops them; ``"raise"`` rejects
    them with :class:`ValueError`.
    """
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    if nan_policy not in ("propagate", "omit", "raise"):
        raise ValueError(f"unknown nan_policy {nan_policy!r}")
    data = np.asarray(list(samples), dtype=float)
    n_nan = int(np.count_nonzero(np.isnan(data)))
    if n_nan:
        if nan_policy == "raise":
            raise ValueError(f"{n_nan} NaN sample(s) in input")
        if nan_policy == "omit":
            data = data[~np.isnan(data)]
    if data.size == 0:
        raise ValueError("no samples to summarize")
    mean = float(np.mean(data))
    if data.size == 1:
        return Summary(n=1, mean=mean, std=0.0,
                       half_width=math.inf, confidence=confidence)
    std = float(np.std(data, ddof=1))
    from scipy import stats as sps
    t = float(sps.t.ppf(0.5 + confidence / 2.0, df=data.size - 1))
    half = t * std / math.sqrt(data.size)
    return Summary(n=int(data.size), mean=mean, std=std,
                   half_width=half, confidence=confidence)


@dataclass(frozen=True)
class HistogramResult:
    """A binned distribution with honest edge-case accounting."""

    #: Per-bin counts (length ``len(edges) - 1``).
    counts: tuple[int, ...]
    #: Bin edges (ascending; ``edges[i] <= bin i < edges[i+1]``).
    edges: tuple[float, ...]
    #: Number of binned (finite) samples.
    n: int
    #: NaN samples seen (never binned, never silently dropped).
    nan_count: int
    mean: float
    min: float
    max: float

    @property
    def total(self) -> int:
        """All samples offered, including NaNs."""
        return self.n + self.nan_count


def histogram(samples: Sequence[float], bins: int = 10,
              value_range: tuple[float, float] | None = None,
              nan_policy: str = "omit") -> HistogramResult:
    """Bin a sample sequence, handling the awkward cases explicitly.

    * **empty input** — zero counts over ``value_range`` (or the unit
      interval), NaN summary stats; never an exception;
    * **single sample** (or all-equal samples) — a degenerate range is
      widened by ±0.5 around the value, as ``np.histogram`` does;
    * **NaN samples** — cannot be binned: ``"omit"`` (default) counts
      them in ``nan_count``; ``"propagate"`` additionally poisons the
      summary stats (mean/min/max become NaN); ``"raise"`` rejects
      them.  They are *never* silently included or discarded.
    """
    if nan_policy not in ("propagate", "omit", "raise"):
        raise ValueError(f"unknown nan_policy {nan_policy!r}")
    if bins < 1:
        raise ValueError("bins must be positive")
    if value_range is not None and not value_range[0] <= value_range[1]:
        raise ValueError("value_range must be (lo, hi) with lo <= hi")
    data = np.asarray(list(samples), dtype=float)
    nan_mask = np.isnan(data)
    nan_count = int(np.count_nonzero(nan_mask))
    if nan_count and nan_policy == "raise":
        raise ValueError(f"{nan_count} NaN sample(s) in input")
    finite = data[~nan_mask]

    if finite.size == 0:
        lo, hi = value_range if value_range is not None else (0.0, 1.0)
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        edges = np.linspace(lo, hi, bins + 1)
        counts = np.zeros(bins, dtype=int)
        mean = low = high = math.nan
    else:
        counts, edges = np.histogram(finite, bins=bins,
                                     range=value_range)
        mean = float(finite.mean())
        low = float(finite.min())
        high = float(finite.max())
    if nan_count and nan_policy == "propagate":
        mean = low = high = math.nan
    return HistogramResult(
        counts=tuple(int(c) for c in counts),
        edges=tuple(float(e) for e in edges),
        n=int(finite.size), nan_count=nan_count,
        mean=mean, min=low, max=high)


def replicate(experiment: Callable[[int], FigureResult],
              seeds: Sequence[int],
              confidence: float = 0.95) -> FigureResult:
    """Run ``experiment(seed)`` for every seed and aggregate.

    Returns a new :class:`FigureResult` whose series carry the
    cross-seed *means*; per-point summaries (with confidence intervals)
    are attached as ``result.summaries[label][x]``.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    runs = [experiment(seed) for seed in seeds]
    first = runs[0]
    for run in runs[1:]:
        if [s.label for s in run.series] != \
                [s.label for s in first.series]:
            raise ValueError("replications produced different series")

    aggregated = FigureResult(
        experiment_id=first.experiment_id,
        title=f"{first.title} (mean of {len(runs)} seeds)",
        xlabel=first.xlabel, ylabel=first.ylabel,
        expectation=first.expectation,
        notes=f"seeds={list(seeds)}")
    summaries: dict[str, dict[float, Summary]] = {}
    for series in first.series:
        label = series.label
        xs = series.x
        per_point: dict[float, Summary] = {}
        means = []
        for x in xs:
            samples = [run.get(label).y_at(x) for run in runs]
            summary = summarize(samples, confidence=confidence)
            per_point[x] = summary
            means.append(summary.mean)
        aggregated.add_series(label, xs, means)
        summaries[label] = per_point
    aggregated.summaries = summaries  # type: ignore[attr-defined]
    return aggregated


def truncate_warmup(series: SeriesResult,
                    fraction: float = 0.2) -> SeriesResult:
    """Drop the leading ``fraction`` of a time series (warm-up period)."""
    if not 0 <= fraction < 1:
        raise ValueError("fraction must be in [0, 1)")
    if not series.x:
        raise ValueError("empty series")
    cut = series.x[0] + (series.x[-1] - series.x[0]) * fraction
    keep = [(x, y) for x, y in zip(series.x, series.y) if x >= cut]
    if not keep:  # pragma: no cover - fraction < 1 guarantees content
        keep = [(series.x[-1], series.y[-1])]
    xs, ys = zip(*keep)
    return SeriesResult(series.label, tuple(xs), tuple(ys))
