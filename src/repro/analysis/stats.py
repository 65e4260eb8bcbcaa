"""Statistics for experiment replication.

The paper reports single-run measurements; for a simulation study we
can do better.  This module provides the classic small-sample tooling:
mean with Student-t confidence intervals and cross-seed replication
of a whole experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.harness.experiment import FigureResult

__all__ = ["Summary", "summarize", "replicate"]


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
