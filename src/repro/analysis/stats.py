"""Cross-seed replication of an experiment.

The paper reports single-run measurements; a simulation study can run
the same experiment over several seeds and report the per-point mean.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.harness.experiment import FigureResult

__all__ = ["replicate"]


def replicate(experiment: Callable[[int], FigureResult],
              seeds: Sequence[int]) -> FigureResult:
    """Run ``experiment(seed)`` for every seed and aggregate.

    Returns a new :class:`FigureResult` whose series carry the
    cross-seed *means*.
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
    for series in first.series:
        label = series.label
        means = []
        for x in series.x:
            values = [run.get(label).y_at(x) for run in runs]
            means.append(sum(values) / len(values))
        aggregated.add_series(label, series.x, means)
    return aggregated
