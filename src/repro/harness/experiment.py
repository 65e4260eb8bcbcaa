"""Experiment result containers and table rendering.

Every figure-reproduction function returns a :class:`FigureResult`
holding one or more labelled series plus the paper's qualitative
expectation, and can render itself as the fixed-width table the
benchmark harness prints (the "same rows/series the paper reports").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

__all__ = ["SeriesResult", "FigureResult"]


@dataclass(frozen=True)
class SeriesResult:
    """One labelled curve of an experiment."""

    label: str
    x: tuple[float, ...]
    y: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError(
                f"series {self.label!r}: x/y length mismatch "
                f"({len(self.x)} vs {len(self.y)})")

    def y_at(self, x: float) -> float:
        """Value at an exact x position."""
        try:
            return self.y[self.x.index(x)]
        except ValueError:
            raise ValueError(
                f"series {self.label!r} has no point at x={x}") from None


@dataclass
class FigureResult:
    """All series of one reproduced figure."""

    experiment_id: str          #: e.g. "fig4"
    title: str
    xlabel: str
    ylabel: str
    series: list[SeriesResult] = field(default_factory=list)
    #: The paper's qualitative claim this run should reproduce.
    expectation: str = ""
    notes: str = ""

    def add_series(self, label: str, x: Sequence[float],
                   y: Sequence[float]) -> SeriesResult:
        result = SeriesResult(label, tuple(float(v) for v in x),
                              tuple(float(v) for v in y))
        self.series.append(result)
        return result

    def get(self, label: str) -> SeriesResult:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(f"no series labelled {label!r} in "
                       f"{self.experiment_id}")

    @property
    def xs(self) -> tuple[float, ...]:
        """The union of all x positions, sorted."""
        xs: set[float] = set()
        for s in self.series:
            xs.update(s.x)
        return tuple(sorted(xs))

    def table(self, precision: int = 4) -> str:
        """Fixed-width table: one row per x, one column per series."""
        labels = [s.label for s in self.series]
        header = [self.xlabel] + labels
        rows: list[list[str]] = []
        for x in self.xs:
            row = [f"{x:g}"]
            for s in self.series:
                try:
                    row.append(f"{s.y_at(x):.{precision}g}")
                except ValueError:
                    row.append("-")
            rows.append(row)
        widths = [max(len(header[i]),
                      *(len(r[i]) for r in rows)) if rows
                  else len(header[i])
                  for i in range(len(header))]
        lines = [
            f"== {self.experiment_id}: {self.title} ==",
            f"   y: {self.ylabel}",
        ]
        if self.expectation:
            lines.append(f"   paper: {self.expectation}")
        if self.notes:
            lines.append(f"   note: {self.notes}")
        fmt = "  ".join(f"{{:>{w}}}" for w in widths)
        lines.append(fmt.format(*header))
        lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            lines.append(fmt.format(*row))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.table()
