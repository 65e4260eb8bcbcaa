"""Durable experiment records: export/import of results and traces.

Experiment results and raw simulator time series can be written to
portable files (JSON for results, CSV for series) and loaded back,
so a full-scale run's numbers can be archived with EXPERIMENTS.md and
re-analysed without re-simulating.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Union

from repro.harness.experiment import FigureResult, SeriesResult
from repro.runtime.series import TimeSeries

__all__ = ["dump_result", "load_result", "result_to_json",
           "result_from_json", "series_to_csv", "series_from_csv",
           "timeseries_to_csv"]

_FORMAT_VERSION = 1


# --- experiment results (JSON) ---------------------------------------------------

def result_to_json(result: FigureResult) -> str:
    """Serialise an experiment result to a JSON document."""
    payload = {
        "format_version": _FORMAT_VERSION,
        "experiment_id": result.experiment_id,
        "title": result.title,
        "xlabel": result.xlabel,
        "ylabel": result.ylabel,
        "expectation": result.expectation,
        "notes": result.notes,
        "series": [
            {"label": s.label, "x": list(s.x), "y": list(s.y)}
            for s in result.series
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def result_from_json(text: str) -> FigureResult:
    """Load an experiment result from its JSON form."""
    payload = json.loads(text)
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported result format version {version!r}")
    result = FigureResult(
        experiment_id=payload["experiment_id"],
        title=payload["title"],
        xlabel=payload["xlabel"],
        ylabel=payload["ylabel"],
        expectation=payload.get("expectation", ""),
        notes=payload.get("notes", ""))
    for series in payload["series"]:
        result.add_series(series["label"], series["x"], series["y"])
    return result


def dump_result(result: FigureResult,
                path: Union[str, Path]) -> Path:
    """Write a result to ``path`` (created/overwritten); returns it."""
    path = Path(path)
    path.write_text(result_to_json(result), encoding="utf-8")
    return path


def load_result(path: Union[str, Path]) -> FigureResult:
    """Read a result previously written by :func:`dump_result`."""
    return result_from_json(Path(path).read_text(encoding="utf-8"))


# --- series and raw traces (CSV) ---------------------------------------------------

def series_to_csv(series: SeriesResult) -> str:
    """One labelled series as a two-column CSV with a header."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["x", series.label])
    for x, y in zip(series.x, series.y):
        writer.writerow([repr(x), repr(y)])
    return out.getvalue()


def series_from_csv(text: str) -> SeriesResult:
    """Parse a CSV produced by :func:`series_to_csv`."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or len(rows[0]) != 2 or rows[0][0] != "x":
        raise ValueError("not a series CSV (expected 'x,<label>')")
    label = rows[0][1]
    xs, ys = [], []
    for row in rows[1:]:
        if not row:
            continue
        xs.append(float(row[0]))
        ys.append(float(row[1]))
    return SeriesResult(label, tuple(xs), tuple(ys))


def timeseries_to_csv(ts: TimeSeries) -> str:
    """Export a raw simulator :class:`TimeSeries` (time,value)."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["time", ts.name or "value"])
    for t, v in ts:
        writer.writerow([repr(t), repr(v)])
    return out.getvalue()
