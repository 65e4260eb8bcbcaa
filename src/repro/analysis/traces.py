"""Durable experiment records: export/import of results as JSON.

Experiment results can be written to portable JSON files and loaded
back, so a full-scale run's numbers can be archived with
EXPERIMENTS.md and re-analysed without re-simulating.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.harness.experiment import FigureResult

__all__ = ["dump_result", "load_result", "result_to_json",
           "result_from_json"]

_FORMAT_VERSION = 1


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
