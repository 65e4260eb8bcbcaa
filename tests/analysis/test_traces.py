"""Unit tests for experiment-record export/import."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.traces import (dump_result, load_result,
                                   result_from_json, result_to_json)
from repro.harness import FigureResult


@pytest.fixture
def result():
    r = FigureResult(experiment_id="figX", title="Round trip",
                     xlabel="nodes", ylabel="usec",
                     expectation="grows", notes="test")
    r.add_series("a", [1, 2, 4], [0.1, 0.2, 0.4])
    r.add_series("b", [1, 2, 4], [1.0, 2.0, 4.0])
    return r


class TestJsonRoundTrip:
    def test_exact_round_trip(self, result):
        loaded = result_from_json(result_to_json(result))
        assert loaded.experiment_id == result.experiment_id
        assert loaded.title == result.title
        assert loaded.expectation == result.expectation
        assert [s.label for s in loaded.series] == ["a", "b"]
        assert loaded.get("a").y == result.get("a").y
        assert loaded.table() == result.table()

    def test_file_round_trip(self, result, tmp_path):
        path = dump_result(result, tmp_path / "figX.json")
        assert path.exists()
        loaded = load_result(path)
        assert loaded.get("b").y_at(4) == 4.0

    def test_json_is_valid_and_versioned(self, result):
        payload = json.loads(result_to_json(result))
        assert payload["format_version"] == 1

    def test_unknown_version_rejected(self, result):
        payload = json.loads(result_to_json(result))
        payload["format_version"] = 99
        with pytest.raises(ValueError, match="version"):
            result_from_json(json.dumps(payload))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(
        st.floats(min_value=-1e9, max_value=1e9),
        st.floats(min_value=-1e9, max_value=1e9)),
        min_size=1, max_size=20))
    def test_values_survive_exactly(self, points):
        points.sort()
        r = FigureResult(experiment_id="p", title="t",
                         xlabel="x", ylabel="y")
        xs, ys = zip(*points)
        r.add_series("s", xs, ys)
        loaded = result_from_json(result_to_json(r))
        assert loaded.get("s").x == r.get("s").x
        assert loaded.get("s").y == r.get("s").y


class TestEndToEnd:
    def test_real_experiment_archives(self, tmp_path):
        from repro.harness import fig8_receive_overhead
        result = fig8_receive_overhead(nodes=(1, 2), duration=15.0)
        path = dump_result(result, tmp_path / "fig8.json")
        loaded = load_result(path)
        assert loaded.get("update period=1s").y_at(1) == 0.0
