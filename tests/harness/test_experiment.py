"""Unit tests for experiment result containers and rendering."""

from __future__ import annotations

import pytest

from repro.harness import FigureResult, SeriesResult


@pytest.fixture
def result():
    r = FigureResult(experiment_id="figX", title="Demo",
                     xlabel="nodes", ylabel="usec",
                     expectation="goes up")
    r.add_series("a", [1, 2, 4], [10.0, 20.0, 40.0])
    r.add_series("b", [1, 2, 8], [1.0, 2.0, 8.0])
    return r


class TestSeriesResult:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            SeriesResult("x", (1.0, 2.0), (1.0,))

    def test_y_at(self, result):
        assert result.get("a").y_at(2) == 20.0

    def test_y_at_missing_raises(self, result):
        with pytest.raises(ValueError, match="no point"):
            result.get("a").y_at(8)


class TestExperimentResult:
    def test_get_series(self, result):
        assert result.get("a").label == "a"
        with pytest.raises(KeyError):
            result.get("zzz")

    def test_xs_union_sorted(self, result):
        assert result.xs == (1.0, 2.0, 4.0, 8.0)

    def test_table_contains_everything(self, result):
        table = result.table()
        assert "figX" in table and "Demo" in table
        assert "goes up" in table
        assert "nodes" in table and "usec" in table
        # missing points render as '-'
        assert "-" in table.splitlines()[-1] or \
               any("-" in line for line in table.splitlines()[5:])

    def test_table_rows_align_by_x(self, result):
        lines = result.table().splitlines()
        row4 = next(line for line in lines if line.strip()
                    .startswith("4"))
        assert "40" in row4
        # series b has no x=4 point
        assert row4.rstrip().endswith("-")

    def test_str_is_table(self, result):
        assert str(result) == result.table()
