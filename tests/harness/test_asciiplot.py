"""Unit tests for the ASCII plot renderer."""

from __future__ import annotations

import pytest

import math

from repro.harness import FigureResult
from repro.harness.asciiplot import (SERIES_GLYPHS, SPARK_GLYPHS,
                                     render_plot, sparkline)


@pytest.fixture
def result():
    r = FigureResult(experiment_id="figT", title="Test figure",
                     xlabel="nodes", ylabel="usec")
    r.add_series("rising", [0, 1, 2, 3], [0.0, 1.0, 2.0, 3.0])
    r.add_series("flat", [0, 1, 2, 3], [1.0, 1.0, 1.0, 1.0])
    return r


class TestRenderPlot:
    def test_contains_title_axes_legend(self, result):
        out = render_plot(result)
        assert "figT" in out and "Test figure" in out
        assert "nodes" in out and "usec" in out
        assert "* rising" in out and "o flat" in out

    def test_dimensions(self, result):
        out = render_plot(result, width=40, height=10)
        canvas_lines = [line for line in out.splitlines()
                        if "|" in line]
        assert len(canvas_lines) == 10
        for line in canvas_lines:
            assert len(line.split("|", 1)[1]) == 40

    def test_rising_series_touches_corners(self, result):
        out = render_plot(result, width=20, height=8)
        rows = [line.split("|", 1)[1] for line in out.splitlines()
                if "|" in line]
        # max point in the top row, min in the bottom row
        assert "*" in rows[0]
        assert "*" in rows[-1]

    def test_flat_series_single_row(self, result):
        out = render_plot(result, width=20, height=8)
        rows = [line.split("|", 1)[1] for line in out.splitlines()
                if "|" in line]
        rows_with_o = [i for i, row in enumerate(rows) if "o" in row]
        assert len(rows_with_o) == 1

    def test_line_interpolation_fills_gaps(self):
        r = FigureResult(experiment_id="f", title="t",
                         xlabel="x", ylabel="y")
        r.add_series("s", [0, 10], [0.0, 10.0])
        out = render_plot(r, width=30, height=10)
        rows = [line.split("|", 1)[1] for line in out.splitlines()
                if "|" in line]
        # every row of the diagonal is populated
        assert all("*" in row for row in rows)

    def test_log_scale_marker(self, result):
        out = render_plot(result, log_y=True)
        assert "[log y]" in out

    def test_log_scale_spreads_magnitudes(self):
        r = FigureResult(experiment_id="f", title="t",
                         xlabel="x", ylabel="y")
        r.add_series("s", [0, 1, 2], [0.01, 1.0, 100.0])
        out = render_plot(r, width=30, height=9, log_y=True)
        rows = [line.split("|", 1)[1] for line in out.splitlines()
                if "|" in line]
        # mid point lands mid-canvas under log scaling
        mid_rows = [i for i, row in enumerate(rows)
                    if "*" in row]
        assert min(mid_rows) == 0 and max(mid_rows) == 8
        assert any(2 <= i <= 6 for i in mid_rows)

    def test_empty_result_rejected(self):
        r = FigureResult(experiment_id="f", title="t",
                         xlabel="x", ylabel="y")
        with pytest.raises(ValueError, match="no series"):
            render_plot(r)

    def test_glyph_assignment_order(self, result):
        result.add_series("third", [0, 1], [0.5, 0.5])
        out = render_plot(result)
        assert f"{SERIES_GLYPHS[2]} third" in out

    def test_constant_zero_series(self):
        r = FigureResult(experiment_id="f", title="t",
                         xlabel="x", ylabel="y")
        r.add_series("zero", [0, 1], [0.0, 0.0])
        out = render_plot(r)  # must not divide by zero
        assert "zero" in out


class TestDegenerateRanges:
    """Single-point and constant series must render, not crash."""

    def _plot(self, xs, ys, **kw):
        r = FigureResult(experiment_id="f", title="t",
                         xlabel="x", ylabel="y")
        r.add_series("s", xs, ys)
        return render_plot(r, **kw)

    def test_single_point_series(self):
        out = self._plot([3], [7.0], width=20, height=6)
        rows = [line.split("|", 1)[1] for line in out.splitlines()
                if "|" in line]
        # The lone point lands somewhere on the canvas.
        assert any("*" in row for row in rows)

    def test_single_point_at_zero(self):
        out = self._plot([0], [0.0])
        assert "*" in out

    def test_constant_zero_series_renders_midband(self):
        # y anchors at 0 for nonnegative data, so all-zero is the
        # truly degenerate span: the pad centres it on the canvas.
        out = self._plot([0, 1, 2], [0.0, 0.0, 0.0], width=20,
                         height=8)
        rows = [line.split("|", 1)[1] for line in out.splitlines()
                if "|" in line]
        hit = [i for i, row in enumerate(rows) if "*" in row]
        assert len(hit) == 1
        assert 0 < hit[0] < len(rows) - 1

    def test_constant_nonzero_series_single_row(self):
        out = self._plot([0, 1, 2], [5.0, 5.0, 5.0], width=20,
                         height=8)
        rows = [line.split("|", 1)[1] for line in out.splitlines()
                if "|" in line]
        assert sum(1 for row in rows if "*" in row) == 1

    def test_axis_labels_finite_on_degenerate_span(self):
        out = self._plot([2], [4.0])
        assert "nan" not in out and "inf" not in out

    def test_same_x_different_y(self):
        out = self._plot([1, 1], [0.0, 3.0], width=10, height=5)
        assert "*" in out


class TestSparkline:
    def test_empty_and_all_nan(self):
        assert sparkline([]) == ""
        assert sparkline([math.nan, math.nan]) == "  "

    def test_constant_series_uses_mid_glyph(self):
        out = sparkline([2.0, 2.0, 2.0])
        assert out == SPARK_GLYPHS[len(SPARK_GLYPHS) // 2] * 3

    def test_min_and_max_hit_the_extremes(self):
        out = sparkline([0.0, 1.0, 2.0, 3.0])
        assert out[0] == SPARK_GLYPHS[0]
        assert out[-1] == SPARK_GLYPHS[-1]
        assert len(out) == 4

    def test_monotone_input_monotone_glyphs(self):
        out = sparkline([float(i) for i in range(8)])
        ranks = [SPARK_GLYPHS.index(ch) for ch in out]
        assert ranks == sorted(ranks)

    def test_width_downsamples(self):
        out = sparkline([float(i) for i in range(100)], width=10)
        assert len(out) == 10

    def test_nan_renders_as_gap(self):
        out = sparkline([0.0, math.nan, 1.0])
        assert out[1] == " "
        assert out[0] in SPARK_GLYPHS and out[2] in SPARK_GLYPHS
