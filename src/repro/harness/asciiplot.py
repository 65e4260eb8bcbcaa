"""Terminal line charts for experiment results.

The original figures are line plots; this renderer draws an
:class:`~repro.harness.experiment.FigureResult` as a fixed-size
character canvas so `python -m repro.harness --plot` can show the
*shape* of each reproduced figure directly in the terminal, no plotting
stack required.

Rendering rules:

* one glyph per series (``*``, ``o``, ``+``, ``x``, …), assigned in
  series order and shown in the legend;
* points are plotted at their scaled (x, y) positions and consecutive
  points of a series are connected with linear interpolation;
* an optional log-scale y-axis for figures whose series span orders of
  magnitude (the latency blow-up plots).
"""

from __future__ import annotations

import math

from repro.harness.experiment import FigureResult, SeriesResult

__all__ = ["render_plot", "sparkline", "SERIES_GLYPHS",
           "SPARK_GLYPHS"]

#: Glyphs assigned to series, in order.
SERIES_GLYPHS = "*o+x#@%&"

#: Height ramp for :func:`sparkline`, lowest to highest.
SPARK_GLYPHS = "▁▂▃▄▅▆▇█"


def _scale(value: float, lo: float, hi: float, size: int,
           log: bool = False) -> int:
    """Map ``value`` in [lo, hi] onto a 0..size-1 cell index."""
    if log:
        value, lo, hi = (math.log10(max(v, 1e-12))
                         for v in (value, lo, hi))
    if hi <= lo:
        return 0
    frac = (value - lo) / (hi - lo)
    return max(0, min(size - 1, int(round(frac * (size - 1)))))


def _format_tick(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000 or abs(value) < 0.01:
        return f"{value:.1e}"
    return f"{value:g}"


def sparkline(values, width: int | None = None) -> str:
    """One-line block-glyph sketch of ``values`` (obs dashboards).

    Values are min-max scaled onto :data:`SPARK_GLYPHS`; a constant
    series renders at mid-height rather than dividing by a zero span,
    NaNs render as spaces, and ``width`` (when given) downsamples long
    series by striding so the line always fits.
    """
    vals = list(values)
    if not vals:
        return ""
    if width is not None and width > 0 and len(vals) > width:
        stride = len(vals) / width
        vals = [vals[int(i * stride)] for i in range(width)]
    finite = [v for v in vals if v == v and not math.isinf(v)]
    if not finite:
        return " " * len(vals)
    lo, hi = min(finite), max(finite)
    span = hi - lo
    out = []
    for v in vals:
        if v != v or math.isinf(v):
            out.append(" ")
        elif span <= 0:
            out.append(SPARK_GLYPHS[len(SPARK_GLYPHS) // 2])
        else:
            idx = int((v - lo) / span * (len(SPARK_GLYPHS) - 1))
            out.append(SPARK_GLYPHS[idx])
    return "".join(out)


def render_plot(result: FigureResult, width: int = 64,
                height: int = 18, log_y: bool = False) -> str:
    """Render the experiment's series as an ASCII line chart."""
    if not result.series:
        raise ValueError("nothing to plot: experiment has no series")
    xs = [x for s in result.series for x in s.x]
    ys = [y for s in result.series for y in s.y]
    if not xs:
        raise ValueError("nothing to plot: series are empty")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if log_y:
        y_lo = max(y_lo, 1e-12)
        y_hi = max(y_hi, y_lo * 10)
    elif y_lo > 0:
        y_lo = 0.0  # anchor linear plots at zero like the paper's axes
    if y_hi <= y_lo:
        # Degenerate y-span (constant-zero or constant-negative
        # series): widen symmetrically so the data sits mid-canvas
        # between two distinct tick labels instead of collapsing onto
        # the bottom row with top == bottom tick.
        pad = abs(y_hi) if y_hi else 1.0
        y_lo, y_hi = y_lo - pad, y_hi + pad
    if x_hi <= x_lo:
        # Single-sample series: give the x-axis a span so the point
        # lands mid-chart and the tick labels differ.
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5

    canvas = [[" "] * width for _ in range(height)]

    def plot_point(x: float, y: float, glyph: str) -> None:
        col = _scale(x, x_lo, x_hi, width)
        row = height - 1 - _scale(y, y_lo, y_hi, height, log=log_y)
        canvas[row][col] = glyph

    for series, glyph in zip(result.series, SERIES_GLYPHS):
        pts = sorted(zip(series.x, series.y))
        # connect consecutive points with interpolated samples
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            c0 = _scale(x0, x_lo, x_hi, width)
            c1 = _scale(x1, x_lo, x_hi, width)
            for col in range(c0, c1 + 1):
                if c1 == c0:
                    y = y0
                else:
                    frac = (col - c0) / (c1 - c0)
                    if log_y and y0 > 0 and y1 > 0:
                        y = 10 ** (math.log10(y0)
                                   + frac * (math.log10(y1)
                                             - math.log10(y0)))
                    else:
                        y = y0 + frac * (y1 - y0)
                row = height - 1 - _scale(y, y_lo, y_hi, height,
                                          log=log_y)
                if canvas[row][col] == " ":
                    canvas[row][col] = glyph
        for x, y in pts:  # actual data points win over line segments
            plot_point(x, y, glyph)

    # assemble with axes
    y_top, y_bottom = _format_tick(y_hi), _format_tick(y_lo)
    margin = max(len(y_top), len(y_bottom)) + 1
    lines = [f"{result.experiment_id}: {result.title}"
             + ("   [log y]" if log_y else "")]
    for i, row in enumerate(canvas):
        if i == 0:
            label = y_top.rjust(margin)
        elif i == height - 1:
            label = y_bottom.rjust(margin)
        else:
            label = " " * margin
        lines.append(f"{label}|{''.join(row)}")
    lines.append(" " * margin + "+" + "-" * width)
    x_lo_s, x_hi_s = _format_tick(x_lo), _format_tick(x_hi)
    pad = width - len(x_lo_s) - len(x_hi_s)
    lines.append(" " * (margin + 1) + x_lo_s + " " * max(1, pad)
                 + x_hi_s)
    lines.append(" " * (margin + 1)
                 + f"{result.xlabel}   (y: {result.ylabel})")
    legend = "   ".join(f"{glyph} {s.label}" for s, glyph
                        in zip(result.series, SERIES_GLYPHS))
    lines.append(" " * (margin + 1) + legend)
    return "\n".join(lines)
