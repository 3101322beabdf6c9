"""Terminal plotting: render figure series as ASCII scatter/line charts.

The reproduction is CLI-first (no matplotlib dependency), so figures can
be *seen*, not just exported: a fixed-size character canvas, linear or
log axes, multi-series overlays with distinct glyphs, and axis labels.

This is intentionally minimal -- enough to eyeball the paper's shapes
(Pareto clouds, budget-mix lines, the Fig. 10 drop) straight from
``python -m repro fig4 --plot``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: Glyph cycle for overlaid series.
GLYPHS = "ox+*#@%&"


@dataclass
class AsciiCanvas:
    """A character grid with data-space coordinate mapping."""

    width: int = 72
    height: int = 20
    x_log: bool = False
    y_log: bool = False
    x_name: str = "x"
    y_name: str = "y"
    _cells: List[List[str]] = field(default_factory=list)
    _x_range: Optional[Tuple[float, float]] = None
    _y_range: Optional[Tuple[float, float]] = None
    _legend: List[Tuple[str, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.width < 16 or self.height < 6:
            raise ValueError("canvas too small to be legible")
        self._cells = [[" "] * self.width for _ in range(self.height)]

    # -- range handling ---------------------------------------------------

    def fit(self, xs: Sequence[float], ys: Sequence[float]) -> None:
        """Extend the data range to cover ``(xs, ys)``."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        mask = np.isfinite(xs) & np.isfinite(ys)
        if self.x_log:
            mask &= xs > 0
        if self.y_log:
            mask &= ys > 0
        xs, ys = xs[mask], ys[mask]
        if xs.size == 0:
            return
        x_lo, x_hi = float(xs.min()), float(xs.max())
        y_lo, y_hi = float(ys.min()), float(ys.max())
        if self._x_range is None:
            self._x_range = (x_lo, x_hi)
            self._y_range = (y_lo, y_hi)
        else:
            self._x_range = (min(self._x_range[0], x_lo), max(self._x_range[1], x_hi))
            self._y_range = (min(self._y_range[0], y_lo), max(self._y_range[1], y_hi))

    def _transform(self, value: float, log: bool) -> float:
        return math.log10(value) if log else value

    def _to_column(self, x: float) -> Optional[int]:
        lo, hi = self._x_range
        lo_t = self._transform(lo, self.x_log)
        hi_t = self._transform(hi, self.x_log)
        if hi_t == lo_t:
            return self.width // 2
        frac = (self._transform(x, self.x_log) - lo_t) / (hi_t - lo_t)
        if not 0.0 <= frac <= 1.0:
            return None
        return min(self.width - 1, int(round(frac * (self.width - 1))))

    def _to_row(self, y: float) -> Optional[int]:
        lo, hi = self._y_range
        lo_t = self._transform(lo, self.y_log)
        hi_t = self._transform(hi, self.y_log)
        if hi_t == lo_t:
            return self.height // 2
        frac = (self._transform(y, self.y_log) - lo_t) / (hi_t - lo_t)
        if not 0.0 <= frac <= 1.0:
            return None
        return self.height - 1 - min(self.height - 1, int(round(frac * (self.height - 1))))

    # -- drawing ----------------------------------------------------------

    def scatter(
        self, xs: Sequence[float], ys: Sequence[float], label: str = ""
    ) -> None:
        """Plot points with the next glyph in the cycle."""
        if self._x_range is None:
            self.fit(xs, ys)
        glyph = GLYPHS[len(self._legend) % len(GLYPHS)]
        self._legend.append((glyph, label))
        for x, y in zip(xs, ys):
            if not (np.isfinite(x) and np.isfinite(y)):
                continue
            if (self.x_log and x <= 0) or (self.y_log and y <= 0):
                continue
            col = self._to_column(float(x))
            row = self._to_row(float(y))
            if col is None or row is None:
                continue
            self._cells[row][col] = glyph

    def line(self, xs: Sequence[float], ys: Sequence[float], label: str = "") -> None:
        """Plot a series with linear interpolation between points."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if self._x_range is None:
            self.fit(xs, ys)
        glyph = GLYPHS[len(self._legend) % len(GLYPHS)]
        self._legend.append((glyph, label))
        # Dense resample in transformed x for a continuous-looking trace.
        order = np.argsort(xs)
        xs, ys = xs[order], ys[order]
        for i in range(len(xs) - 1):
            x0, x1 = xs[i], xs[i + 1]
            y0, y1 = ys[i], ys[i + 1]
            if not all(map(np.isfinite, (x0, x1, y0, y1))):
                continue
            # Sample densely enough to cover every pixel the segment spans.
            c0, c1 = self._to_column(float(x0)), self._to_column(float(x1))
            r0, r1 = self._to_row(float(y0)), self._to_row(float(y1))
            span = 0
            if c0 is not None and c1 is not None:
                span = max(span, abs(c1 - c0))
            if r0 is not None and r1 is not None:
                span = max(span, abs(r1 - r0))
            steps = max(2, 2 * span)
            for s in range(steps + 1):
                frac = s / steps
                x = x0 + (x1 - x0) * frac
                y = y0 + (y1 - y0) * frac
                if (self.x_log and x <= 0) or (self.y_log and y <= 0):
                    continue
                col = self._to_column(float(x))
                row = self._to_row(float(y))
                if col is not None and row is not None:
                    self._cells[row][col] = glyph

    # -- output -----------------------------------------------------------

    @staticmethod
    def _fmt(value: float) -> str:
        return f"{value:.3g}"

    def render(self, title: str = "") -> str:
        """The canvas with a frame, axis annotations and a legend."""
        if self._x_range is None:
            raise ValueError("nothing plotted yet")
        lines: List[str] = []
        if title:
            lines.append(title)
        y_hi = self._fmt(self._y_range[1])
        y_lo = self._fmt(self._y_range[0])
        margin = max(len(y_hi), len(y_lo))
        top_label = y_hi.rjust(margin)
        bottom_label = y_lo.rjust(margin)
        for i, row in enumerate(self._cells):
            if i == 0:
                prefix = top_label
            elif i == self.height - 1:
                prefix = bottom_label
            else:
                prefix = " " * margin
            lines.append(f"{prefix} |{''.join(row)}|")
        x_lo = self._fmt(self._x_range[0])
        x_hi = self._fmt(self._x_range[1])
        axis = " " * margin + " +" + "-" * self.width + "+"
        lines.append(axis)
        label_line = (
            " " * margin
            + "  "
            + x_lo
            + " " * max(1, self.width - len(x_lo) - len(x_hi))
            + x_hi
        )
        lines.append(label_line)
        scale = []
        if self.x_log:
            scale.append("log x")
        if self.y_log:
            scale.append("log y")
        suffix = f"  [{', '.join(scale)}]" if scale else ""
        lines.append(" " * margin + f"  {self.x_name} vs {self.y_name}{suffix}")
        for glyph, label in self._legend:
            if label:
                lines.append(" " * margin + f"  {glyph} {label}")
        return "\n".join(lines)


def plot_series_map(
    series_map,
    title: str = "",
    width: int = 72,
    height: int = 20,
    x_log: bool = False,
    y_log: bool = False,
    as_lines: bool = True,
) -> str:
    """Render a ``{label: FigureSeries}`` mapping on one canvas."""
    if not series_map:
        raise ValueError("no series to plot")
    first = next(iter(series_map.values()))
    canvas = AsciiCanvas(
        width=width,
        height=height,
        x_log=x_log,
        y_log=y_log,
        x_name=first.x_name,
        y_name=first.y_name,
    )
    for s in series_map.values():
        canvas.fit(s.x, s.y)
    for label, s in series_map.items():
        if as_lines and len(s.x) > 1:
            canvas.line(s.x, s.y, label)
        else:
            canvas.scatter(s.x, s.y, label)
    return canvas.render(title)


def plot_pareto_figure(
    fig,
    width: int = 72,
    height: int = 22,
    x_max_factor: float = 4.0,
) -> str:
    """Render a :class:`~repro.reporting.figures.ParetoFigure` like the
    paper's Figs. 4-5: the configuration cloud plus the frontier.

    The cloud contains arbitrarily slow configurations (one node at
    fmin); like the paper's axes, the view clips at ``x_max_factor``
    times the frontier's most relaxed deadline.
    """
    canvas = AsciiCanvas(
        width=width,
        height=height,
        x_name="deadline [ms]",
        y_name="energy [J]",
    )
    cloud = fig.cloud_series()
    frontier = fig.frontier_series()
    x_max = float(frontier.x.max()) * x_max_factor
    in_view = cloud.x <= x_max
    canvas.fit(cloud.x[in_view], cloud.y[in_view])
    canvas.scatter(cloud.x[in_view], cloud.y[in_view], "all configurations")
    canvas.line(frontier.x, frontier.y, "Pareto frontier")
    return canvas.render(f"Energy vs deadline: {fig.workload}")
