"""Terminal line plots for the reproduced figures.

The paper's evaluation is four line plots; this renders their series as
ASCII charts so the CLI and examples can show *curves*, not just tables.
Deliberately minimal: a linear or logarithmic x axis, a linear y axis,
multiple series with distinct markers, and a legend.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

_MARKERS = "ox+*@%&$"
#: canvas size in characters
_WIDTH = 64
_HEIGHT = 18


def _scale(value: float, lo: float, hi: float, log: bool) -> float:
    """Normalize value into [0, 1] under the chosen axis transform."""
    if log:
        if value <= 0 or lo <= 0:
            raise ValueError("log axes need strictly positive data")
        value, lo, hi = math.log10(value), math.log10(lo), math.log10(hi)
    if hi == lo:
        return 0.5
    return (value - lo) / (hi - lo)


def line_plot(
    series: Mapping[str, Sequence[tuple[float, float]]],
    x_log: bool = False,
    title: str = "",
) -> str:
    """Render ``{name: [(x, y), ...]}`` as an ASCII chart.

    Each series gets a marker; the legend maps markers to names.  Points
    are plotted individually (no interpolation) — the paper's figures are
    point series joined by eye anyway.
    """
    if not series or all(not pts for pts in series.values()):
        return "(no data)"
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)

    width, height = _WIDTH, _HEIGHT
    canvas = [[" "] * width for _ in range(height)]
    for (name, pts), marker in zip(series.items(), _MARKERS):
        for x, y in pts:
            col = round(_scale(x, x_lo, x_hi, x_log) * (width - 1))
            row = height - 1 - round(_scale(y, y_lo, y_hi, False) * (height - 1))
            canvas[row][col] = marker

    def fmt(v: float) -> str:
        return f"{v:.3g}"

    lines = []
    if title:
        lines.append(title)
    y_labels = [fmt(y_hi), fmt(y_lo)]
    label_w = max(len(s) for s in y_labels)
    for i, row in enumerate(canvas):
        label = fmt(y_hi) if i == 0 else (fmt(y_lo) if i == height - 1 else "")
        lines.append(f"{label.rjust(label_w)} |{''.join(row)}|")
    lines.append(f"{' ' * label_w} +{'-' * width}+")
    x_axis = f"{fmt(x_lo)}{' ' * (width - len(fmt(x_lo)) - len(fmt(x_hi)))}{fmt(x_hi)}"
    lines.append(f"{' ' * label_w}  {x_axis}")
    legend = "   ".join(
        f"{marker} {name}" for (name, _), marker in zip(series.items(), _MARKERS)
    )
    lines.append(f"{' ' * label_w}  legend: {legend}")
    return "\n".join(lines)
