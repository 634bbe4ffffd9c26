"""Deterministic SVG emission for tree renderings and histogram overlays.

Hand-rolled on purpose: the output depends only on the input numbers and
fixed formatting, so identical runs produce byte-identical files that can
be diffed in golden tests.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .stats import Histogram

_PALETTE = (
    "#1f4e8c",  # blue
    "#c23b22",  # red
    "#2e7d32",  # green
    "#8e44ad",  # purple
    "#e67e22",  # orange
    "#00838f",  # teal
)

_MARGIN = 50.0
_WIDTH = 720.0

# the markup escapes; \r as a reference, since a parser reads a bare one as \n;
# and U+FFFD in place of each character that XML 1.0 cannot hold
_NOT_XML = (*range(9), 11, 12, *range(14, 32), *range(0xD800, 0xE000), 0xFFFE, 0xFFFF)
_TEXT_ESCAPES = str.maketrans(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;"} | dict.fromkeys(_NOT_XML, "\ufffd")
)


def _f(x: float) -> str:
    return f"{x:.3f}"


def _axis_ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return list(np.linspace(lo, hi, 5))


class _Canvas:
    def __init__(self, height: float, comment: str | None) -> None:
        self.height = height
        self.parts: list[str] = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(_WIDTH)}" '
            f'height="{_f(height)}" viewBox="0 0 {_f(_WIDTH)} {_f(height)}">',
        ]
        if comment:
            self.parts.append(f"<!-- {comment.lstrip('# ')} -->")
        self.parts.append(f'<rect width="{_f(_WIDTH)}" height="{_f(height)}" fill="white"/>')

    def add(self, element: str) -> None:
        self.parts.append(element)

    def text(self, x: float, y: float, s: str, size: int = 12, anchor: str = "start") -> None:
        self.add(
            f'<text x="{_f(x)}" y="{_f(y)}" font-family="monospace" font-size="{size}" '
            f'text-anchor="{anchor}" fill="#222222">{s.translate(_TEXT_ESCAPES)}</text>'
        )

    def finish(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


class _PlotFrame:
    """Maps data coordinates into the plotting rectangle (y axis flipped)."""

    def __init__(self, canvas: _Canvas, xlim, ylim) -> None:
        self.canvas = canvas
        self.x0, self.x1 = xlim
        self.y0, self.y1 = ylim
        if self.x1 <= self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 <= self.y0:
            self.y1 = self.y0 + 1.0
        self.px0 = _MARGIN
        self.px1 = _WIDTH - _MARGIN / 2
        self.py0 = canvas.height - _MARGIN
        self.py1 = _MARGIN / 2

    def x(self, v: float) -> float:
        return self.px0 + (v - self.x0) / (self.x1 - self.x0) * (self.px1 - self.px0)

    def y(self, v: float) -> float:
        return self.py0 + (v - self.y0) / (self.y1 - self.y0) * (self.py1 - self.py0)

    def draw_axes(self, y_label: str = "") -> None:
        c = self.canvas
        c.add(
            f'<rect x="{_f(self.px0)}" y="{_f(self.py1)}" width="{_f(self.px1 - self.px0)}" '
            f'height="{_f(self.py0 - self.py1)}" fill="none" stroke="#555555" stroke-width="1"/>'
        )
        for tx in _axis_ticks(self.x0, self.x1):
            px = self.x(tx)
            c.add(
                f'<line x1="{_f(px)}" y1="{_f(self.py0)}" x2="{_f(px)}" '
                f'y2="{_f(self.py0 + 4)}" stroke="#555555" stroke-width="1"/>'
            )
            c.text(px, self.py0 + 16, f"{tx:.3g}", size=10, anchor="middle")
        for ty in _axis_ticks(self.y0, self.y1):
            py = self.y(ty)
            c.add(
                f'<line x1="{_f(self.px0 - 4)}" y1="{_f(py)}" x2="{_f(self.px0)}" '
                f'y2="{_f(py)}" stroke="#555555" stroke-width="1"/>'
            )
            c.text(self.px0 - 6, py + 3, f"{ty:.3g}", size=10, anchor="end")
        if y_label:
            c.text(10, self.py1 - 6, y_label)


def render_tree_svg(
    coords: np.ndarray,
    us: np.ndarray,
    vs: np.ndarray,
    labels: Sequence[str | None] | None = None,
    title: str = "",
    comment: str | None = None,
) -> str:
    """Render a 2-d tree: edges ``us[i]``-``vs[i]`` as segments, vertices colored by label."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ValueError("tree rendering requires (m, 2) coordinates")

    canvas = _Canvas(_WIDTH, comment)
    pad_x = 0.05 * (float(np.ptp(coords[:, 0])) or 1.0)
    pad_y = 0.05 * (float(np.ptp(coords[:, 1])) or 1.0)
    frame = _PlotFrame(
        canvas,
        (coords[:, 0].min() - pad_x, coords[:, 0].max() + pad_x),
        (coords[:, 1].min() - pad_y, coords[:, 1].max() + pad_y),
    )
    frame.draw_axes()
    if title:
        canvas.text(_WIDTH / 2, 20, title, anchor="middle")

    for u, v in zip(us.tolist(), vs.tolist()):
        canvas.add(
            f'<line x1="{_f(frame.x(coords[u, 0]))}" y1="{_f(frame.y(coords[u, 1]))}" '
            f'x2="{_f(frame.x(coords[v, 0]))}" y2="{_f(frame.y(coords[v, 1]))}" '
            f'stroke="#888888" stroke-width="0.8"/>'
        )

    if labels is None:
        color_of = {None: _PALETTE[0]}
        vertex_labels: Sequence[str | None] = [None] * coords.shape[0]
    else:
        vertex_labels = labels
        uniques = sorted({l for l in labels if l is not None})
        color_of = {l: _PALETTE[i % len(_PALETTE)] for i, l in enumerate(uniques)}
        color_of[None] = "#444444"
    for i in range(coords.shape[0]):
        canvas.add(
            f'<circle cx="{_f(frame.x(coords[i, 0]))}" cy="{_f(frame.y(coords[i, 1]))}" '
            f'r="1.6" fill="{color_of[vertex_labels[i]]}"/>'
        )

    legend_y = _MARGIN / 2 + 14
    for name, color in sorted((k, v) for k, v in color_of.items() if k is not None):
        canvas.add(
            f'<circle cx="{_f(_WIDTH - 150)}" cy="{_f(legend_y - 4)}" r="4" fill="{color}"/>'
        )
        canvas.text(_WIDTH - 140, legend_y, name, size=11)
        legend_y += 16
    return canvas.finish()


def render_histograms_svg(
    histograms: Sequence[tuple[str, Histogram]], comment: str | None = None
) -> str:
    """Overlay step histograms; annotates folded overflow bins."""
    canvas = _Canvas(480.0, comment)
    if histograms:
        x_lo = min(h.lo for _, h in histograms)
        x_hi = max(h.hi for _, h in histograms)
        y_hi = max((h.contents.max() if h.nbins else 0.0) for _, h in histograms)
    else:
        x_lo, x_hi, y_hi = 0.0, 1.0, 0.0
    frame = _PlotFrame(canvas, (x_lo, x_hi), (0.0, y_hi * 1.05 if y_hi > 0 else 1.0))
    frame.draw_axes(y_label="weight / bin")

    legend_y = _MARGIN / 2 + 14
    any_folded = False
    for i, (name, h) in enumerate(histograms):
        color = _PALETTE[i % len(_PALETTE)]
        edges = h.edges
        points = [f"{_f(frame.x(edges[0]))},{_f(frame.y(0.0))}"]
        for b in range(h.nbins):
            y = frame.y(float(h.contents[b]))
            points.append(f"{_f(frame.x(edges[b]))},{_f(y)}")
            points.append(f"{_f(frame.x(edges[b + 1]))},{_f(y)}")
        points.append(f"{_f(frame.x(edges[-1]))},{_f(frame.y(0.0))}")
        canvas.add(
            f'<polyline points="{" ".join(points)}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        canvas.add(
            f'<line x1="{_f(_WIDTH - 160)}" y1="{_f(legend_y - 4)}" x2="{_f(_WIDTH - 145)}" '
            f'y2="{_f(legend_y - 4)}" stroke="{color}" stroke-width="2"/>'
        )
        canvas.text(_WIDTH - 140, legend_y, name, size=11)
        legend_y += 16
        any_folded = any_folded or h.folds_overflow
    if any_folded:
        canvas.text(frame.px1, frame.py0 + 30, "last bin includes overflow", size=10, anchor="end")
    return canvas.finish()
