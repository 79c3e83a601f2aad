"""Minimal self-contained SVG line plots for quick looks.

One fixed 800x400 canvas, autoscaled axes, a polyline per series, and
nothing else, so output bytes are a pure function of the data.
"""

from __future__ import annotations

from html import escape
from typing import Sequence, Tuple

import numpy as np

from .errors import BadParam, finite

_WIDTH, _HEIGHT = 800, 400
_LEFT, _RIGHT, _TOP, _BOTTOM = 60.0, 780.0, 20.0, 360.0
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _span(lo: float, hi: float) -> Tuple[float, float]:
    """Axis limits for data in [lo, hi]; flat data gets a nonzero width."""
    if hi <= lo:
        pad = max(1.0, abs(lo) * 1e-15)
        lo, hi = lo - pad, lo + pad
    finite(hi - lo, "the range of the plotted data")
    return lo, hi


def line_plot(series: Sequence[Tuple[str, np.ndarray, np.ndarray]], title: str = "") -> str:
    """Render labelled (x, y) series to an SVG document string.

    Raises:
        BadParam: no samples, or the x or y range spans more than a float.
    """
    if not series:
        raise BadParam("nothing to plot")
    xs = np.concatenate([np.asarray(x, dtype=float) for _, x, _ in series])
    ys = np.concatenate([np.asarray(y, dtype=float) for _, _, y in series])
    if xs.size == 0:
        raise BadParam("nothing to plot")
    x_lo, x_hi = _span(float(np.min(xs)), float(np.max(xs)))
    y_lo, y_hi = _span(float(np.min(ys)), float(np.max(ys)))

    def px(v: float) -> float:
        return _LEFT + (v - x_lo) / (x_hi - x_lo) * (_RIGHT - _LEFT)

    def py(v: float) -> float:
        return _BOTTOM - (v - y_lo) / (y_hi - y_lo) * (_BOTTOM - _TOP)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH} {_HEIGHT}" '
        f'font-family="monospace" font-size="12">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_LEFT}" y="{_TOP}" width="{_RIGHT - _LEFT}" height="{_BOTTOM - _TOP}" '
        f'fill="none" stroke="black"/>',
    ]
    if y_lo < 0.0 < y_hi:
        zero = py(0.0)
        out.append(
            f'<line x1="{_LEFT}" y1="{zero:.2f}" x2="{_RIGHT}" y2="{zero:.2f}" '
            f'stroke="#bbbbbb" stroke-dasharray="4 4"/>'
        )
    for i, (label, x, y) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(
            f"{px(float(a)):.2f},{py(float(b)):.2f}" for a, b in zip(x, y)
        )
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        out.append(
            f'<text x="{_LEFT + 8}" y="{_TOP + 16 + 16 * i}" fill="{color}">'
            f"{escape(str(label), quote=False)}</text>"
        )
    out.append(f'<text x="{_LEFT}" y="{_BOTTOM + 16}">{x_lo:.12g}</text>')
    out.append(f'<text x="{_RIGHT}" y="{_BOTTOM + 16}" text-anchor="end">{x_hi:.12g}</text>')
    out.append(f'<text x="{_LEFT - 4}" y="{_BOTTOM}" text-anchor="end">{y_lo:.12g}</text>')
    out.append(f'<text x="{_LEFT - 4}" y="{_TOP + 10}" text-anchor="end">{y_hi:.12g}</text>')
    if title:
        out.append(
            f'<text x="{(_LEFT + _RIGHT) / 2:.1f}" y="14" text-anchor="middle">'
            f"{escape(title, quote=False)}</text>"
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
