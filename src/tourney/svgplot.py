"""Tiny dependency-free SVG line plots for figure output.

Rendering is a pure function of the series data, so identical inputs yield
byte-identical files.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["line_plot_svg"]

PALETTE = ("#d62728", "#2ca02c", "#1f77b4", "#ff7f0e", "#9467bd", "#8c564b", "#17becf", "#7f7f7f", "#bcbd22")

_WIDTH, _HEIGHT = 720, 460
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 36, 44


def _escape(text: str) -> str:
    """Text as XML character data, as ``xml.sax.saxutils.escape`` gives it
    (importing which loads ``urllib.request`` and ``ssl``)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    raw = (hi - lo) / (count - 1)
    if not np.finfo(float).tiny <= raw < math.inf:  # a step that is NaN, infinite, 0 or subnormal: flat
        return [lo]
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (1.0, 2.0, 2.5, 5.0, 10.0) if s * mag >= raw) * mag
    first = max(math.ceil(lo / step) * step, lo)  # the product can round below lo
    out = []
    for k in range(count + 1):  # step >= (hi - lo) / (count - 1): at most count ticks
        t = first + k * step
        if t > hi + 1e-12 * step or (out and t == out[-1]):  # past hi, or below an ulp
            break
        out.append(0.0 if abs(t) < 1e-12 * step else t)
    return out or [lo]


def line_plot_svg(
    series: list[tuple[str, np.ndarray, np.ndarray]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    ylim: tuple[float, float] | None = None,
) -> str:
    """Render labeled (x, y) series as an SVG document string.

    Non-finite points break the polyline; pass ``ylim`` to clip spiky series
    (values outside are dropped from the path).

    Each polyline is drawn at the plot's pixel resolution by the M4 rule
    (Jugel et al., PVLDB 2014): of each group of consecutive points in one
    pixel column, only the first, the last, the lowest and the highest are
    kept (the first of equals), which draws the same line at this width.
    A series with fewer points than columns keeps them all; callers that
    need every point write it elsewhere (the figures' CSVs keep the grid).
    """
    xs_all = np.concatenate([np.asarray(x, dtype=float) for _, x, _ in series])
    ys_all = np.concatenate([np.asarray(y, dtype=float) for _, _, y in series])
    finite = np.isfinite(xs_all) & np.isfinite(ys_all)
    if not finite.any():
        raise ValueError("line_plot_svg: no series has a point with finite x and y")
    x_lo, x_hi = float(xs_all[finite].min()), float(xs_all[finite].max())
    if ylim is None:
        y_lo, y_hi = float(ys_all[finite].min()), float(ys_all[finite].max())
    else:
        y_lo, y_hi = ylim
    if y_hi <= y_lo:  # flat: widened by max(1, 1e-3 |value|), which moves a value of any size
        y_hi = y_lo + max(1.0, 1e-3 * abs(y_lo))
    if x_hi <= x_lo:
        x_hi = x_lo + max(1.0, 1e-3 * abs(x_lo))
    pad = 0.04 * (y_hi - y_lo)
    for axis, lo, hi, width in (("x", x_lo, x_hi, x_hi - x_lo), ("y", y_lo, y_hi, (y_hi + pad) - (y_lo - pad))):
        if not math.isfinite(width):  # the pixel arithmetic divides by it
            raise ValueError(f"line_plot_svg: the {axis} axis spans [{lo!r}, {hi!r}], too wide for a float")
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="Helvetica,Arial,sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    if title:
        out.append(
            f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" font-size="14">{_escape(title)}</text>'
        )
    for t in _ticks(x_lo, x_hi):
        out.append(
            f'<line x1="{px(t):.2f}" y1="{_MARGIN_T + plot_h}" x2="{px(t):.2f}" '
            f'y2="{_MARGIN_T + plot_h + 4}" stroke="#333333"/>'
        )
        out.append(
            f'<text x="{px(t):.2f}" y="{_MARGIN_T + plot_h + 18}" text-anchor="middle">{t:g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        out.append(
            f'<line x1="{_MARGIN_L - 4}" y1="{py(t):.2f}" x2="{_MARGIN_L}" y2="{py(t):.2f}" stroke="#333333"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 8}" y="{py(t) + 4:.2f}" text-anchor="end">{t:g}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 8}" text-anchor="middle">{_escape(xlabel)}</text>'
        )
    if ylabel:
        out.append(
            f'<text x="16" y="{_MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.1f})">{_escape(ylabel)}</text>'
        )
    for k, (label, x, y) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        ok = np.flatnonzero(np.isfinite(x) & np.isfinite(y) & (y >= y_lo) & (y <= y_hi))
        n = ok.size
        ends = np.flatnonzero(np.diff(ok) > 1) + 1  # the runs of drawn points start at 0 and ends
        xy = np.column_stack([px(x[ok]), py(y[ok])])
        new = np.diff(np.floor(xy[:, 0]), prepend=np.nan) != 0
        new[ends] = True  # groups: consecutive points of a run in one pixel column
        starts, group = np.flatnonzero(new), np.cumsum(new) - 1
        keep = new | np.append(new[1:], True)  # each group's first and last point
        for extreme in (np.minimum, np.maximum):  # each group's first lowest and first highest
            at = np.where(xy[:, 1] == extreme.reduceat(xy[:, 1], starts)[group], np.arange(n), n)
            keep[np.minimum.reduceat(at, starts)] = True
        kept = np.concatenate([[0], np.cumsum(keep)])  # run ok[j0:j1] keeps points kept[j0]:kept[j1]
        xy = xy[keep]
        for j0, j1 in zip([0, *ends.tolist()], [*ends.tolist(), n]):
            if j1 - j0 > 1:
                points = xy[kept[j0]:kept[j1]]
                text = " ".join(["%.2f,%.2f"] * len(points)) % tuple(points.ravel().tolist())
                out.append(f'<polyline points="{text}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        ly = _MARGIN_T + 14 + 16 * k
        out.append(
            f'<line x1="{_WIDTH - _MARGIN_R - 120}" y1="{ly - 4}" x2="{_WIDTH - _MARGIN_R - 96}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(f'<text x="{_WIDTH - _MARGIN_R - 90}" y="{ly}">{_escape(label)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
