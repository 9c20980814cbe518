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


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [lo]
    raw = (hi - lo) / (count - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (1.0, 2.0, 2.5, 5.0, 10.0) if s * mag >= raw) * mag
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * step:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
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

    Each number is formatted once: the x pixels once for each distinct x
    array (the series of a panel share one grid), and the y pixels of the
    drawn points once per series.  A run of drawn points is a contiguous
    index range, so its x text is a slice of its array's.  Each pixel is the
    same float, formatted alike, as when each point is scaled and formatted
    on its own, so the bytes are those of that form.
    """
    xs_all = np.concatenate([np.asarray(x, dtype=float) for _, x, _ in series])
    ys_all = np.concatenate([np.asarray(y, dtype=float) for _, _, y in series])
    finite = np.isfinite(xs_all) & np.isfinite(ys_all)
    x_lo, x_hi = float(xs_all[finite].min()), float(xs_all[finite].max())
    if ylim is None:
        y_lo, y_hi = float(ys_all[finite].min()), float(ys_all[finite].max())
    else:
        y_lo, y_hi = ylim
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
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
            f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>'
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
            f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 8}" text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        out.append(
            f'<text x="16" y="{_MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.1f})">{ylabel}</text>'
        )
    x_text = {}  # id of an x array -> its pixels, formatted
    for k, (label, x, y) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        key = id(x)
        x = np.asarray(x, dtype=float)
        if key not in x_text:
            x_text[key] = [f"{v:.2f}" for v in px(x).tolist()]
        xs = x_text[key]
        y = np.asarray(y, dtype=float)
        ok = np.flatnonzero(np.isfinite(x) & np.isfinite(y) & (y >= y_lo) & (y <= y_hi))
        ys = [f"{v:.2f}" for v in py(y[ok]).tolist()]
        ends = np.flatnonzero(np.diff(ok) > 1) + 1
        for j0, j1 in zip([0, *ends.tolist()], [*ends.tolist(), ok.size]):
            if j1 - j0 > 1:  # ok[j0:j1] is the index range ok[j0] .. ok[j1 - 1]
                points = " ".join(f"{a},{b}" for a, b in zip(xs[ok[j0]:ok[j1 - 1] + 1], ys[j0:j1]))
                out.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        ly = _MARGIN_T + 14 + 16 * k
        out.append(
            f'<line x1="{_WIDTH - _MARGIN_R - 120}" y1="{ly - 4}" x2="{_WIDTH - _MARGIN_R - 96}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(f'<text x="{_WIDTH - _MARGIN_R - 90}" y="{ly}">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
