"""Tiny dependency-free SVG line plots for figure output.

Rendering is a pure function of the series data, so identical inputs yield
byte-identical files.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["line_plot_svg"]

PALETTE = ("#d62728", "#2ca02c", "#1f77b4", "#ff7f0e", "#9467bd", "#8c564b", "#17becf", "#7f7f7f", "#bcbd22")

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
    width: int = 720,
    height: int = 460,
    ylim: tuple[float, float] | None = None,
) -> str:
    """Render labeled (x, y) series as an SVG document string.

    Non-finite points break the polyline; pass ``ylim`` to clip spiky series
    (values outside are dropped from the path).
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

    plot_w = width - _MARGIN_L - _MARGIN_R
    plot_h = height - _MARGIN_T - _MARGIN_B

    def px(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="Helvetica,Arial,sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    if title:
        out.append(
            f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>'
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
            f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{height - 8}" text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        out.append(
            f'<text x="16" y="{_MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.1f})">{ylabel}</text>'
        )
    for k, (label, x, y) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        ok = np.flatnonzero(np.isfinite(x) & np.isfinite(y) & (y >= y_lo) & (y <= y_hi))
        for run in np.split(ok, np.flatnonzero(np.diff(ok) > 1) + 1):
            if run.size > 1:
                points = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px(x[run]).tolist(), py(y[run]).tolist()))
                out.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        ly = _MARGIN_T + 14 + 16 * k
        out.append(
            f'<line x1="{width - _MARGIN_R - 120}" y1="{ly - 4}" x2="{width - _MARGIN_R - 96}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(f'<text x="{width - _MARGIN_R - 90}" y="{ly}">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
