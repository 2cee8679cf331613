"""Minimal SVG emission for sweep results: line plots and heatmaps.

Deliberately small: fixed canvas, 1-2-5 or decade ticks, a flat palette,
no external dependencies. CSV is the canonical output; these figures are a
human-readable view of it. Output is deterministic byte for byte: floats in
coordinates are fixed-precision, and no timestamps or identifiers other
than the caller-provided labels are embedded.
"""

from __future__ import annotations

import math
from pathlib import Path

__all__ = ["line_plot", "heatmap"]

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 80, 160, 48, 64

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#17becf", "#7f7f7f"]


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    span = hi - lo
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def _decade_ticks(lo: float, hi: float) -> list[float]:
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    return [10.0**e for e in range(int(lo_e), int(hi_e) + 1) if lo <= 10.0**e <= hi]


def _tick_label(v: float) -> str:
    if v == 0.0:
        return "0"
    return f"{v:.6g}" if 1e-3 <= abs(v) < 1e4 else f"{v:.1e}"


class _Axis:
    """Maps data coordinates to pixels, linear or logarithmic."""

    def __init__(self, lo: float, hi: float, pix_lo: float, pix_hi: float, log: bool):
        self.log = log
        if log:
            lo = max(lo, 1e-300)
            hi = max(hi, lo * 10.0)
            self.lo, self.hi = math.log10(lo), math.log10(hi)
        else:
            if hi <= lo:
                hi = lo + 1.0
            self.lo, self.hi = lo, hi
        self.pix_lo, self.pix_hi = pix_lo, pix_hi

    def __call__(self, v: float) -> float:
        x = math.log10(max(v, 1e-300)) if self.log else v
        frac = (x - self.lo) / (self.hi - self.lo)
        return self.pix_lo + frac * (self.pix_hi - self.pix_lo)

    def ticks(self) -> list[float]:
        if self.log:
            return _decade_ticks(10.0**self.lo, 10.0**self.hi)
        return _nice_ticks(self.lo, self.hi)


def _svg_header(title: str, provenance: str) -> list[str]:
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
    ]
    if provenance:
        parts.append(f"<desc>{_escape(provenance)}</desc>")
    parts += [
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_escape(title)}</text>',
    ]
    return parts


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _axes_frame(x_ticks, y_ticks, xlabel: str, ylabel: str, marks: bool = True) -> list[str]:
    """Plot frame, tick labels (with tick marks if ``marks``) and axis labels; each tick
    is a (pixel, value) pair."""
    parts = [
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" stroke="black"/>'
    ]
    y0 = HEIGHT - MARGIN_B
    for px, t in x_ticks:
        if marks:
            parts.append(f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" y2="{y0 + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{_fmt(px)}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_tick_label(t)}</text>'
        )
    for py, t in y_ticks:
        if marks:
            parts.append(f'<line x1="{MARGIN_L - 5}" y1="{_fmt(py)}" x2="{MARGIN_L}" y2="{_fmt(py)}" stroke="black"/>')
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_tick_label(t)}</text>'
        )
    parts.append(
        f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2:.0f}" y="{HEIGHT - 16}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="13">{_escape(xlabel)}</text>'
    )
    parts.append(
        f'<text x="20" y="{(MARGIN_T + HEIGHT - MARGIN_B) / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {(MARGIN_T + HEIGHT - MARGIN_B) / 2:.0f})">{_escape(ylabel)}</text>'
    )
    return parts


def _write(path: str | Path, parts: list[str]) -> None:
    parts.append("</svg>")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def line_plot(
    path: str | Path,
    series: list[tuple[str, list[float], list[float]]],
    xlabel: str,
    ylabel: str,
    title: str = "",
    xlog: bool = False,
    ylog: bool = False,
    hlines: list[tuple[float, str]] | None = None,
    vlines: list[tuple[float, str]] | None = None,
    provenance: str = "",
) -> None:
    """Write a multi-series line plot; each series is (label, xs, ys).

    ``hlines``/``vlines`` draw labeled dashed marker lines. ``provenance``
    (e.g. the config hash and seed) is embedded as the SVG description
    element.
    """
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys if y > 0.0 or not ylog]
    ys_all += [y_ref for y_ref, _ in hlines or []]
    xs_all += [x_ref for x_ref, _ in vlines or []]
    if not xs_all or not ys_all:
        raise ValueError("line_plot needs at least one finite point")

    ax_x = _Axis(min(xs_all), max(xs_all), MARGIN_L, WIDTH - MARGIN_R, xlog)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if not ylog:
        pad = 0.05 * (y_hi - y_lo if y_hi > y_lo else abs(y_hi) + 1.0)
        y_lo, y_hi = y_lo - pad, y_hi + pad
    ax_y = _Axis(y_lo, y_hi, HEIGHT - MARGIN_B, MARGIN_T, ylog)

    parts = _svg_header(title, provenance)
    parts += _axes_frame([(ax_x(t), t) for t in ax_x.ticks()],
                         [(ax_y(t), t) for t in ax_y.ticks()], xlabel, ylabel)
    for y_ref, label in hlines or []:
        py = ax_y(y_ref)
        parts += [
            f'<line x1="{MARGIN_L}" y1="{_fmt(py)}" x2="{WIDTH - MARGIN_R}" y2="{_fmt(py)}" '
            f'stroke="black" stroke-dasharray="6,4"/>',
            f'<text x="{WIDTH - MARGIN_R - 4}" y="{_fmt(py - 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_escape(label)}</text>']
    for x_ref, label in vlines or []:
        px = ax_x(x_ref)
        parts += [
            f'<line x1="{_fmt(px)}" y1="{MARGIN_T}" x2="{_fmt(px)}" y2="{HEIGHT - MARGIN_B}" '
            f'stroke="black" stroke-dasharray="6,4"/>',
            f'<text x="{_fmt(px + 4)}" y="{MARGIN_T + 14}" '
            f'font-family="sans-serif" font-size="11">{_escape(label)}</text>']
    legend_y = MARGIN_T + 10
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(
            f"{_fmt(ax_x(x))},{_fmt(ax_y(y))}"
            for x, y in zip(xs, ys)
            if math.isfinite(y) and (y > 0.0 or not ylog)
        )
        if pts:
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>')
        lx = WIDTH - MARGIN_R + 10
        parts.append(f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 22}" y2="{legend_y}" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{lx + 28}" y="{legend_y + 4}" font-family="sans-serif" '
            f'font-size="11">{_escape(label)}</text>'
        )
        legend_y += 18
    _write(path, parts)


# A coarse five-anchor approximation of the viridis ramp: (fraction, rgb) anchors, and
# each span between two as (f0, f1, its first colour, the step to the next).
_ANCHORS = ((0.0, (68, 1, 84)), (0.25, (59, 82, 139)), (0.5, (33, 145, 140)),
            (0.75, (94, 201, 98)), (1.0, (253, 231, 37)))
_SPANS = tuple((f0, f1, c0, tuple(b - a for a, b in zip(c0, c1)))
               for (f0, c0), (f1, c1) in zip(_ANCHORS, _ANCHORS[1:]))
FAILED_FILL = "rgb(220,220,220)"  # a heatmap cell with no value on the colour scale


def _viridis(frac: float) -> str:
    """The colour at ``frac`` (clamped to [0, 1]) of the viridis ramp."""
    frac = min(max(frac, 0.0), 1.0)
    for f0, f1, (r, g, b), (dr, dg, db) in _SPANS:
        if frac <= f1:
            t = (frac - f0) / (f1 - f0)
            return f"rgb({round(r + t * dr)},{round(g + t * dg)},{round(b + t * db)})"
    return "rgb(253,231,37)"


def heatmap(
    path: str | Path,
    xs: list[float],
    ys: list[float],
    values: list[list[float]],
    xlabel: str,
    ylabel: str,
    title: str = "",
    log_values: bool = False,
    provenance: str = "",
) -> None:
    """Write a grid heatmap; values[j][i] corresponds to (xs[i], ys[j]). A cell off the
    colour scale (not finite, or not > 0 with ``log_values``) is grey."""
    if len(values) != len(ys) or any(len(row) != len(xs) for row in values):
        raise ValueError("heatmap values must be shaped (len(ys), len(xs))")
    flat = [v for row in values for v in row if math.isfinite(v) and (v > 0.0 or not log_values)]
    if not flat:
        raise ValueError("heatmap needs at least one finite value")
    v_lo, v_hi = min(flat), max(flat)
    if log_values:
        v_lo, v_hi = math.log10(max(v_lo, 1e-300)), math.log10(max(v_hi, 1e-299))

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B
    cell_w = plot_w / len(xs)
    cell_h = plot_h / len(ys)

    parts = _svg_header(title, provenance)
    x_pix = [_fmt(MARGIN_L + i * cell_w) for i in range(len(xs))]
    size = f'width="{_fmt(cell_w + 0.5)}" height="{_fmt(cell_h + 0.5)}"'
    for j, row in enumerate(values):
        y_pix = _fmt(HEIGHT - MARGIN_B - (j + 1) * cell_h)
        for x, v in zip(x_pix, row):
            if not math.isfinite(v) or (log_values and v <= 0.0):
                fill = FAILED_FILL
            else:
                vv = math.log10(max(v, 1e-300)) if log_values else v
                fill = _viridis(0.5 if v_hi == v_lo else (vv - v_lo) / (v_hi - v_lo))
            parts.append(f'<rect x="{x}" y="{y_pix}" {size} fill="{fill}"/>')
    # frame + edge tick labels, at the centres of the first and last cells
    parts += _axes_frame([(MARGIN_L + (i + 0.5) * cell_w, xs[i]) for i in (0, len(xs) - 1)],
                         [(HEIGHT - MARGIN_B - (j + 0.5) * cell_h, ys[j]) for j in (0, len(ys) - 1)],
                         xlabel, ylabel, marks=False)
    # colorbar: 24 steps, and the values at its ends
    bar_x, bar_w, steps = WIDTH - MARGIN_R + 24, 18, 24
    size = f'width="{bar_w}" height="{_fmt(plot_h / steps + 0.5)}"'
    for s in range(steps):
        y_pix = HEIGHT - MARGIN_B - (s + 1) * plot_h / steps
        parts.append(f'<rect x="{bar_x}" y="{_fmt(y_pix)}" {size} '
                     f'fill="{_viridis((s + 0.5) / steps)}"/>')
    for y_pix, v in ((HEIGHT - MARGIN_B, v_lo), (MARGIN_T + 10, v_hi)):
        label = f"1e{v:.1f}" if log_values else _tick_label(v)
        parts.append(f'<text x="{bar_x + bar_w + 4}" y="{y_pix}" font-family="sans-serif" '
                     f'font-size="10">{label}</text>')
    _write(path, parts)
