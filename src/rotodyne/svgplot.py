"""Tiny deterministic SVG line charts.

Standalone vector panels with no external assets and no randomness or
timestamps, so repeated runs over the same data produce byte-identical
files. Both axes are logarithmic, the only chart the package draws;
points that cannot be drawn on them (non-positive or non-finite) split
the polyline instead of distorting it.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

__all__ = ["line_chart"]

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")

WIDTH = 760.0
HEIGHT = 500.0
MARGIN_LEFT = 78.0
MARGIN_RIGHT = 18.0
MARGIN_TOP = 42.0
MARGIN_BOTTOM = 58.0


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _escape(text: str) -> str:
    """Escape &, > and < for SVG text content: the replacements of the
    standard library's XML ``escape``, without the urllib, http and email
    modules that its module imports."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


class _Axis:
    def __init__(self, lo: float, hi: float):
        lo, hi = math.log10(lo), math.log10(hi)
        if hi <= lo:
            pad = 0.5 if lo == 0.0 else abs(lo) * 0.05 + 1e-12
            lo, hi = lo - pad, hi + pad
        span = hi - lo
        self.lo = lo - 0.04 * span
        self.hi = hi + 0.04 * span

    def unit(self, values):
        """Axis fraction of a value or of each value of an array, from
        ``math.log10`` (libm's log10) of each value."""
        v = np.asarray(values, dtype=float)
        v = np.reshape(list(map(math.log10, v.ravel().tolist())), v.shape)
        return (v - self.lo) / (self.hi - self.lo)

    def ticks(self) -> list[tuple[float, str]]:
        """One tick per decade, or five spread evenly across less than two."""
        decades = range(int(math.ceil(self.lo)), int(math.floor(self.hi)) + 1)
        out = [(10.0 ** k, f"1e{k}") for k in decades]
        if len(out) >= 2:
            return out
        return [(10.0 ** v, f"{10.0 ** v:.2e}") for v in np.linspace(self.lo, self.hi, 5)]


def _valid_mask(values: np.ndarray) -> np.ndarray:
    return np.isfinite(values) & (values > 0.0)


def _line(x1, y1, x2, y2, stroke: str, width: int, dash: str = "") -> str:
    dash = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'stroke="{stroke}" stroke-width="{width}"{dash}/>'
    )


def _text(x, y, size: int, label: str, before: str = "", after: str = "") -> str:
    """Sans-serif text at x, y, pixel values or exact positions given as str;
    ``before`` and ``after`` are the attributes, each with its leading space,
    written before and after the font's."""
    x, y = (v if isinstance(v, str) else _fmt(v) for v in (x, y))
    return (
        f'<text x="{x}" y="{y}"{before} font-family="sans-serif" '
        f'font-size="{size}"{after}>{_escape(label)}</text>'
    )


def line_chart(
    path,
    series,
    *,
    title: str,
    xlabel: str,
    ylabel: str,
    vlines=(),
) -> None:
    """Write a log-log polyline chart of (label, x, y) series to ``path``.

    vlines is a sequence of (label, x_value) dashed markers.
    """
    prepared = []
    for label, xs, ys in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ValueError(f"series {label!r} needs matching 1-d x and y")
        prepared.append((str(label), xs, ys, _valid_mask(xs) & _valid_mask(ys)))

    x_vals = [xs[mask] for _, xs, _, mask in prepared]
    y_vals = [ys[mask] for _, _, ys, mask in prepared]
    x_all = np.concatenate(x_vals) if x_vals else np.empty(0)
    y_all = np.concatenate(y_vals) if y_vals else np.empty(0)
    if x_all.size == 0:
        raise ValueError("no drawable points in any series")
    x_axis = _Axis(float(x_all.min()), float(x_all.max()))
    y_axis = _Axis(float(y_all.min()), float(y_all.max()))

    box_x0, box_x1 = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    box_y0, box_y1 = MARGIN_TOP, HEIGHT - MARGIN_BOTTOM

    def px(values):
        return box_x0 + x_axis.unit(values) * (box_x1 - box_x0)

    def py(values):
        return box_y1 - y_axis.unit(values) * (box_y1 - box_y0)

    middle = ' text-anchor="middle"'
    cy = (box_y0 + box_y1) / 2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(WIDTH)}" '
        f'height="{_fmt(HEIGHT)}" viewBox="0 0 {_fmt(WIDTH)} {_fmt(HEIGHT)}">',
        f'<rect x="0" y="0" width="{_fmt(WIDTH)}" height="{_fmt(HEIGHT)}" fill="white"/>',
        f'<rect x="{_fmt(box_x0)}" y="{_fmt(box_y0)}" width="{_fmt(box_x1 - box_x0)}" '
        f'height="{_fmt(box_y1 - box_y0)}" fill="none" stroke="#333" stroke-width="1"/>',
        _text(WIDTH / 2, "24", 15, title, middle),
    ]
    for value, label in x_axis.ticks():
        x = px(value)
        if box_x0 - 0.5 <= x <= box_x1 + 0.5:
            parts.append(_line(x, box_y1, x, box_y1 + 5, "#333", 1))
            parts.append(_text(x, box_y1 + 20, 11, label, middle))
    for value, label in y_axis.ticks():
        y = py(value)
        if box_y0 - 0.5 <= y <= box_y1 + 0.5:
            parts.append(_line(box_x0 - 5, y, box_x0, y, "#333", 1))
            parts.append(_text(box_x0 - 8, y + 4, 11, label, ' text-anchor="end"'))
    parts.append(_text((box_x0 + box_x1) / 2, HEIGHT - 14, 13, xlabel, middle))
    parts.append(_text("20", cy, 13, ylabel, middle, f' transform="rotate(-90 20 {_fmt(cy)})"'))

    for label, xv in vlines:
        xv = float(xv)
        # math.log10 raises on non-positive values; NaN and inf fall outside
        x = px(xv) if xv > 0.0 else math.nan
        if box_x0 <= x <= box_x1:
            parts.append(_line(x, box_y0, x, box_y1, "#999", 1, "4 3"))
            anchor, fill = ' text-anchor="start"', ' fill="#666"'
            parts.append(_text(x + 3, box_y0 + 12, 10, str(label), anchor, fill))

    mapped_xs = x_px = None
    for idx, (_, xs, ys, mask) in enumerate(prepared):
        color = PALETTE[idx % len(PALETTE)]
        # series that share one x array (a sweep's frequency column) map it once
        if xs is not mapped_xs:
            mapped_xs, x_ok = xs, _valid_mask(xs)
            x_px = px(xs[x_ok])
        # split the trace wherever points are not drawable: a run of
        # drawable points starts and stops at each change of the mask
        edges = np.flatnonzero(np.diff(mask, prepend=False, append=False)).tolist()
        coords = np.column_stack((x_px[mask[x_ok]], py(ys[mask]))).ravel().tolist()
        first = 0
        for start, stop in zip(edges[::2], edges[1::2]):
            count = stop - start
            run = coords[2 * first : 2 * (first + count)]
            first += count
            if count >= 2:
                pts = " ".join(["%.2f,%.2f"] * count) % tuple(run)
                parts.append(
                    f'<polyline points="{pts}" fill="none" stroke="{color}" '
                    'stroke-width="1.6"/>'
                )
            else:
                parts.append(
                    f'<circle cx="{_fmt(run[0])}" cy="{_fmt(run[1])}" '
                    f'r="2.2" fill="{color}"/>'
                )

    lx = box_x1 - 188
    for idx, (label, *_) in enumerate(prepared):
        ly = box_y0 + 14 + 16 * idx
        parts.append(_line(lx, ly - 4, lx + 22, ly - 4, PALETTE[idx % len(PALETTE)], 2))
        parts.append(_text(lx + 28, ly, 11, label))

    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8", newline="\n")
