"""Tiny deterministic SVG line charts.

Standalone vector panels with no external assets and no randomness or
timestamps, so repeated runs over the same data produce byte-identical
files. Both axes are logarithmic, the only chart the package draws;
points that cannot be drawn on them (non-positive or non-finite) split
the polyline instead of distorting it.

The module is plain Python on floats and loads no numpy: a chart takes
any sequences of real numbers, numpy arrays included, and maps each
value through libm's ``log10`` and float arithmetic in one order, so a
chart's bytes do not depend on the type of its input. Each value is read
as ``_record._real`` reads a number: text, a bool, a complex or an int
past the float range is a ValueError naming the series. An axis that
spans less than two decades takes its five ticks from ``scenarios``' grid
cells (``_linspace``); that and ``_real`` are all this module imports
from the package, and no table command loads it without ``--plot``.

Series that share one x sequence (a sweep's frequency column) share its
work: each drawable x is mapped and written once per chart. Each series'
polylines and markers are cut from those written x, with a ``%.2f`` field
for each y, and one ``%`` writes every y of the series, so a drawn point
costs one ``log10`` and one ``%.2f``.
"""

from __future__ import annotations

import math
from itertools import compress, groupby
from pathlib import Path

from ._record import _real

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
    """A log10 axis over [lo, hi], padded by 4 % of its span on each side,
    laid onto the pixels from p0 (at the padded lo) to p1."""

    def __init__(self, lo: float, hi: float, p0: float, p1: float):
        lo, hi = math.log10(lo), math.log10(hi)
        if hi <= lo:
            pad = 0.5 if lo == 0.0 else abs(lo) * 0.05 + 1e-12
            lo, hi = lo - pad, hi + pad
        span = hi - lo
        self.lo = lo - 0.04 * span
        self.hi = hi + 0.04 * span
        self.p0, self.p1 = p0, p1

    def pixels(self, values) -> list[float]:
        """Pixel of each value: p0 + (log10(v) - lo) / (hi - lo) * (p1 - p0),
        with ``math.log10`` (libm's log10)."""
        lo, span, p0, length = self.lo, self.hi - self.lo, self.p0, self.p1 - self.p0
        log10 = math.log10
        return [p0 + (log10(v) - lo) / span * length for v in values]

    def pixel(self, value: float) -> float:
        return self.pixels((value,))[0]

    def ticks(self) -> list[tuple[float, str]]:
        """One tick per decade, or five spread evenly across less than two."""
        decades = range(int(math.ceil(self.lo)), int(math.floor(self.hi)) + 1)
        out = [(10.0 ** k, f"1e{k}") for k in decades]
        if len(out) >= 2:
            return out
        from .scenarios import _linspace

        return [(10.0 ** v, f"{10.0 ** v:.2e}") for v in _linspace(self.lo, self.hi, 5)]


def _floats(values, label: str) -> tuple[float, ...]:
    """The values of a 1-d sequence as floats, read as ``_record._real``
    reads a number: text, a bool, a complex or an int past the float range
    is a ValueError naming the series, and so is a nested sequence. A
    sequence of floats, or a numpy array of floats or ints, converts in one
    pass; any other sequence is read value by value."""
    dtype = getattr(values, "dtype", None)  # a numpy array's, without numpy
    if getattr(dtype, "kind", None) in ("f", "i", "u") and values.ndim == 1:
        return tuple(map(float, values))
    try:
        values = tuple(values)
    except TypeError:
        raise ValueError(f"series {label!r} needs matching 1-d x and y") from None
    if set(map(type, values)) == {float}:
        return values
    return tuple(_value(v, label) for v in values)


def _value(value, label: str) -> float:
    """One value of a series as a float (``_floats``)."""
    if hasattr(value, "__iter__") and not isinstance(value, str):
        raise ValueError(f"series {label!r} needs matching 1-d x and y")
    return _real(value, f"series {label!r} value")


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
    prepared, given_xs = [], None
    inf = math.inf  # a local: the masks below compare every value with it
    for label, xs, ys in series:
        label = str(label)
        # series that share one x sequence (a sweep's frequency column)
        # convert it and test it once, and share the objects below
        if xs is not given_xs:
            given_xs, xs_floats = xs, _floats(xs, label)
            x_ok = [0.0 < x < inf for x in xs_floats]
        ys = _floats(ys, label)
        if len(xs_floats) != len(ys):
            raise ValueError(f"series {label!r} needs matching 1-d x and y")
        # a point is drawable (True) where both coordinates are positive and
        # finite; False marks a drawable x whose y is not, None an x that is
        # not drawable
        mask = [0.0 < y < inf if ok else None for ok, y in zip(x_ok, ys)]
        # the drawable y, picked once for the extents and the pixels
        prepared.append((label, xs_floats, x_ok, mask, list(compress(ys, mask))))

    # the axis extents: the least and the greatest drawable coordinate of
    # each series that has a drawable point
    extents = [
        (min(compress(xs, mask)), max(compress(xs, mask)), min(drawn_ys), max(drawn_ys))
        for _, xs, _, mask, drawn_ys in prepared
        if drawn_ys
    ]
    if not extents:
        raise ValueError("no drawable points in any series")
    x_lo, x_hi, y_lo, y_hi = zip(*extents)
    box_x0, box_x1 = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    box_y0, box_y1 = MARGIN_TOP, HEIGHT - MARGIN_BOTTOM
    x_axis = _Axis(min(x_lo), max(x_hi), box_x0, box_x1)
    y_axis = _Axis(min(y_lo), max(y_hi), box_y1, box_y0)

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
        x = x_axis.pixel(value)
        if box_x0 - 0.5 <= x <= box_x1 + 0.5:
            parts.append(_line(x, box_y1, x, box_y1 + 5, "#333", 1))
            parts.append(_text(x, box_y1 + 20, 11, label, middle))
    for value, label in y_axis.ticks():
        y = y_axis.pixel(value)
        if box_y0 - 0.5 <= y <= box_y1 + 0.5:
            parts.append(_line(box_x0 - 5, y, box_x0, y, "#333", 1))
            parts.append(_text(box_x0 - 8, y + 4, 11, label, ' text-anchor="end"'))
    parts.append(_text((box_x0 + box_x1) / 2, HEIGHT - 14, 13, xlabel, middle))
    parts.append(_text("20", cy, 13, ylabel, middle, f' transform="rotate(-90 20 {_fmt(cy)})"'))

    for label, xv in vlines:
        xv = float(xv)
        # math.log10 raises on non-positive values; NaN and inf fall outside
        x = x_axis.pixel(xv) if xv > 0.0 else math.nan
        if box_x0 <= x <= box_x1:
            parts.append(_line(x, box_y0, x, box_y1, "#999", 1, "4 3"))
            anchor, fill = ' text-anchor="start"', ' fill="#666"'
            parts.append(_text(x + 3, box_y0 + 12, 10, str(label), anchor, fill))

    mapped_xs = None
    for idx, (_, xs, x_ok, mask, drawn_ys) in enumerate(prepared):
        color = PALETTE[idx % len(PALETTE)]
        if xs is not mapped_xs:
            # each drawable x is mapped and written once per chart
            mapped_xs, x_px = xs, x_axis.pixels(compress(xs, x_ok))
            x_text = ("%.2f " * len(x_px) % tuple(x_px)).split()
        # split the trace wherever points are not drawable: one element per
        # stretch of consecutive drawable points, cut from the written x
        # (x_at counts the drawable x before the stretch) with each y left
        # as a field; one % then writes every y of the series
        elements, x_at = [], 0
        for drawable, run in groupby(mask):
            count = len(list(run))
            if drawable and count >= 2:
                pts = ",%.2f ".join(x_text[x_at : x_at + count])
                elements.append(
                    f'<polyline points="{pts},%.2f" fill="none" stroke="{color}" '
                    'stroke-width="1.6"/>'
                )
            elif drawable:
                elements.append(f'<circle cx="{x_text[x_at]}" cy="%.2f" r="2.2" fill="{color}"/>')
            if drawable is not None:
                x_at += count
        if elements:
            parts.append("\n".join(elements) % tuple(y_axis.pixels(drawn_ys)))

    lx = box_x1 - 188
    for idx, (label, *_) in enumerate(prepared):
        ly = box_y0 + 14 + 16 * idx
        parts.append(_line(lx, ly - 4, lx + 22, ly - 4, PALETTE[idx % len(PALETTE)], 2))
        parts.append(_text(lx + 28, ly, 11, label))

    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8", newline="\n")
