"""SVG line charts: run splitting, axis mapping and markers, checked against
the per-point pixel formula."""

import math
import re

import numpy as np
import pytest

from rotodyne.svgplot import MARGIN_BOTTOM, MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, line_chart

WIDTH, HEIGHT = 760.0, 500.0
POLYLINE = re.compile(r'<polyline points="([^"]*)"')
CIRCLE = re.compile(r'<circle cx="([^"]*)" cy="([^"]*)"')


def axis_map(values, lo_px, hi_px):
    """Per-point pixel formula: the drawable range in log10 padded by 4 % on
    each side, mapped linearly onto [lo_px, hi_px]."""
    vals = [math.log10(v) for v in values]
    lo, hi = min(vals), max(vals)
    lo, hi = lo - 0.04 * (hi - lo), hi + 0.04 * (hi - lo)

    def to_px(value):
        return lo_px + (math.log10(value) - lo) / (hi - lo) * (hi_px - lo_px)

    return to_px


def chart(tmp_path, series, **kwargs):
    path = tmp_path / "chart.svg"
    line_chart(path, series, **{"title": "t", "xlabel": "x", "ylabel": "y", **kwargs})
    return path.read_text()


def expected_runs(xs, ys, drawable, px, py):
    """'x,y' point strings of each run of consecutive drawable points."""
    runs, current = [], []
    for x, y, ok in zip(xs, ys, drawable):
        if ok:
            current.append(f"{px(x):.2f},{py(y):.2f}")
        elif current:
            runs.append(current)
            current = []
    if current:
        runs.append(current)
    return runs


def drawn_runs(svg):
    """Point strings of every polyline and circle, in document order."""
    runs = []
    for match in re.finditer(r'<polyline points="([^"]*)"|<circle cx="([^"]*)" cy="([^"]*)"', svg):
        if match.group(1) is not None:
            runs.append(match.group(1).split(" "))
        else:
            runs.append([f"{match.group(2)},{match.group(3)}"])
    return runs


class TestRuns:
    def test_log_axes_split_runs_at_undrawable_points(self, tmp_path):
        xs = np.geomspace(1.0, 1e4, 12)
        ys = np.geomspace(3e-3, 7.0, 12)
        ys[[2, 4, 5, 10]] = (math.nan, -1.0, 0.0, math.inf)
        svg = chart(tmp_path, [("s", xs, ys)])
        drawable = np.isfinite(ys) & (ys > 0.0)
        px = axis_map(xs[drawable], MARGIN_LEFT, WIDTH - MARGIN_RIGHT)
        py = axis_map(ys[drawable], HEIGHT - MARGIN_BOTTOM, MARGIN_TOP)
        want = expected_runs(xs, ys, drawable, px, py)
        # runs of 2, 1, 4 and 1 points: polyline, circle, polyline, circle
        assert [len(run) for run in want] == [2, 1, 4, 1]
        assert drawn_runs(svg) == want
        assert len(POLYLINE.findall(svg)) == 2
        assert len(CIRCLE.findall(svg)) == 2

    def test_shared_and_distinct_x_arrays_map_per_point(self, tmp_path):
        # a and b share one x array but not their undrawable points; c has
        # its own x values; d shares a's array again after c
        xs = np.geomspace(1.0, 1e3, 8)
        xs[[1, 6]] = (-1.0, math.nan)
        other = np.geomspace(2.0, 5e3, 8)
        ya, yb = np.geomspace(1.0, 9.0, 8), np.geomspace(5.0, 0.5, 8)
        ya[3], yb[[0, 4]] = 0.0, (math.inf, -2.0)
        series = [("a", xs, ya), ("b", xs, yb), ("c", other, ya), ("d", xs, yb)]
        svg = chart(tmp_path, series)
        masks = [np.isfinite(x) & (x > 0.0) & np.isfinite(y) & (y > 0.0) for _, x, y in series]
        px = axis_map(np.concatenate([x[m] for (_, x, _), m in zip(series, masks)]),
                      MARGIN_LEFT, WIDTH - MARGIN_RIGHT)
        py = axis_map(np.concatenate([y[m] for (_, _, y), m in zip(series, masks)]),
                      HEIGHT - MARGIN_BOTTOM, MARGIN_TOP)
        want = []
        for (_, x, y), m in zip(series, masks):
            want += expected_runs(x, y, m, px, py)
        assert drawn_runs(svg) == want

    def test_undrawable_series_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no drawable points"):
            chart(tmp_path, [("s", [1.0, 2.0], [-1.0, 0.0])])
        with pytest.raises(ValueError, match="matching 1-d x and y"):
            chart(tmp_path, [("s", [1.0, 2.0], [1.0, 2.0, 3.0])])


class TestMarkers:
    def test_vlines_inside_the_box_only(self, tmp_path):
        xs = np.geomspace(10.0, 1e5, 7)
        ys = np.geomspace(1.0, 2.0, 7)
        svg = chart(
            tmp_path,
            [("s", xs, ys)],
            vlines=(("inside", 300.0), ("outside", 1e9), ("negative", -5.0), ("nan", math.nan)),
        )
        px = axis_map(xs, MARGIN_LEFT, WIDTH - MARGIN_RIGHT)
        dashed = re.findall(r'<line x1="([^"]*)" y1="[^"]*" x2="([^"]*)"[^>]*stroke-dasharray', svg)
        assert dashed == [(f"{px(300.0):.2f}", f"{px(300.0):.2f}")]
        assert ">inside</text>" in svg
        assert "outside" not in svg and "negative" not in svg
        py = axis_map(ys, HEIGHT - MARGIN_BOTTOM, MARGIN_TOP)
        assert drawn_runs(svg) == expected_runs(xs, ys, np.ones(7, bool), px, py)


class TestText:
    def test_every_label_is_escaped_as_saxutils_escapes_it(self, tmp_path):
        from xml.sax.saxutils import escape

        text = "a & b < c > d \"q\" 's' &amp; ]]>"
        svg = chart(
            tmp_path,
            [(text, [1.0, 2.0], [1.0, 2.0])],
            title=text,
            xlabel=text,
            ylabel=text,
            vlines=((text, 1.5),),
        )
        # title, both axis labels, the legend entry and the marker label
        assert svg.count(f">{escape(text)}</text>") == 5
        assert text not in svg
