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


# Every coordinate is a power of ten, whose log10 is exact on any libm, so
# these bytes do not depend on the platform.
GOLDEN = """\
<svg xmlns="http://www.w3.org/2000/svg" width="760.00" height="500.00" viewBox="0 0 760.00 500.00">
<rect x="0" y="0" width="760.00" height="500.00" fill="white"/>
<rect x="78.00" y="42.00" width="664.00" height="400.00" fill="none" stroke="#333" stroke-width="1"/>
<text x="380.00" y="24" text-anchor="middle" font-family="sans-serif" font-size="15">T &amp; &lt;t&gt;</text>
<line x1="102.59" y1="442.00" x2="102.59" y2="447.00" stroke="#333" stroke-width="1"/>
<text x="102.59" y="462.00" text-anchor="middle" font-family="sans-serif" font-size="11">1e0</text>
<line x1="307.53" y1="442.00" x2="307.53" y2="447.00" stroke="#333" stroke-width="1"/>
<text x="307.53" y="462.00" text-anchor="middle" font-family="sans-serif" font-size="11">1e1</text>
<line x1="512.47" y1="442.00" x2="512.47" y2="447.00" stroke="#333" stroke-width="1"/>
<text x="512.47" y="462.00" text-anchor="middle" font-family="sans-serif" font-size="11">1e2</text>
<line x1="717.41" y1="442.00" x2="717.41" y2="447.00" stroke="#333" stroke-width="1"/>
<text x="717.41" y="462.00" text-anchor="middle" font-family="sans-serif" font-size="11">1e3</text>
<line x1="73.00" y1="427.19" x2="78.00" y2="427.19" stroke="#333" stroke-width="1"/>
<text x="70.00" y="431.19" text-anchor="end" font-family="sans-serif" font-size="11">1e0</text>
<line x1="73.00" y1="303.73" x2="78.00" y2="303.73" stroke="#333" stroke-width="1"/>
<text x="70.00" y="307.73" text-anchor="end" font-family="sans-serif" font-size="11">1e1</text>
<line x1="73.00" y1="180.27" x2="78.00" y2="180.27" stroke="#333" stroke-width="1"/>
<text x="70.00" y="184.27" text-anchor="end" font-family="sans-serif" font-size="11">1e2</text>
<line x1="73.00" y1="56.81" x2="78.00" y2="56.81" stroke="#333" stroke-width="1"/>
<text x="70.00" y="60.81" text-anchor="end" font-family="sans-serif" font-size="11">1e3</text>
<text x="410.00" y="486.00" text-anchor="middle" font-family="sans-serif" font-size="13">x</text>
<text x="20" y="242.00" text-anchor="middle" font-family="sans-serif" font-size="13" transform="rotate(-90 20 242.00)">y</text>
<line x1="512.47" y1="42.00" x2="512.47" y2="442.00" stroke="#999" stroke-width="1" stroke-dasharray="4 3"/>
<text x="515.47" y="54.00" text-anchor="start" font-family="sans-serif" font-size="10" fill="#666">in</text>
<polyline points="102.59,427.19 307.53,303.73" fill="none" stroke="#1f77b4" stroke-width="1.6"/>
<circle cx="717.41" cy="56.81" r="2.2" fill="#1f77b4"/>
<polyline points="102.59,303.73 717.41,180.27" fill="none" stroke="#d62728" stroke-width="1.6"/>
<line x1="554.00" y1="52.00" x2="576.00" y2="52.00" stroke="#1f77b4" stroke-width="2"/>
<text x="582.00" y="56.00" font-family="sans-serif" font-size="11">rate &lt;in&gt; &amp; out</text>
<line x1="554.00" y1="68.00" x2="576.00" y2="68.00" stroke="#d62728" stroke-width="2"/>
<text x="582.00" y="72.00" font-family="sans-serif" font-size="11">flat</text>
</svg>
"""


class TestGolden:
    def test_chart_bytes(self, tmp_path):
        # an escaped title and legend label, a vline inside the box and one
        # past it, a one-point run drawn as a circle, and a two-entry legend
        series = [
            ("rate <in> & out", [1.0, 10.0, 100.0, 1000.0], [1.0, 10.0, math.nan, 1000.0]),
            ("flat", [1.0, 1000.0], [10.0, 100.0]),
        ]
        path = tmp_path / "golden.svg"
        line_chart(path, series, title="T & <t>", xlabel="x", ylabel="y",
                   vlines=(("in", 100.0), ("out", 1e4)))
        assert path.read_bytes() == GOLDEN.encode()
