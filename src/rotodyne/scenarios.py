"""Grids, sweeps, deterministic tables and the summary figure; every public
name of the scenario core ``rotodyne._scenario`` is re-exported here. CSV
output is deterministic byte-for-byte: floats are written with 17
significant digits and LF line endings.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property
from itertools import chain, compress, repeat
from operator import ne
from pathlib import Path

from ._record import Factory, Record
from ._scenario import (  # noqa: F401 (the core's public names, re-exported)
    DEFAULT_DIPOLE, ENGINES, Scenario, _FAMILIES, _count, _csv_cell, _json_text, load_scenario,
    preset, preset_names, save_scenario, scenario_from_dict, scenario_gp, scenario_rates,
    scenario_to_dict,
)
from ._version import __version__
from .cavity import CavitySpec
from .kinematics import derive_kinematics
from .rates import _assemble, _setup

__all__ = [
    "DEFAULT_DIPOLE",
    "ENGINES",
    "Scenario",
    "SweepTable",
    "preset",
    "preset_names",
    "scenario_from_dict",
    "scenario_to_dict",
    "load_scenario",
    "save_scenario",
    "build_grid",
    "default_anchors",
    "scenario_rates",
    "scenario_gp",
    "sweep_cavity",
    "default_n_grid",
    "gp_vs_n",
    "table_to_csv_text",
    "table_to_json_text",
    "write_csv",
    "write_json",
    "rates_sweep_chart",
    "gp_vs_n_chart",
    "figure1",
]

RATE_SWEEP_COLUMNS = (
    "omega_c_rad_per_s",
    "gamma_down_total_per_s",
    "gamma_down_inertial_per_s",
    "gamma_down_noninertial_per_s",
    "gamma_up_per_s",
    "validity",
)

GP_VS_N_COLUMNS = (
    "n",
    "phi_unitary_rad",
    "phi_in_rad",
    "phi_ni_rad",
    "phi_nonunitary_total_rad",
    "pi_n_A_over_Omega0",
)


# The most points a sweep or cycle-count grid may ask for, checked from the
# count alone before the grid's list is built: 2500 times the 400-point
# sweep default, 8 MB as a float array.
_MAX_GRID_POINTS = 10**6


def _check_points(points: int, least: int) -> None:
    if points < least:
        raise ValueError(f"need at least {least} grid point{'s' * (least > 1)}, got {points}")
    if points > _MAX_GRID_POINTS:
        raise ValueError(f"need at most {_MAX_GRID_POINTS} grid points, got {points}")


def build_grid(
    start: float, stop: float, points: int, log: bool = True, anchors=()
) -> tuple[float, ...]:
    """Frequency grid with guaranteed sample points, as a sorted tuple of
    distinct floats.

    Narrow cavity lines are easily stepped over by a bare log grid, so
    any anchor falling inside [start, stop] is inserted exactly. At most
    10**6 points may be asked for. The cells are numpy's ``linspace`` and
    ``geomspace`` constructions run on floats, with libm's ``log10`` and
    ``pow`` in the log grid (``_geomspace``).
    """
    _check_points(points, 2)
    if not -math.inf < start < stop < math.inf:
        raise ValueError(f"need finite stop > start, got [{start}, {stop}]")
    if log and start <= 0.0:
        raise ValueError(f"log grid needs start > 0, got {start}")
    start, stop = float(start), float(stop)
    cells = (_geomspace if log else _linspace)(start, stop, points)
    cells += [float(a) for a in anchors if start <= a <= stop]
    return _sorted_distinct(cells)


def _linspace(start: float, stop: float, points: int) -> list[float]:
    """numpy's ``linspace`` of two or more points, in floats: cell i is
    i * step + start with step = (stop - start) / (points - 1), or
    i / (points - 1) * (stop - start) + start where that step rounds to 0,
    and the last cell is stop itself."""
    div = points - 1
    delta = stop - start
    step = delta / div
    if step == 0.0:
        cells = [i / div * delta + start for i in range(div)]
    else:
        cells = [i * step + start for i in range(div)]
    cells.append(stop)
    return cells


def _geomspace(start: float, stop: float, points: int) -> list[float]:
    """numpy's ``geomspace`` of positive endpoints, on libm: the ``_linspace``
    of their ``math.log10`` values, 10.0 ** y at each inner cell, and both
    endpoints themselves."""
    if points == 1:
        return [start]
    logs = _linspace(math.log10(start), math.log10(stop), points)
    return [start, *[10.0 ** y for y in logs[1:-1]], stop]


def default_anchors(scenario: Scenario) -> tuple[float, ...]:
    """Rate-structure frequencies the sweep grid must not miss: the gap
    and the family's sidebands."""
    kin = derive_kinematics(scenario.trajectory, scenario.atom)
    anchors = _FAMILIES[scenario.family].anchors
    return (scenario.atom.omega0, *(getattr(kin, name) for name in anchors))


class SweepTable(Record):
    """Result table stored as row tuples, with deterministic serialization.

    ``metadata`` (scenario snapshot, tool version, axis name) rides along
    into JSON output; the CSV schema is fixed by the column tuple alone.
    The writers and ``column`` read the cells through one cached
    transpose of ``rows``.
    """

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    metadata: dict = Factory(dict)

    @cached_property
    def _cells_by_column(self) -> tuple[tuple, ...]:
        """One tuple of cells per column."""
        return tuple(zip(*self.rows)) if self.rows else ((),) * len(self.columns)

    def column(self, name: str) -> np.ndarray:
        """The named column as a numpy array (``object`` for text); the
        chart writers read ``_cells_by_column`` and load no numpy."""
        import numpy as np
        values = self._cells_by_column[self.columns.index(name)]
        if values and isinstance(values[0], str):
            return np.asarray(values, dtype=object)
        return np.asarray(values, dtype=float)


def _table_metadata(scenario: Scenario, axis: str, points: int) -> dict:
    return {
        "scenario": scenario_to_dict(scenario),
        "tool_version": __version__,
        "axis": axis,
        "points": points,
    }


# The most points a sweep evaluates one float point at a time for, while
# numpy is not loaded yet. On an x86-64 Xeon with Python 3.11 and numpy 2.4
# (10 fresh processes, each timing both presets' 6000-point grids), importing
# numpy took 155 ms (quartiles 142-161 ms), and a float point 6.5 us
# (6.3-7.5 us) against 0.61 us on the array path, so past about 25000 points
# (quartiles 21000-27000, least 19000) one array call pays for the import.
_SCALAR_SWEEP_MAX = 20000


def sweep_cavity(scenario: Scenario, grid: Sequence[float] | None = None) -> SweepTable:
    """Transition rates as a function of the cavity resonance frequency.

    The scenario's cavity-independent set-up (kinematics, coupling,
    validity) is formed once. Its family formula then runs once on the
    grid as an array ``omega_c`` when numpy is loaded already or the grid
    has more than ``_SCALAR_SWEEP_MAX`` points, and once per float point
    otherwise. Both give the same rows bit for bit (the ``cavity``
    float/array contract); the float path loads no numpy.
    """
    if grid is None:
        grid = build_grid(
            scenario.sweep_lo,
            scenario.sweep_hi,
            scenario.sweep_points,
            log=True,
            anchors=default_anchors(scenario),
        )
    if len(grid) == 0:
        raise ValueError("sweep grid is empty")
    arrays = "numpy" in sys.modules or len(grid) > _SCALAR_SWEEP_MAX
    rows = _sweep_rows(scenario, grid, arrays)
    return SweepTable(
        columns=RATE_SWEEP_COLUMNS,
        rows=rows,
        metadata=_table_metadata(scenario, "omega_c_rad_per_s", len(rows)),
    )


def _sweep_rows(scenario: Scenario, grid: Sequence[float], arrays: bool) -> tuple[tuple, ...]:
    """Sweep rows of the family formula after one set-up, run once on the
    grid as an array (``arrays``) or once per float point with its own
    ``CavitySpec``. The grid is checked first, so a bad grid point is
    reported before a bad set-up; warnings never depend on ``omega_c``."""
    traj, atom, cavity = scenario.trajectory, scenario.atom, scenario.cavity
    if arrays:
        import numpy as np
        cavities = [cavity._replace(omega_c=np.asarray(grid, dtype=float))]
    else:
        cavities = [CavitySpec(w, cavity.q_factor, cavity.volume) for w in map(float, grid)]
    kin, eta = _setup(traj, atom, cavity)
    formula = _FAMILIES[scenario.family].formula
    rates = [formula(traj, atom, c, kin, eta) for c in cavities]
    validity = _assemble(kin, rates[0]).validity
    if arrays:
        columns = np.broadcast_arrays(cavities[0].omega_c, *rates[0][:4])
        return tuple(zip(*(c.tolist() for c in columns), repeat(validity)))
    return tuple((c.omega_c, *r[:4], validity) for c, r in zip(cavities, rates))


def default_n_grid(n_max: int, points: int = 25) -> tuple[int, ...]:
    """Log-spaced integer cycle counts from 1 to n_max, deduplicated, as a
    sorted tuple: the cells of ``_geomspace(1, n_max)`` rounded half to even.

    n_max may not exceed 2**53: past it float(n_max) need not equal
    n_max. At most 10**6 points may be asked for.
    """
    _check_points(points, 1)
    if not 1 <= n_max <= 2**53:
        raise ValueError(f"n_max must lie in [1, 2**53], got {n_max}")
    return _sorted_distinct(list(map(round, _geomspace(1.0, float(n_max), points))))


def _sorted_distinct(values: list) -> tuple:
    """Sort the list in place and return its distinct values as a tuple:
    the steps numpy's ``unique`` takes on 1-d input, keeping each value
    that differs from the one before it."""
    values.sort()
    return (values[0], *compress(values[1:], map(ne, values[1:], values)))


def gp_vs_n(scenario: Scenario, n_values=None) -> SweepTable:
    """Geometric-phase contributions as the cycle count grows: ``gp_split``
    of one rate evaluation at each whole, positive cycle count, the parts
    of the scenario's own engine (as ``scenario_gp``)."""
    from .geophase import gp_split

    if n_values is None:
        n_values = default_n_grid(scenario.n_max)
    rates = scenario_rates(scenario)
    rows = []
    for n in n_values:
        n = _count(n, "cycle count")
        res = gp_split(rates, n, scenario.atom.theta0, scenario.atom.omega0)
        rows.append(
            (
                n,
                res.unitary_part,
                res.inertial_part,
                res.noninertial_part,
                res.nonunitary_part,
                res.diagnostics["pi_n_a_over_omega0"],
            )
        )
    return SweepTable(
        columns=GP_VS_N_COLUMNS,
        rows=tuple(rows),
        metadata=_table_metadata(scenario, "n", len(rows)),
    )


def _column_kind(cells) -> str:
    """'text', 'int', 'float' or 'mixed', from the types of a column's cells.
    Only a column of another number type than int or float alone imports
    ``numbers``."""
    kinds = set(map(type, cells))
    if all(issubclass(k, str) for k in kinds):
        return "text"
    if kinds == {int} or kinds == {float}:
        return "int" if int in kinds else "float"
    import numbers

    if all(issubclass(k, numbers.Integral) for k in kinds):
        return "int"
    if any(issubclass(k, (str, numbers.Integral)) for k in kinds):
        return "mixed"
    return "float"


def table_to_csv_text(table: SweepTable) -> str:
    """CSV with one row per table row, each cell as ``_csv_cell`` writes it.

    Each column picks its format once and each distinct string is quoted
    once; the body is one ``%`` over a row template.
    """
    alone = len(table.columns) == 1
    header = ",".join(_csv_cell(name, alone) for name in table.columns) + "\n"
    fields, columns = [], []
    for cells in table._cells_by_column:
        kind = _column_kind(cells)
        if kind == "text":
            quoted = {text: _csv_cell(text, alone) for text in set(cells)}
            cells = list(map(quoted.__getitem__, cells))
        elif kind == "mixed":
            cells = [_csv_cell(v, alone) for v in cells]
        fields.append({"int": "%d", "float": "%.16e"}.get(kind, "%s"))
        columns.append(cells)
    template = (",".join(fields) + "\n") * len(table.rows)
    return header + template % tuple(chain.from_iterable(zip(*columns)))


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_cells(cells) -> list[str]:
    """JSON text of each cell of a column, as ``json.dumps`` writes it:
    strings as they are, every other cell as a float."""
    import json

    kind = _column_kind(cells)
    if kind == "text":
        texts = {text: json.dumps(text) for text in set(cells)}
        return list(map(texts.__getitem__, cells))
    if kind == "mixed":
        return [json.dumps(v if isinstance(v, str) else float(v)) for v in cells]
    values = list(map(float, cells))  # repr(np.float64(1.0)) is 'np.float64(1.0)'
    texts = list(map(repr, values))
    if not all(map(math.isfinite, values)):
        texts = [_JSON_NON_FINITE.get(t, t) for t in texts]
    return texts


def table_to_json_text(table: SweepTable) -> str:
    """The table as ``_json_text`` writes ``{"columns", "metadata", "rows"}``,
    every non-string cell as a float.

    Only the columns and metadata go through ``_json_text`` whole; the
    rows are one ``%`` over a row template of per-column cell texts.
    """
    head = _json_text({"columns": list(table.columns), "metadata": table.metadata})
    rows = "[]"
    if table.rows:
        columns = [_json_cells(cells) for cells in table._cells_by_column]
        row = "    [\n      " + ",\n      ".join(["%s"] * len(columns)) + "\n    ]"
        template = ",\n".join([row if columns else "    []"] * len(table.rows))
        rows = "[\n" + template % tuple(chain.from_iterable(zip(*columns))) + "\n  ]"
    return head[: -len("\n}\n")] + f',\n  "rows": {rows}\n}}\n'


def write_csv(table: SweepTable, path) -> None:
    Path(path).write_text(table_to_csv_text(table), encoding="utf-8", newline="")


def write_json(table: SweepTable, path) -> None:
    Path(path).write_text(table_to_json_text(table), encoding="utf-8", newline="\n")


def rates_sweep_chart(table: SweepTable, scenario: Scenario, path) -> Path:
    """Render a rate-sweep table as a standalone log-log SVG panel."""
    from .svgplot import line_chart

    cells = dict(zip(table.columns, table._cells_by_column))
    omega_c = cells["omega_c_rad_per_s"]
    line_chart(
        path,
        [
            ("total downward", omega_c, cells["gamma_down_total_per_s"]),
            ("inertial part", omega_c, cells["gamma_down_inertial_per_s"]),
            ("non-inertial part", omega_c, cells["gamma_down_noninertial_per_s"]),
            ("upward", omega_c, cells["gamma_up_per_s"]),
        ],
        title=f"{scenario.name}: decay channels vs cavity frequency",
        xlabel="cavity frequency (rad/s)",
        ylabel="rate (1/s)",
        vlines=tuple(
            zip(("transition", "cavity"), (scenario.atom.omega0, scenario.cavity.omega_c))
        ),
    )
    return Path(path)


def gp_vs_n_chart(table: SweepTable, scenario: Scenario, path) -> Path:
    """Render a phase-versus-cycles table as a standalone SVG panel.

    Plots magnitudes (the corrections are negative) on log-log axes.
    """
    from .svgplot import line_chart

    cells = dict(zip(table.columns, table._cells_by_column))
    n_col = cells["n"]
    line_chart(
        path,
        [
            ("|non-inertial|", n_col, tuple(map(abs, cells["phi_ni_rad"]))),
            ("|inertial|", n_col, tuple(map(abs, cells["phi_in_rad"]))),
        ],
        title=f"{scenario.name}: dissipative phase corrections vs cycles",
        xlabel="precession cycles n",
        ylabel="|phase correction| (rad)",
    )
    return Path(path)


# table columns -> (file name after the scenario's, SVG panel writer)
_TABLE_FILES = {
    RATE_SWEEP_COLUMNS: ("rates_sweep", rates_sweep_chart),
    GP_VS_N_COLUMNS: ("gp_vs_n", gp_vs_n_chart),
}


def _write_table(
    table: SweepTable, scenario: Scenario, outdir: Path, fmt: str = "csv", plot: bool = True
) -> list[Path]:
    """Write a rate-sweep or phase-versus-cycles table into outdir as
    ``<scenario>_rates_sweep.<fmt>`` or ``<scenario>_gp_vs_n.<fmt>``, with
    ``plot`` its SVG panel beside it; returns the paths written."""
    kind, chart = _TABLE_FILES[table.columns]
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{scenario.name}_{kind}.{fmt}"
    (write_json if fmt == "json" else write_csv)(table, path)
    if not plot:
        return [path]
    return [path, chart(table, scenario, outdir / f"{scenario.name}_{kind}.svg")]


def figure1(outdir, points: int | None = None) -> tuple[Path, ...]:
    """Regenerate the four-panel summary at desk scale.

    Writes, per preset, the cavity-frequency rate sweep and the
    phase-versus-cycle-count table, each as CSV plus a standalone SVG
    panel. Returns the eight paths in a fixed order.
    """
    outdir = Path(outdir)
    written: list[Path] = []
    for name in preset_names():
        scn = preset(name)
        if points is not None:
            scn = scn._replace(sweep_points=points)
        written += _write_table(sweep_cavity(scn), scn, outdir)
        written += _write_table(gp_vs_n(scn), scn, outdir)
    return tuple(written)
