"""Named parameter sets, sweep drivers, and deterministic table output.

A Scenario bundles the atom, its circular trajectory, and the cavity,
together with regime metadata (which expanded rate family applies, how
many precession cycles to accumulate by default). Two presets cover the
regimes of interest:

``case1``
    Rotation far faster than the precession; the cavity sits on the
    upper motional sideband.

``case2``
    Rotation far slower than the precession; the cavity sits on the
    upper recoil-shifted line.

User configs may also select the ``general`` family, which evaluates the
resonance-condition engine with no regime expansion; its inertial
reference is the static rate eta * dos(omega0) * omega0.

Scenario JSON uses unit-bearing keys (e.g. ``omega0_rad_per_s``) and is
strict: unknown or missing keys, values of the wrong type and counts that
are not whole numbers raise ValueError. The table ``_SCHEMA`` states the
format once: each block's record type and its (JSON key, field, reader)
triples, which ``scenario_from_dict`` reads and ``scenario_to_dict``
writes. CSV output is deterministic byte-for-byte: floats are written
with 17 significant digits and LF line endings.
"""

from __future__ import annotations

import io
import math
import numbers
import sys
from functools import cached_property
from itertools import chain, compress, repeat
from operator import ne
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from ._record import Factory, Record
from ._version import __version__
from .cavity import CavitySpec
from .kinematics import AtomParams, KinematicDerived, TrajectoryParams, derive_kinematics
from .rates import RateSet, case1_rates, case2_rates, general_rates

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

# moderate optical-range electric dipole moment, C m
DEFAULT_DIPOLE = 8.478e-30

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


class Scenario(Record):
    """Atom, orbit, cavity, rate family, cycle counts and cavity sweep under
    one name, held to the scenario file's rules (``_name``, ``_count``)."""

    name: str
    atom: AtomParams
    trajectory: TrajectoryParams
    cavity: CavitySpec
    family: str
    n_default: int
    n_max: int
    sweep_lo: float
    sweep_hi: float
    sweep_points: int = 400

    def __post_init__(self):
        object.__setattr__(self, "name", _name(self.name))
        for key in ("n_default", "n_max", "sweep_points"):
            object.__setattr__(self, key, _count(getattr(self, key), key))
        if self.family not in _FAMILIES:
            raise ValueError(f"family must be one of {tuple(_FAMILIES)}, got {self.family!r}")
        if self.n_default < 1 or self.n_max < self.n_default:
            raise ValueError("need 1 <= n_default <= n_max")
        if not 0.0 < self.sweep_lo < self.sweep_hi < math.inf:
            raise ValueError("need 0 < sweep_lo < sweep_hi < inf")
        if self.sweep_points < 2:
            raise ValueError("need at least 2 sweep points")


class _Family(NamedTuple):
    rates: Callable  # fn(trajectory, atom, cavity) -> RateSet, looked up when called
    engine: str  # the default engine of scenario_gp
    anchors: tuple[str, ...]  # KinematicDerived fields a sweep grid keeps, besides omega0


# The fast-rotation family leaves out the redshifted gap: it sits within
# the cavity linewidth of the gap itself, where the density-of-states
# derivative term responds far more strongly than the sideband resonance
# and would mask it. Each lambda looks its rate function up here when called,
# so that the wrappers bench/tracing.py sets on these names see the call.
_FAMILIES = {
    "case1": _Family(lambda *a: case1_rates(*a), "case1", ("omega_minus", "omega_plus")),
    "case2": _Family(
        lambda *a: case2_rates(*a), "case2", ("omega0_bar", "obar_minus", "obar_plus")
    ),
    "general": _Family(
        lambda *a: general_rates(*a),
        "quasi-cycle",
        ("omega0_bar", "omega_minus", "omega_plus", "obar_minus", "obar_plus"),
    ),
}

# preset, of the family of its name -> (radius in m, omega in rad/s, the
# KinematicDerived sideband of the cavity, volume in m^3, n_default, n_max)
_PRESETS = {
    "case1": (1.0e-6, 5.0e9, "omega_plus", 1.0e-7, 100_000, 1_000_000),
    "case2": (1.0e-3, 1.0e5, "obar_plus", 1.0e-3, 10_000_000, 100_000_000),
}


def preset_names() -> tuple[str, ...]:
    return tuple(_PRESETS)


def _sweep_bounds(
    family: str, atom: AtomParams, kin: KinematicDerived
) -> tuple[float, float]:
    """Default cavity-sweep range: around the redshifted sidebands for the
    slow-rotation family (while the lower one is positive), else from half
    the gap to twice the highest sideband."""
    if family == "case2" and kin.obar_minus > 0.0:
        return 0.9 * kin.obar_minus, 1.1 * kin.obar_plus
    return atom.omega0 / 2.0, 2.0 * max(kin.omega_plus, kin.obar_plus)


def preset(name: str) -> Scenario:
    """Built-in scenario by name ('case1' or 'case2')."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(_PRESETS)}")
    radius, omega, sideband, volume, n_default, n_max = _PRESETS[name]
    atom = AtomParams(omega0=1.0e7, dipole=DEFAULT_DIPOLE, theta0=math.pi / 2.0)
    traj = TrajectoryParams(radius=radius, omega=omega)
    kin = derive_kinematics(traj, atom)
    cavity = CavitySpec(omega_c=getattr(kin, sideband), q_factor=1.0e7, volume=volume)
    bounds = _sweep_bounds(name, atom, kin)
    return Scenario(name, atom, traj, cavity, name, n_default, n_max, *bounds)


def _require_keys(block, keys, where: str) -> None:
    """ValueError unless the block is a JSON object with no key outside
    keys and every one of them that is not in ``_OPTIONAL``."""
    if not isinstance(block, dict):
        raise ValueError(f"{where} must be a JSON object, got {block!r}")
    unknown = sorted(set(block) - set(keys))
    if unknown:
        raise ValueError(f"unknown keys in {where}: {', '.join(unknown)}")
    missing = sorted(k for k in keys if k not in _OPTIONAL and k not in block)
    if missing:
        raise ValueError(f"missing keys in {where}: {', '.join(missing)}")


def _number(value, name: str) -> float:
    """A real number as a float; ValueError for anything else."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer literal past the float range
            pass
    raise ValueError(f"{name} must be a number, got {value!r}")


def _count(value, name: str) -> int:
    """A whole number as an int; ValueError for anything else."""
    if _number(value, name).is_integer():
        return int(value)
    raise ValueError(f"{name} must be a whole number, got {value!r}")


def _point(value, name: str) -> tuple[float, float]:
    """Two coordinates as a pair of floats; ValueError for anything else."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"{name} must hold two coordinates")
    return tuple(_number(v, name) for v in value)


def _name(value) -> str:
    """A scenario name, which output file names embed: a non-empty string
    with no path separator and no '..'; ValueError for anything else."""
    if not isinstance(value, str) or not value or any(t in value for t in ("/", "\\", "..")):
        raise ValueError(
            f"name must be a non-empty string with no path separator or '..', got {value!r}"
        )
    return value


# The blocks of a scenario file: the record type each one fills and its
# (JSON key, field, reader) triples. The sweep block fills fields of the
# Scenario itself; it and the keys in _OPTIONAL may be left out.
_SCHEMA = {
    "atom": (AtomParams, (
        ("omega0_rad_per_s", "omega0", _number),
        ("dipole_C_m", "dipole", _number),
        ("theta0_rad", "theta0", _number),
    )),
    "trajectory": (TrajectoryParams, (
        ("radius_m", "radius", _number),
        ("omega_rad_per_s", "omega", _number),
        ("center_m", "center", _point),
    )),
    "cavity": (CavitySpec, (
        ("omega_c_rad_per_s", "omega_c", _number),
        ("q_factor", "q_factor", _number),
        ("volume_m3", "volume", _number),
    )),
    "sweep": (Scenario, (
        ("lo_rad_per_s", "sweep_lo", _number),
        ("hi_rad_per_s", "sweep_hi", _number),
        ("points", "sweep_points", _count),
    )),
}
_OPTIONAL = {"sweep", "center_m", "lo_rad_per_s", "hi_rad_per_s", "points"}


def _read(data: dict, block: str) -> dict:
    """Field values of one block of a scenario file, each key that is
    present through its reader."""
    values, triples = data.get(block, {}), _SCHEMA[block][1]
    _require_keys(values, [key for key, _, _ in triples], f"scenario.{block}")
    return {field: read(values[key], key) for key, field, read in triples if key in values}


def scenario_from_dict(data: dict) -> Scenario:
    _require_keys(data, ("name", "family", "n_default", "n_max", *_SCHEMA), "scenario")
    atom, traj, cavity = (
        record(**_read(data, block))
        for block, (record, _) in _SCHEMA.items()
        if record is not Scenario
    )
    kin = derive_kinematics(traj, atom)
    family = str(data["family"])
    lo, hi = _sweep_bounds(family, atom, kin)
    n_default, n_max = (_count(data[key], key) for key in ("n_default", "n_max"))
    sweep = {"sweep_lo": lo, "sweep_hi": hi, **_read(data, "sweep")}
    return Scenario(data["name"], atom, traj, cavity, family, n_default, n_max, **sweep)


def scenario_to_dict(s: Scenario) -> dict:
    data = {"name": s.name, "family": s.family, "n_default": s.n_default, "n_max": s.n_max}
    for block, (record, triples) in _SCHEMA.items():
        holder = s if record is Scenario else getattr(s, block)
        values = ((key, getattr(holder, field)) for key, field, _ in triples)
        data[block] = {key: list(v) if isinstance(v, tuple) else v for key, v in values}
    return data


def load_scenario(path) -> Scenario:
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read scenario file: {exc}") from exc
    return scenario_from_dict(data)


def _json_text(data) -> str:
    """The JSON text the package writes: indented by 2, keys sorted, and a
    final newline."""
    import json

    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def save_scenario(s: Scenario, path) -> None:
    Path(path).write_text(_json_text(scenario_to_dict(s)), encoding="utf-8", newline="\n")


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
    from .svgplot import _linspace

    start, stop = float(start), float(stop)
    cells = (_geomspace if log else _linspace)(start, stop, points)
    cells += [float(a) for a in anchors if start <= a <= stop]
    return _sorted_distinct(cells)


def _geomspace(start: float, stop: float, points: int) -> list[float]:
    """numpy's ``geomspace`` of positive endpoints, on libm: the ``_linspace``
    of their ``math.log10`` values, 10.0 ** y at each inner cell, and both
    endpoints themselves."""
    from .svgplot import _linspace

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


def scenario_rates(scenario: Scenario, cavity: CavitySpec | None = None) -> RateSet:
    """Co-moving rates for the scenario's formula family, optionally at a
    substituted cavity (used by frequency sweeps)."""
    rates = _FAMILIES[scenario.family].rates
    return rates(scenario.trajectory, scenario.atom, scenario.cavity if cavity is None else cavity)


# The most points a sweep takes one scalar rate call per point for, while
# numpy is not loaded yet. On an x86-64 Xeon with Python 3.11 and numpy 2.4,
# importing numpy took 76 ms (quartiles 72-90 ms over 15 fresh processes)
# and a scalar ``scenario_rates`` call 12.2 us (11.7-13.3 us) on the preset
# grids, so past about 6000 points the array call pays for the import.
_SCALAR_SWEEP_MAX = 6000


def sweep_cavity(scenario: Scenario, grid: Sequence[float] | None = None) -> SweepTable:
    """Transition rates as a function of the cavity resonance frequency.

    One rate evaluation takes the whole grid as an array ``omega_c`` when
    numpy is loaded already or the grid has more than ``_SCALAR_SWEEP_MAX``
    points; otherwise each point takes one scalar ``scenario_rates`` call.
    Both give the same rows bit for bit (the ``cavity`` float/array
    contract); the scalar path loads no numpy.
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
    rows = (_array_rows if arrays else _scalar_rows)(scenario, grid)
    return SweepTable(
        columns=RATE_SWEEP_COLUMNS,
        rows=rows,
        metadata=_table_metadata(scenario, "omega_c_rad_per_s", len(rows)),
    )


def _array_rows(scenario: Scenario, grid: Sequence[float]) -> tuple[tuple, ...]:
    """Sweep rows from one rate evaluation on the grid as an array."""
    import numpy as np
    grid = np.asarray(grid, dtype=float)
    rates = scenario_rates(scenario, scenario.cavity._replace(omega_c=grid))
    columns = np.broadcast_arrays(
        grid, rates.gamma_down, rates.gamma_down_inertial, rates.gamma_down_ni, rates.gamma_up
    )
    return tuple(zip(*(c.tolist() for c in columns), repeat(rates.validity)))


def _scalar_rows(scenario: Scenario, grid: Sequence[float]) -> tuple[tuple, ...]:
    """Sweep rows from one scalar rate evaluation per grid point, with the
    validity of the first: warnings never depend on ``omega_c``."""
    q, volume = scenario.cavity.q_factor, scenario.cavity.volume
    rates = [(w, scenario_rates(scenario, CavitySpec(w, q, volume))) for w in map(float, grid)]
    validity = rates[0][1].validity
    return tuple(
        (w, r.gamma_down, r.gamma_down_inertial, r.gamma_down_ni, r.gamma_up, validity)
        for w, r in rates
    )


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


def _horizon(scenario: Scenario, n: float) -> float:
    """2 pi n / omega0, the horizon of n cycles. Raises OverflowError when it
    is past the float range, as converting a too large integer n to float
    already does."""
    horizon = math.tau * n / scenario.atom.omega0
    if math.isinf(horizon):
        raise OverflowError("horizon 2 pi n / omega0 is past the float range")
    return horizon


def _evolution(scenario: Scenario, n: float) -> tuple[EvolutionParams, float]:
    """Generator of the scenario's rates and the ``_horizon`` of n cycles."""
    from .dynamics import EvolutionParams

    horizon = _horizon(scenario, n)
    params = EvolutionParams.from_rates(
        scenario_rates(scenario), scenario.atom.theta0, scenario.atom.omega0
    )
    return params, horizon


def _geophase():
    """The geophase layer, imported when an engine runs."""
    from . import geophase

    return geophase


# engine name -> fn(scenario, n) -> GPResult
ENGINES = {
    "tong": lambda s, n: _geophase().gp_tong_closed_form(*_evolution(s, n)),
    "exact-integral": lambda s, n: _geophase().gp_exact_integral(
        *_evolution(s, n), n_cycles=float(n)
    ),
    "quasi-cycle": lambda s, n: _geophase().gp_split(
        scenario_rates(s), n, s.atom.theta0, s.atom.omega0
    ),
    "case1": lambda s, n: _geophase().gp_case1(s.trajectory, s.atom, s.cavity, n),
    "case2": lambda s, n: _geophase().gp_case2(s.trajectory, s.atom, s.cavity, n),
}
# the engines on the phase kernel: they take the horizon of n cycles, the rest n**2
_KERNEL_ENGINES = ("tong", "exact-integral")


def scenario_gp(scenario: Scenario, n: int, engine: str | None = None) -> GPResult:
    """Geometric phase of the scenario after n cycles from a named engine
    in ``ENGINES``.

    By default the engine is the scenario's own family (``case1`` or
    ``case2``), and ``quasi-cycle`` on the scenario's rates for the
    ``general`` family: each is ``gp_split`` of ``scenario_rates`` under
    that label. Every engine other than the two case engines evaluates
    the scenario's family rates.

    Raises ValueError for an unknown engine, a count that is nan or
    infinite, and a count past the engine's float range: the horizon 2 pi
    n / omega0 of a kernel engine, n**2 for the others. A numpy count is
    taken as the Python number of its value, so its square cannot wrap.
    """
    if engine is None:
        engine = _FAMILIES[scenario.family].engine
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; available: {', '.join(ENGINES)}")
    n = _geophase()._plain_count(n)
    if isinstance(n, float) and not math.isfinite(n):
        raise ValueError(f"cycle count must be finite, got {n}")
    try:
        if engine in _KERNEL_ENGINES:
            _horizon(scenario, n)
        else:
            float(n * n)
    except OverflowError as exc:
        raise ValueError(f"cycle count of {len(str(n))} digits is too large: {exc}") from None
    return ENGINES[engine](scenario, n)


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
    """'text', 'int', 'float' or 'mixed', from the types of a column's cells."""
    kinds = set(map(type, cells))
    if all(issubclass(k, str) for k in kinds):
        return "text"
    if all(issubclass(k, numbers.Integral) for k in kinds):
        return "int"
    if any(issubclass(k, (str, numbers.Integral)) for k in kinds):
        return "mixed"
    return "float"


def _cell_text(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, numbers.Integral):
        return str(int(value))
    return f"{float(value):.16e}"


def table_to_csv_text(table: SweepTable) -> str:
    """CSV with one row per table row: floats as %.16e, integers as %d and
    text quoted by ``csv.writer``.

    Each column picks its format once and each distinct string is quoted
    once; the body is one ``%`` over a row template.
    """
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    header = buf.getvalue()
    # csv.writer writes a row of one empty field as "", so in a wider row
    # a field is quoted next to an empty one
    pad = ("",) if len(table.columns) > 1 else ()

    def quote(text: str) -> str:
        buf.seek(0)
        buf.truncate()
        writer.writerow((text, *pad))
        return buf.getvalue()[: -1 - len(pad)]

    fields, columns = [], []
    for cells in table._cells_by_column:
        kind = _column_kind(cells)
        if kind == "text":
            quoted = {text: quote(text) for text in set(cells)}
            cells = list(map(quoted.__getitem__, cells))
        elif kind == "mixed":
            cells = [quote(_cell_text(v)) for v in cells]
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
