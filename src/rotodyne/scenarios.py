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
are not whole numbers raise ValueError. CSV output is
deterministic byte-for-byte: floats are written with 17 significant
digits and LF line endings.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path

from ._version import __version__
from .cavity import CavitySpec
from .dynamics import EvolutionParams
from .geophase import (
    GPResult,
    gp_case1,
    gp_case2,
    gp_exact_integral,
    gp_split,
    gp_tong_closed_form,
)
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

_PRESETS = ("case1", "case2")
_FAMILIES = ("case1", "case2", "general")


@dataclass(frozen=True)
class Scenario:
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
        if self.family not in _FAMILIES:
            raise ValueError(f"family must be one of {_FAMILIES}, got {self.family!r}")
        if self.n_default < 1 or self.n_max < self.n_default:
            raise ValueError("need 1 <= n_default <= n_max")
        if not 0.0 < self.sweep_lo < self.sweep_hi < math.inf:
            raise ValueError("need 0 < sweep_lo < sweep_hi < inf")
        if self.sweep_points < 2:
            raise ValueError("need at least 2 sweep points")


def preset_names() -> tuple[str, ...]:
    return _PRESETS


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
    if name == "case1":
        atom = AtomParams(omega0=1.0e7, dipole=DEFAULT_DIPOLE, theta0=math.pi / 2.0)
        traj = TrajectoryParams(radius=1.0e-6, omega=5.0e9)
        kin = derive_kinematics(traj, atom)
        cavity = CavitySpec(omega_c=kin.omega_plus, q_factor=1.0e7, volume=1.0e-7)
        sweep_lo, sweep_hi = _sweep_bounds("case1", atom, kin)
        return Scenario(
            name="case1",
            atom=atom,
            trajectory=traj,
            cavity=cavity,
            family="case1",
            n_default=100_000,
            n_max=1_000_000,
            sweep_lo=sweep_lo,
            sweep_hi=sweep_hi,
        )
    if name == "case2":
        atom = AtomParams(omega0=1.0e7, dipole=DEFAULT_DIPOLE, theta0=math.pi / 2.0)
        traj = TrajectoryParams(radius=1.0e-3, omega=1.0e5)
        kin = derive_kinematics(traj, atom)
        cavity = CavitySpec(omega_c=kin.obar_plus, q_factor=1.0e7, volume=1.0e-3)
        sweep_lo, sweep_hi = _sweep_bounds("case2", atom, kin)
        return Scenario(
            name="case2",
            atom=atom,
            trajectory=traj,
            cavity=cavity,
            family="case2",
            n_default=10_000_000,
            n_max=100_000_000,
            sweep_lo=sweep_lo,
            sweep_hi=sweep_hi,
        )
    raise ValueError(f"unknown preset {name!r}; available: {', '.join(_PRESETS)}")


def _require_keys(block, allowed: dict, where: str) -> dict:
    """allowed maps key -> required flag; returns the validated block."""
    if not isinstance(block, dict):
        raise ValueError(f"{where} must be a JSON object, got {block!r}")
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ValueError(f"unknown keys in {where}: {', '.join(unknown)}")
    missing = sorted(k for k, req in allowed.items() if req and k not in block)
    if missing:
        raise ValueError(f"missing keys in {where}: {', '.join(missing)}")
    return block


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


def _name(value) -> str:
    """A scenario name, which output file names embed: a non-empty string
    with no path separator and no '..'; ValueError for anything else."""
    if not isinstance(value, str) or not value or any(t in value for t in ("/", "\\", "..")):
        raise ValueError(
            f"name must be a non-empty string with no path separator or '..', got {value!r}"
        )
    return value


def scenario_from_dict(data: dict) -> Scenario:
    data = _require_keys(
        data,
        {
            "name": True,
            "family": True,
            "atom": True,
            "trajectory": True,
            "cavity": True,
            "n_default": True,
            "n_max": True,
            "sweep": False,
        },
        "scenario",
    )
    atom_block = _require_keys(
        data["atom"],
        {"omega0_rad_per_s": True, "dipole_C_m": True, "theta0_rad": True},
        "scenario.atom",
    )
    traj_block = _require_keys(
        data["trajectory"],
        {"radius_m": True, "omega_rad_per_s": True, "center_m": False},
        "scenario.trajectory",
    )
    cavity_block = _require_keys(
        data["cavity"],
        {"omega_c_rad_per_s": True, "q_factor": True, "volume_m3": True},
        "scenario.cavity",
    )
    atom = AtomParams(
        omega0=_number(atom_block["omega0_rad_per_s"], "omega0_rad_per_s"),
        dipole=_number(atom_block["dipole_C_m"], "dipole_C_m"),
        theta0=_number(atom_block["theta0_rad"], "theta0_rad"),
    )
    center = traj_block.get("center_m", [0.0, 0.0])
    if not isinstance(center, (list, tuple)) or len(center) != 2:
        raise ValueError("scenario.trajectory.center_m must hold two coordinates")
    traj = TrajectoryParams(
        radius=_number(traj_block["radius_m"], "radius_m"),
        omega=_number(traj_block["omega_rad_per_s"], "omega_rad_per_s"),
        center=tuple(_number(v, "center_m") for v in center),
    )
    cavity = CavitySpec(
        omega_c=_number(cavity_block["omega_c_rad_per_s"], "omega_c_rad_per_s"),
        q_factor=_number(cavity_block["q_factor"], "q_factor"),
        volume=_number(cavity_block["volume_m3"], "volume_m3"),
    )
    kin = derive_kinematics(traj, atom)
    sweep_block = _require_keys(
        data.get("sweep", {}),
        {"lo_rad_per_s": False, "hi_rad_per_s": False, "points": False},
        "scenario.sweep",
    )
    family = str(data["family"])
    lo_default, hi_default = _sweep_bounds(family, atom, kin)
    return Scenario(
        name=_name(data["name"]),
        atom=atom,
        trajectory=traj,
        cavity=cavity,
        family=family,
        n_default=_count(data["n_default"], "n_default"),
        n_max=_count(data["n_max"], "n_max"),
        sweep_lo=_number(sweep_block.get("lo_rad_per_s", lo_default), "lo_rad_per_s"),
        sweep_hi=_number(sweep_block.get("hi_rad_per_s", hi_default), "hi_rad_per_s"),
        sweep_points=_count(sweep_block.get("points", 400), "points"),
    )


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "name": s.name,
        "family": s.family,
        "atom": {
            "omega0_rad_per_s": s.atom.omega0,
            "dipole_C_m": s.atom.dipole,
            "theta0_rad": s.atom.theta0,
        },
        "trajectory": {
            "radius_m": s.trajectory.radius,
            "omega_rad_per_s": s.trajectory.omega,
            "center_m": list(s.trajectory.center),
        },
        "cavity": {
            "omega_c_rad_per_s": s.cavity.omega_c,
            "q_factor": s.cavity.q_factor,
            "volume_m3": s.cavity.volume,
        },
        "n_default": s.n_default,
        "n_max": s.n_max,
        "sweep": {
            "lo_rad_per_s": s.sweep_lo,
            "hi_rad_per_s": s.sweep_hi,
            "points": s.sweep_points,
        },
    }


def load_scenario(path) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read scenario file: {exc}") from exc
    return scenario_from_dict(data)


def save_scenario(s: Scenario, path) -> None:
    text = json.dumps(scenario_to_dict(s), indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def build_grid(
    start: float, stop: float, points: int, log: bool = True, anchors=()
) -> np.ndarray:
    """Frequency grid with guaranteed sample points.

    Narrow cavity lines are easily stepped over by a bare log grid, so
    any anchor falling inside [start, stop] is inserted exactly.
    """
    if points < 2:
        raise ValueError(f"need at least 2 grid points, got {points}")
    if not -math.inf < start < stop < math.inf:
        raise ValueError(f"need finite stop > start, got [{start}, {stop}]")
    import numpy as np
    if log:
        if start <= 0.0:
            raise ValueError(f"log grid needs start > 0, got {start}")
        base = np.geomspace(start, stop, points)
    else:
        base = np.linspace(start, stop, points)
    inside = [a for a in anchors if start <= a <= stop]
    return _sorted_distinct(np.concatenate([base, np.asarray(inside, dtype=float)]))


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """Sorted 1-d values with repeats dropped: the steps numpy's ``unique``
    takes on 1-d input, without the ``numpy.ma`` import it makes first."""
    import numpy as np
    values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def default_anchors(scenario: Scenario) -> tuple[float, ...]:
    """Rate-structure frequencies the sweep grid must not miss.

    The fast-rotation family anchors the unshifted gap and the two
    rotational sidebands. The redshifted gap is deliberately absent
    there: it sits within the cavity linewidth of the gap itself, where
    the density-of-states derivative term responds far more strongly
    than the sideband resonance and would mask it.
    """
    kin = derive_kinematics(scenario.trajectory, scenario.atom)
    if scenario.family == "case1":
        return (scenario.atom.omega0, kin.omega_minus, kin.omega_plus)
    if scenario.family == "case2":
        return (scenario.atom.omega0, kin.omega0_bar, kin.obar_minus, kin.obar_plus)
    return (
        scenario.atom.omega0,
        kin.omega0_bar,
        kin.omega_minus,
        kin.omega_plus,
        kin.obar_minus,
        kin.obar_plus,
    )


@dataclass(frozen=True)
class SweepTable:
    """Result table stored as row tuples, with deterministic serialization.

    ``metadata`` (scenario snapshot, tool version, axis name) rides along
    into JSON output; the CSV schema is fixed by the column tuple alone.
    The writers and ``column`` read the cells through one cached
    transpose of ``rows``.
    """

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    metadata: dict = field(default_factory=dict)

    @cached_property
    def _cells_by_column(self) -> tuple[tuple, ...]:
        """One tuple of cells per column."""
        return tuple(zip(*self.rows)) if self.rows else ((),) * len(self.columns)

    def column(self, name: str) -> np.ndarray:
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
    if cavity is None:
        cavity = scenario.cavity
    if scenario.family == "case1":
        return case1_rates(scenario.trajectory, scenario.atom, cavity)
    if scenario.family == "case2":
        return case2_rates(scenario.trajectory, scenario.atom, cavity)
    return general_rates(scenario.trajectory, scenario.atom, cavity)


def sweep_cavity(scenario: Scenario, grid: np.ndarray | None = None) -> SweepTable:
    """Transition rates as a function of the cavity resonance frequency,
    from one rate evaluation with the whole grid as an array ``omega_c``."""
    if grid is None:
        grid = build_grid(
            scenario.sweep_lo,
            scenario.sweep_hi,
            scenario.sweep_points,
            log=True,
            anchors=default_anchors(scenario),
        )
    import numpy as np
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("sweep grid is empty")
    rates = scenario_rates(scenario, replace(scenario.cavity, omega_c=grid))
    columns = np.broadcast_arrays(
        grid, rates.gamma_down, rates.gamma_down_inertial, rates.gamma_down_ni, rates.gamma_up
    )
    rows = tuple(zip(*(c.tolist() for c in columns), repeat(rates.validity)))
    return SweepTable(
        columns=RATE_SWEEP_COLUMNS,
        rows=rows,
        metadata=_table_metadata(scenario, "omega_c_rad_per_s", len(rows)),
    )


def default_n_grid(n_max: int, points: int = 25) -> np.ndarray:
    """Log-spaced integer cycle counts from 1 to n_max, deduplicated.

    n_max may not exceed 2**53: past it float(n_max) need not equal
    n_max, and past 2**63 the int64 cast wraps.
    """
    if points < 1:
        raise ValueError(f"need at least 1 grid point, got {points}")
    if not 1 <= n_max <= 2**53:
        raise ValueError(f"n_max must lie in [1, 2**53], got {n_max}")
    import numpy as np
    raw = np.geomspace(1.0, float(n_max), points)
    return _sorted_distinct(np.round(raw).astype(np.int64))


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
    horizon = _horizon(scenario, n)
    params = EvolutionParams.from_rates(
        scenario_rates(scenario), scenario.atom.theta0, scenario.atom.omega0
    )
    return params, horizon


# engine name -> fn(scenario, n) -> GPResult
ENGINES = {
    "tong": lambda s, n: gp_tong_closed_form(*_evolution(s, n)),
    "exact-integral": lambda s, n: gp_exact_integral(*_evolution(s, n), n_cycles=float(n)),
    "quasi-cycle": lambda s, n: gp_split(scenario_rates(s), n, s.atom.theta0, s.atom.omega0),
    "case1": lambda s, n: gp_case1(s.trajectory, s.atom, s.cavity, n),
    "case2": lambda s, n: gp_case2(s.trajectory, s.atom, s.cavity, n),
}


def scenario_gp(scenario: Scenario, n: int, engine: str | None = None) -> GPResult:
    """Geometric phase of the scenario after n cycles from a named engine
    in ``ENGINES``.

    By default the engine is the scenario's own family (``case1`` or
    ``case2``), and ``quasi-cycle`` on the scenario's rates for the
    ``general`` family: each is ``gp_split`` of ``scenario_rates`` under
    that label. Every engine other than the two case engines evaluates
    the scenario's family rates.
    """
    if engine is None:
        engine = "quasi-cycle" if scenario.family == "general" else scenario.family
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; available: {', '.join(ENGINES)}")
    return ENGINES[engine](scenario, n)


def gp_vs_n(scenario: Scenario, n_values=None) -> SweepTable:
    """Geometric-phase contributions as the cycle count grows: ``gp_split``
    of one rate evaluation at each whole, positive cycle count, the parts
    of the scenario's own engine (as ``scenario_gp``)."""
    if n_values is None:
        n_values = default_n_grid(scenario.n_max)
    import numpy as np
    rates = scenario_rates(scenario)
    rows = []
    for n in np.asarray(n_values):
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
    """The table as ``json.dumps`` writes ``{"columns", "metadata", "rows"}``
    with ``indent=2, sort_keys=True``, every non-string cell as a float.

    Only the columns and metadata go through ``json.dumps`` whole; the
    rows are one ``%`` over a row template of per-column cell texts.
    """
    head = json.dumps(
        {"columns": list(table.columns), "metadata": table.metadata}, indent=2, sort_keys=True
    )
    rows = "[]"
    if table.rows:
        columns = [_json_cells(cells) for cells in table._cells_by_column]
        row = "    [\n      " + ",\n      ".join(["%s"] * len(columns)) + "\n    ]"
        template = ",\n".join([row if columns else "    []"] * len(table.rows))
        rows = "[\n" + template % tuple(chain.from_iterable(zip(*columns))) + "\n  ]"
    return head[: -len("\n}")] + f',\n  "rows": {rows}\n}}\n'


def write_csv(table: SweepTable, path) -> None:
    Path(path).write_text(table_to_csv_text(table), encoding="utf-8", newline="")


def write_json(table: SweepTable, path) -> None:
    Path(path).write_text(table_to_json_text(table), encoding="utf-8", newline="\n")


def rates_sweep_chart(table: SweepTable, scenario: Scenario, path) -> Path:
    """Render a rate-sweep table as a standalone log-log SVG panel."""
    from .svgplot import line_chart

    omega_c = table.column("omega_c_rad_per_s")
    line_chart(
        path,
        [
            ("total downward", omega_c, table.column("gamma_down_total_per_s")),
            ("inertial part", omega_c, table.column("gamma_down_inertial_per_s")),
            ("non-inertial part", omega_c, table.column("gamma_down_noninertial_per_s")),
            ("upward", omega_c, table.column("gamma_up_per_s")),
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

    n_col = table.column("n")
    line_chart(
        path,
        [
            ("|non-inertial|", n_col, abs(table.column("phi_ni_rad"))),
            ("|inertial|", n_col, abs(table.column("phi_in_rad"))),
        ],
        title=f"{scenario.name}: dissipative phase corrections vs cycles",
        xlabel="precession cycles n",
        ylabel="|phase correction| (rad)",
    )
    return Path(path)


def figure1(outdir, points: int | None = None) -> tuple[Path, ...]:
    """Regenerate the four-panel summary at desk scale.

    Writes, per preset, the cavity-frequency rate sweep and the
    phase-versus-cycle-count table, each as CSV plus a standalone SVG
    panel. Returns the eight paths in a fixed order.
    """
    if points is not None:
        points = _count(points, "points")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for name in preset_names():
        scn = preset(name)
        if points is not None:
            scn = replace(scn, sweep_points=points)

        rates_table = sweep_cavity(scn)
        rates_csv = outdir / f"{name}_rates_sweep.csv"
        write_csv(rates_table, rates_csv)
        written.append(rates_csv)
        written.append(rates_sweep_chart(rates_table, scn, outdir / f"{name}_rates_sweep.svg"))

        gp_table = gp_vs_n(scn)
        gp_csv = outdir / f"{name}_gp_vs_n.csv"
        write_csv(gp_table, gp_csv)
        written.append(gp_csv)
        written.append(gp_vs_n_chart(gp_table, scn, outdir / f"{name}_gp_vs_n.svg"))
    return tuple(written)
