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
strict: unknown or missing keys raise ValueError. CSV output is
deterministic byte-for-byte: floats are written with 17 significant
digits and LF line endings.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

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
from .kinematics import AtomParams, TrajectoryParams, derive_kinematics
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


def preset(name: str) -> Scenario:
    """Built-in scenario by name ('case1' or 'case2')."""
    if name == "case1":
        atom = AtomParams(omega0=1.0e7, dipole=DEFAULT_DIPOLE, theta0=math.pi / 2.0)
        traj = TrajectoryParams(radius=1.0e-6, omega=5.0e9)
        kin = derive_kinematics(traj, atom)
        cavity = CavitySpec(omega_c=kin.omega_plus, q_factor=1.0e7, volume=1.0e-7)
        return Scenario(
            name="case1",
            atom=atom,
            trajectory=traj,
            cavity=cavity,
            family="case1",
            n_default=100_000,
            n_max=1_000_000,
            sweep_lo=atom.omega0 / 2.0,
            sweep_hi=2.0 * kin.omega_plus,
        )
    if name == "case2":
        atom = AtomParams(omega0=1.0e7, dipole=DEFAULT_DIPOLE, theta0=math.pi / 2.0)
        traj = TrajectoryParams(radius=1.0e-3, omega=1.0e5)
        kin = derive_kinematics(traj, atom)
        cavity = CavitySpec(omega_c=kin.obar_plus, q_factor=1.0e7, volume=1.0e-3)
        return Scenario(
            name="case2",
            atom=atom,
            trajectory=traj,
            cavity=cavity,
            family="case2",
            n_default=10_000_000,
            n_max=100_000_000,
            sweep_lo=0.9 * kin.obar_minus,
            sweep_hi=1.1 * kin.obar_plus,
        )
    raise ValueError(f"unknown preset {name!r}; available: {', '.join(_PRESETS)}")


def _require_keys(block: dict, allowed: dict, where: str) -> dict:
    """allowed maps key -> required flag; returns the validated block."""
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ValueError(f"unknown keys in {where}: {', '.join(unknown)}")
    missing = sorted(k for k, req in allowed.items() if req and k not in block)
    if missing:
        raise ValueError(f"missing keys in {where}: {', '.join(missing)}")
    return block


def scenario_from_dict(data: dict) -> Scenario:
    data = _require_keys(
        dict(data),
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
        dict(data["atom"]),
        {"omega0_rad_per_s": True, "dipole_C_m": True, "theta0_rad": True},
        "scenario.atom",
    )
    traj_block = _require_keys(
        dict(data["trajectory"]),
        {"radius_m": True, "omega_rad_per_s": True, "center_m": False},
        "scenario.trajectory",
    )
    cavity_block = _require_keys(
        dict(data["cavity"]),
        {"omega_c_rad_per_s": True, "q_factor": True, "volume_m3": True},
        "scenario.cavity",
    )
    atom = AtomParams(
        omega0=float(atom_block["omega0_rad_per_s"]),
        dipole=float(atom_block["dipole_C_m"]),
        theta0=float(atom_block["theta0_rad"]),
    )
    center = tuple(float(v) for v in traj_block.get("center_m", (0.0, 0.0)))
    if len(center) != 2:
        raise ValueError("scenario.trajectory.center_m must hold two coordinates")
    traj = TrajectoryParams(
        radius=float(traj_block["radius_m"]),
        omega=float(traj_block["omega_rad_per_s"]),
        center=center,
    )
    cavity = CavitySpec(
        omega_c=float(cavity_block["omega_c_rad_per_s"]),
        q_factor=float(cavity_block["q_factor"]),
        volume=float(cavity_block["volume_m3"]),
    )
    kin = derive_kinematics(traj, atom)
    sweep_block = _require_keys(
        dict(data.get("sweep", {})),
        {"lo_rad_per_s": False, "hi_rad_per_s": False, "points": False},
        "scenario.sweep",
    )
    family = str(data["family"])
    if family == "case2" and kin.obar_minus > 0.0:
        lo_default, hi_default = 0.9 * kin.obar_minus, 1.1 * kin.obar_plus
    else:
        lo_default = atom.omega0 / 2.0
        hi_default = 2.0 * max(kin.omega_plus, kin.obar_plus)
    return Scenario(
        name=str(data["name"]),
        atom=atom,
        trajectory=traj,
        cavity=cavity,
        family=family,
        n_default=int(data["n_default"]),
        n_max=int(data["n_max"]),
        sweep_lo=float(sweep_block.get("lo_rad_per_s", lo_default)),
        sweep_hi=float(sweep_block.get("hi_rad_per_s", hi_default)),
        sweep_points=int(sweep_block.get("points", 400)),
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
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
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
    if log:
        if start <= 0.0:
            raise ValueError(f"log grid needs start > 0, got {start}")
        base = np.geomspace(start, stop, points)
    else:
        base = np.linspace(start, stop, points)
    inside = [a for a in anchors if start <= a <= stop]
    return np.unique(np.concatenate([base, np.asarray(inside, dtype=float)]))


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
    """Column-oriented result table with deterministic serialization.

    ``metadata`` (scenario snapshot, tool version, axis name) rides along
    into JSON output; the CSV schema is fixed by the column tuple alone.
    """

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    metadata: dict = field(default_factory=dict)

    def column(self, name: str) -> np.ndarray:
        idx = self.columns.index(name)
        values = [row[idx] for row in self.rows]
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
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("sweep grid is empty")
    rates = scenario_rates(scenario, replace(scenario.cavity, omega_c=grid))
    columns = np.broadcast_arrays(
        grid, rates.gamma_down, rates.gamma_down_inertial, rates.gamma_down_ni, rates.gamma_up
    )
    rows = tuple((*values, rates.validity) for values in np.stack(columns, axis=1).tolist())
    return SweepTable(
        columns=RATE_SWEEP_COLUMNS,
        rows=rows,
        metadata=_table_metadata(scenario, "omega_c_rad_per_s", len(rows)),
    )


def default_n_grid(n_max: int, points: int = 25) -> np.ndarray:
    """Log-spaced integer cycle counts from 1 to n_max, deduplicated."""
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    raw = np.geomspace(1.0, float(n_max), points)
    return np.unique(np.round(raw).astype(np.int64))


def _evolution(scenario: Scenario, n: float) -> tuple[EvolutionParams, float]:
    """Generator of the scenario's rates and the horizon of n cycles."""
    params = EvolutionParams.from_rates(
        scenario_rates(scenario), scenario.atom.theta0, scenario.atom.omega0
    )
    return params, math.tau * n / scenario.atom.omega0


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
    ``general`` family. Every engine other than the two case engines
    evaluates the scenario's family rates.
    """
    if engine is None:
        engine = "quasi-cycle" if scenario.family == "general" else scenario.family
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; available: {', '.join(ENGINES)}")
    return ENGINES[engine](scenario, n)


def gp_vs_n(scenario: Scenario, n_values=None) -> SweepTable:
    """Geometric-phase contributions as the cycle count grows."""
    if n_values is None:
        n_values = default_n_grid(scenario.n_max)
    rows = []
    for n in np.asarray(n_values):
        n = int(n)
        if n < 1:
            raise ValueError(f"cycle counts must be positive, got {n}")
        res = scenario_gp(scenario, n)
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


def _cell_text(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.16e}"


def table_to_csv_text(table: SweepTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([_cell_text(v) for v in row])
    return buf.getvalue()


def table_to_json_text(table: SweepTable) -> str:
    payload = {
        "columns": list(table.columns),
        "rows": [[v if isinstance(v, str) else float(v) for v in row] for row in table.rows],
        "metadata": table.metadata,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


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
        xlog=True,
        ylog=True,
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
            ("|non-inertial|", n_col, np.abs(table.column("phi_ni_rad"))),
            ("|inertial|", n_col, np.abs(table.column("phi_in_rad"))),
        ],
        title=f"{scenario.name}: dissipative phase corrections vs cycles",
        xlabel="precession cycles n",
        ylabel="|phase correction| (rad)",
        xlog=True,
        ylog=True,
    )
    return Path(path)


def figure1(outdir, points: int | None = None) -> tuple[Path, ...]:
    """Regenerate the four-panel summary at desk scale.

    Writes, per preset, the cavity-frequency rate sweep and the
    phase-versus-cycle-count table, each as CSV plus a standalone SVG
    panel. Returns the eight paths in a fixed order.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for name in preset_names():
        scn = preset(name)
        if points is not None:
            scn = replace(scn, sweep_points=int(points))

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
