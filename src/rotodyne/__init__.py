"""Cavity-modified decay and open-system geometric phase of a rotating
two-level emitter.

The package separates into layers that mirror the physics pipeline:

``kinematics``  circular-orbit relativistic factors
``cavity``      Lorentzian mode density of states
``rates``       emission/absorption rates (general + regime-expanded)
``dynamics``    reduced-state propagation (closed form + ODE oracle)
``geophase``    mixed-state geometric-phase engines
``scenarios``   presets, sweeps, deterministic CSV/JSON output
``svgplot``     standalone SVG line panels
``cli``         the ``rotodyne`` command

All frequencies are angular (rad/s) throughout.
"""

from ._version import __version__
from .cavity import CavitySpec, dos, dos_derivative
from .constants import HBAR, SPEED_OF_LIGHT, VACUUM_PERMITTIVITY
from .dynamics import (
    EvolutionParams,
    OdeTrajectory,
    check_density_matrix,
    closed_form_bloch,
    closed_form_rho,
    evolve_ode,
    initial_state,
    lindblad_rhs,
    trace_distance,
)
from .errors import NumericsError
from .geophase import (
    GPResult,
    gp_case1,
    gp_case2,
    gp_exact_integral,
    gp_quasi_cycle,
    gp_split,
    gp_tong_closed_form,
)
from .kinematics import (
    AtomParams,
    KinematicDerived,
    TrajectoryParams,
    derive_kinematics,
    zeta_of,
)
from .rates import (
    RateSet,
    case1_rates,
    case2_rates,
    general_rates,
    kossakowski,
    lab_rates_general,
    vacuum_coupling,
)
from .scenarios import (
    DEFAULT_DIPOLE,
    ENGINES,
    Scenario,
    SweepTable,
    build_grid,
    default_anchors,
    default_n_grid,
    figure1,
    gp_vs_n,
    gp_vs_n_chart,
    load_scenario,
    preset,
    preset_names,
    rates_sweep_chart,
    save_scenario,
    scenario_from_dict,
    scenario_gp,
    scenario_rates,
    scenario_to_dict,
    sweep_cavity,
    table_to_csv_text,
    table_to_json_text,
    write_csv,
    write_json,
)

__all__ = [
    "AtomParams",
    "CavitySpec",
    "DEFAULT_DIPOLE",
    "ENGINES",
    "EvolutionParams",
    "GPResult",
    "HBAR",
    "KinematicDerived",
    "NumericsError",
    "OdeTrajectory",
    "RateSet",
    "Scenario",
    "SPEED_OF_LIGHT",
    "SweepTable",
    "TrajectoryParams",
    "VACUUM_PERMITTIVITY",
    "build_grid",
    "case1_rates",
    "case2_rates",
    "check_density_matrix",
    "closed_form_bloch",
    "closed_form_rho",
    "default_anchors",
    "default_n_grid",
    "derive_kinematics",
    "dos",
    "dos_derivative",
    "evolve_ode",
    "figure1",
    "general_rates",
    "gp_case1",
    "gp_case2",
    "gp_exact_integral",
    "gp_quasi_cycle",
    "gp_split",
    "gp_tong_closed_form",
    "gp_vs_n",
    "gp_vs_n_chart",
    "initial_state",
    "kossakowski",
    "lab_rates_general",
    "lindblad_rhs",
    "load_scenario",
    "preset",
    "preset_names",
    "rates_sweep_chart",
    "save_scenario",
    "scenario_from_dict",
    "scenario_gp",
    "scenario_rates",
    "scenario_to_dict",
    "sweep_cavity",
    "table_to_csv_text",
    "table_to_json_text",
    "trace_distance",
    "vacuum_coupling",
    "write_csv",
    "write_json",
    "zeta_of",
    "__version__",
]
