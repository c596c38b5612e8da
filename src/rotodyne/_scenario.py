"""The scenario core: named parameter sets, their file format, and the rate
and phase of one scenario.

A Scenario bundles the atom, its circular trajectory, and the cavity,
together with regime metadata (which expanded rate family applies, how
many precession cycles to accumulate by default). Two presets cover the
regimes of interest: ``case1``, rotation far faster than the precession
with the cavity on the upper motional sideband, and ``case2``, rotation
far slower with the cavity on the upper recoil-shifted line. User configs
may also select the ``general`` family, which evaluates the
resonance-condition engine with no regime expansion; its inertial
reference is the static rate eta * dos(omega0) * omega0.

Scenario JSON uses unit-bearing keys (e.g. ``omega0_rad_per_s``) and is
strict: unknown or missing keys, values of the wrong type and counts that
are not whole numbers raise ValueError. The table ``_SCHEMA`` states the
format once: each block's record type and its (JSON key, field, reader)
triples, which ``scenario_from_dict`` reads and ``scenario_to_dict``
writes. ``scenarios``, which only the table commands load, re-exports
every public name of this module.
"""

from __future__ import annotations

import math
from pathlib import Path

from ._record import Record
from .cavity import CavitySpec
from .kinematics import AtomParams, KinematicDerived, TrajectoryParams, _is_real, derive_kinematics
from .rates import RateSet, _case1, _case2, _general, case1_rates, case2_rates, general_rates

# moderate optical-range electric dipole moment, C m
DEFAULT_DIPOLE = 8.478e-30


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


class _Family(Record):
    rates: Callable  # fn(trajectory, atom, cavity) -> RateSet, looked up when called
    formula: Callable  # its formula in ``rates``, which a sweep runs after one set-up
    engine: str  # the default engine of scenario_gp
    anchors: tuple[str, ...]  # KinematicDerived fields a sweep grid keeps, besides omega0


# The fast-rotation family leaves out the redshifted gap: it sits within
# the cavity linewidth of the gap itself, where the density-of-states
# derivative term responds far more strongly than the sideband resonance
# and would mask it. Each lambda looks its rate function up here when called,
# so that the wrappers bench/tracing.py sets on these names see the call.
_FAMILIES = {
    "case1": _Family(lambda *a: case1_rates(*a), _case1, "case1", ("omega_minus", "omega_plus")),
    "case2": _Family(
        lambda *a: case2_rates(*a), _case2, "case2", ("omega0_bar", "obar_minus", "obar_plus")
    ),
    "general": _Family(
        lambda *a: general_rates(*a),
        _general,
        "quasi-cycle",
        ("omega0_bar", "omega_minus", "omega_plus", "obar_minus"),
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
    return atom.omega0 / 2.0, 2.0 * kin.omega_plus


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
    if _is_real(value):
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
    """A scenario name, which output file names and the one-path-per-line
    listing of ``--out`` embed: a non-empty string with no path separator,
    no '..' and no control character (below U+0020, and U+007F) or other
    line break of ``str.splitlines`` (U+0085, U+2028, U+2029); ValueError
    for anything else."""
    if not isinstance(value, str) or not value or any(t in value for t in ("/", "\\", "..")):
        raise ValueError(
            f"name must be a non-empty string with no path separator or '..', got {value!r}"
        )
    if any(c < " " or c in "\x7f\x85\u2028\u2029" for c in value):
        raise ValueError(f"name must hold no control character, got {value!r}")
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


def _csv_cell(value, alone: bool = False) -> str:
    """One CSV cell: a float as %.16e, an integer as %d, and text as
    ``csv.writer`` quotes it by default: in double quotes, each one inside
    doubled, where it holds a comma, a double quote or a line break, or
    where it is empty and the only field of its row (``alone``)."""
    if isinstance(value, str):
        if (alone and not value) or any(c in value for c in ',"\r\n'):
            return '"' + value.replace('"', '""') + '"'
        return value
    if type(value) is int:
        return str(value)
    if type(value) is not float:
        import numbers

        if isinstance(value, numbers.Integral):
            return str(int(value))
    return f"{float(value):.16e}"


def scenario_rates(scenario: Scenario, cavity: CavitySpec | None = None) -> RateSet:
    """Co-moving rates for the scenario's formula family, optionally at a
    substituted cavity (used by frequency sweeps)."""
    rates = _FAMILIES[scenario.family].rates
    return rates(scenario.trajectory, scenario.atom, scenario.cavity if cavity is None else cavity)


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
