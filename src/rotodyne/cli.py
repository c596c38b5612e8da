"""Command line front end. Each command, with its handler, help and
options, is one entry of the ``_COMMANDS`` table that ``build_parser``
builds the parser from.

Exit codes: 0 success, 1 bad input (usage errors, invalid parameters,
malformed scenario files, an output directory that cannot be made or
written), 2 numerical failure while producing results.

Output conventions: table commands print CSV or JSON (by ``--format``)
to stdout unless ``--out <dir>`` is given, in which case the table lands
in that directory under the name ``scenarios`` gives it, as for
``figure1`` (``<scenario>_rates_sweep.csv``, ``<scenario>_gp_vs_n.csv``).
``--plot`` adds an SVG panel next to each written table; without
``--out`` it is refused before any grid or table is built. A relative
``--out`` is resolved against the ROTODYNE_OUT environment variable when
set.

Parsing: ``main`` reads a plain command line straight from the table. A
plain command line is the command first, then distinct options of that
command, each spelled as the table spells it and each value a separate
argument that does not start with ``-``, inside ``choices`` where the
option has them and accepted by its ``type``; ``--plot`` takes no value,
and ``--scenario`` and ``--config`` do not come together. Anything else
(``-h``, an abbreviation, ``--opt=value``, ``-n5``, a repeated option, a
value starting with ``-``, a usage error) goes to the argparse parser,
imported only then, so its help, messages and exit codes are argparse's.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from types import SimpleNamespace

from ._scenario import (
    ENGINES, Scenario, _csv_cell, _json_text, load_scenario, preset, preset_names, scenario_gp,
    scenario_rates, scenario_to_dict,
)
from .errors import NumericsError

__all__ = ["main"]


def _resolve_out(raw: str) -> Path:
    path = Path(raw)
    root = os.environ.get("ROTODYNE_OUT")
    if root and not path.is_absolute():
        return Path(root) / path
    return path


def _resolve_scenario(args) -> Scenario:
    if args.config is not None:
        return load_scenario(args.config)
    raw = "case1" if args.scenario is None else args.scenario
    if raw in preset_names():
        return preset(raw)
    if raw and Path(raw).exists():  # Path("") is the working directory
        return load_scenario(raw)
    raise ValueError(
        f"unknown scenario {raw!r}: not a preset ({', '.join(preset_names())}) "
        "and no such file"
    )


def _check_plot(args) -> None:
    """Refuse ``--plot`` without ``--out`` before any grid or table is built."""
    if args.plot and args.out is None:
        raise ValueError("--plot requires --out (no directory to write the SVG into)")


def _emit_table(scenarios, table, scn: Scenario, args) -> None:
    if args.out is None:
        if args.format == "json":
            sys.stdout.write(scenarios.table_to_json_text(table))
        else:
            sys.stdout.write(scenarios.table_to_csv_text(table))
        return
    for path in scenarios._write_table(table, scn, _resolve_out(args.out), args.format, args.plot):
        print(path)


def _print_mapping(payload: dict, fmt: str) -> None:
    """Print a mapping as JSON, or as one ``key,value`` line per item, each
    value a CSV table's cell (``_csv_cell``: text quoted where it must be)."""
    if fmt == "json":
        sys.stdout.write(_json_text(payload))
    else:
        sys.stdout.write("".join(f"{k},{_csv_cell(v)}\n" for k, v in payload.items()))


def _parse_grid_spec(spec: str) -> tuple[float, float, int, bool]:
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(f"grid spec must be start:stop:points[:log|lin], got {spec!r}")
    start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
    scale = parts[3] if len(parts) == 4 else "log"
    if scale not in ("log", "lin"):
        raise ValueError(f"grid scale must be 'log' or 'lin', got {scale!r}")
    return start, stop, points, scale == "log"


def _cmd_presets(args) -> None:
    if args.format == "json":
        _print_mapping({name: scenario_to_dict(preset(name)) for name in preset_names()}, "json")
        return
    for name in preset_names():
        scn = preset(name)
        print(
            f"{name}: omega0={scn.atom.omega0:.3e} rad/s, "
            f"omega={scn.trajectory.omega:.3e} rad/s, "
            f"radius={scn.trajectory.radius:.3e} m, "
            f"cavity at {scn.cavity.omega_c:.6e} rad/s "
            f"(Q={scn.cavity.q_factor:.1e}, V={scn.cavity.volume:.1e} m^3), "
            f"n_default={scn.n_default}"
        )


def _cmd_rates(args) -> None:
    scn = _resolve_scenario(args)
    fam = scenario_rates(scn)
    payload = {
        "scenario": scn.name,
        "family": scn.family,
        "gamma_down_per_s": fam.gamma_down,
        "gamma_down_inertial_per_s": fam.gamma_down_inertial,
        "gamma_down_noninertial_per_s": fam.gamma_down_ni,
        "gamma_up_per_s": fam.gamma_up,
        "a_coeff_per_s": fam.a_coeff,
        "b_coeff_per_s": fam.b_coeff,
        "asymmetry_ratio": fam.ratio,
        "validity": fam.validity,
    }
    _print_mapping(payload, args.format)


def _cmd_gp(args) -> None:
    scn = _resolve_scenario(args)
    n = args.cycles if args.cycles is not None else scn.n_default
    if n < 1:
        raise ValueError(f"cycle count must be at least 1, got {n}")
    res = scenario_gp(scn, n, args.engine)
    payload = {
        "scenario": scn.name,
        "engine": res.engine,
        "n_cycles": res.n_cycles,
        "total_rad": res.total,
        "principal_value_rad": res.principal_value,
        "unitary_rad": res.unitary_part,
        "nonunitary_rad": res.nonunitary_part,
    }
    if res.inertial_part is not None:
        payload["inertial_rad"] = res.inertial_part
        payload["noninertial_rad"] = res.noninertial_part
    payload.update(sorted(res.diagnostics.items()))
    payload["validity"] = res.validity
    _print_mapping(payload, args.format)


def _cmd_sweep_cavity(args) -> None:
    scn = _resolve_scenario(args)
    spec = None if args.grid is None else _parse_grid_spec(args.grid)
    _check_plot(args)
    from . import scenarios

    grid = None
    if spec is not None:  # start, stop, points, log
        grid = scenarios.build_grid(*spec, anchors=scenarios.default_anchors(scn))
    _emit_table(scenarios, scenarios.sweep_cavity(scn, grid), scn, args)


def _cmd_gp_vs_n(args) -> None:
    scn = _resolve_scenario(args)
    n_max = args.n_max if args.n_max is not None else scn.n_max
    _check_plot(args)
    from . import scenarios

    table = scenarios.gp_vs_n(scn, scenarios.default_n_grid(n_max, args.points))
    _emit_table(scenarios, table, scn, args)


def _cmd_figure1(args) -> None:
    from . import scenarios

    outdir = _resolve_out(args.out if args.out is not None else "figure1")
    for path in scenarios.figure1(outdir, points=args.points):
        print(path)


_FORMAT = (("--format",), dict(choices=("csv", "json"), default="csv"))
_TABLE_OPTIONS = (
    (("--out",), dict(help="output directory for the table file (default: CSV to stdout)")),
    (_FORMAT[0], dict(_FORMAT[1], help="table serialization (default: csv)")),
    (("--plot",), dict(action="store_true",
                       help="also write an SVG panel next to the table (requires --out)")),
)

# the scenario options, one or the other
_SCENARIO = (
    (("--scenario",), dict(help="built-in preset name or scenario JSON path (default: case1)")),
    (("--config",), dict(help="scenario JSON file")),
)

# command -> (handler, help, whether it takes the _SCENARIO options, its
# other options as (flags, add_argument keywords) in --help order). Only
# the _cmd_* handlers sit here, and they look library functions up when
# they run, so a wrapper set on a module attribute still sees each call.
_COMMANDS = {
    "presets": (_cmd_presets, "list built-in scenarios", False, (_FORMAT,)),
    "rates": (_cmd_rates, "transition rates for one scenario", True, (_FORMAT,)),
    "gp": (_cmd_gp, "geometric phase after n precession cycles", True, (
        (("--engine",), dict(choices=tuple(ENGINES), help="default: scenario family")),
        (("-n", "--cycles"), dict(type=int, help="default: scenario n_default")),
        _FORMAT,
    )),
    "sweep-cavity": (_cmd_sweep_cavity, "rates as a function of the cavity frequency", True, (
        (("--grid",), dict(help="start:stop:points[:log|lin] cavity-frequency grid "
                                "(resonance anchors are always inserted)")),
        *_TABLE_OPTIONS,
    )),
    "gp-vs-n": (_cmd_gp_vs_n, "phase contributions vs cycle count", True, (
        (("--n-max",), dict(type=int, help="default: scenario n_max")),
        (("--points",), dict(type=int, default=25)),
        *_TABLE_OPTIONS,
    )),
    "figure1": (_cmd_figure1, "write the four-panel summary (CSV + SVG per panel)", False, (
        (("--out",), dict(help="default: $ROTODYNE_OUT/figure1 or ./figure1")),
        (("--points",), dict(type=int, help="sweep points per rate panel")),
    )),
}


def build_parser():
    """The argparse parser of every command."""
    return _parser(_COMMANDS)


def _parser(names):
    """The argparse parser of the commands ``names``; its usage names every
    command."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """argparse with usage errors mapped to exit code 1."""

        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    parser = _Parser(
        prog="rotodyne",
        description=(
            "Cavity-modified decay rates and open-system geometric phase "
            "of a circularly rotating two-level emitter."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    if len(names) < len(_COMMANDS):  # not on the full parser: it renames `command` in errors
        sub.metavar = "{" + ",".join(_COMMANDS) + "}"
    for name in names:
        handler, help_text, takes_scenario, options = _COMMANDS[name]
        command = sub.add_parser(name, help=help_text)
        if takes_scenario:
            group = command.add_mutually_exclusive_group()
            for flags, keywords in _SCENARIO:
                group.add_argument(*flags, **keywords)
        for flags, keywords in options:
            command.add_argument(*flags, **keywords)
        command.set_defaults(func=handler)
    return parser


def _read_plain(argv):
    """The namespace argparse builds from a plain command line (see the
    module docstring), read from ``_COMMANDS`` alone; None for any other
    command line."""
    command = argv[0] if argv else None
    if command not in _COMMANDS:
        return None
    handler, _, takes_scenario, options = _COMMANDS[command]
    values, by_flag = {"command": command, "func": handler}, {}
    for flags, keywords in (*_SCENARIO, *options) if takes_scenario else options:
        dest = next(f for f in flags if f.startswith("--"))[2:].replace("-", "_")
        values[dest] = keywords.get("default", False if "action" in keywords else None)
        by_flag.update(dict.fromkeys(flags, (dest, keywords)))
    given = set()
    rest = iter(argv[1:])
    for flag in rest:
        dest, keywords = by_flag.get(flag, (None, None))
        if dest is None or dest in given:
            return None
        given.add(dest)
        if "action" in keywords:  # --plot, which takes no value
            values[dest] = True
            continue
        value = next(rest, "-")
        if value.startswith("-") or value not in keywords.get("choices", (value,)):
            return None
        try:  # argparse's own test of a typed value
            values[dest] = keywords.get("type", str)(value)
        except ValueError:
            return None
    if {"scenario", "config"} <= given:
        return None
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_plain(argv)
    if args is None:
        # a command named first needs its own subparser alone
        names = argv[:1] if argv[:1] and argv[0] in _COMMANDS else _COMMANDS
        args = _parser(names).parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        print(f"rotodyne: error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"rotodyne: numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0
