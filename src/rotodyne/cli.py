"""Command line front end.

Exit codes: 0 success, 1 bad input (usage errors, invalid parameters,
malformed scenario files, an output directory that cannot be made or
written), 2 numerical failure while producing results.

Output conventions: table commands print CSV to stdout unless ``--out
<dir>`` is given, in which case the table lands in that directory under
the name ``scenarios`` gives it, as for ``figure1``
(``<scenario>_rates_sweep.csv``, ``<scenario>_gp_vs_n.csv``). ``--plot``
adds an SVG panel next to each written table. A relative ``--out`` is
resolved against the ROTODYNE_OUT environment variable when set.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import scenarios
from .errors import NumericsError
from .scenarios import (
    ENGINES,
    Scenario,
    build_grid,
    default_anchors,
    default_n_grid,
    figure1,
    gp_vs_n,
    load_scenario,
    preset,
    preset_names,
    scenario_gp,
    scenario_rates,
    scenario_to_dict,
    sweep_cavity,
    table_to_csv_text,
    table_to_json_text,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _resolve_out(raw: str) -> Path:
    path = Path(raw)
    root = os.environ.get("ROTODYNE_OUT")
    if root and not path.is_absolute():
        return Path(root) / path
    return path


def _add_scenario_args(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument(
        "--scenario",
        help="built-in preset name or scenario JSON path (default: case1)",
    )
    group.add_argument("--config", help="scenario JSON file")


def _add_table_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--out",
        help="output directory for the table file (default: CSV to stdout)",
    )
    sub.add_argument(
        "--format",
        choices=("csv", "json"),
        default="csv",
        help="table serialization (default: csv)",
    )
    sub.add_argument(
        "--plot",
        action="store_true",
        help="also write an SVG panel next to the table (requires --out)",
    )


def _resolve_scenario(args) -> Scenario:
    if args.config is not None:
        return load_scenario(args.config)
    raw = args.scenario or "case1"
    if raw in preset_names():
        return preset(raw)
    if Path(raw).exists():
        return load_scenario(raw)
    raise ValueError(
        f"unknown scenario {raw!r}: not a preset ({', '.join(preset_names())}) "
        "and no such file"
    )


def _emit_table(table, scn: Scenario, args) -> None:
    if args.out is None:
        if args.plot:
            raise ValueError("--plot requires --out (no directory to write the SVG into)")
        text = table_to_json_text if args.format == "json" else table_to_csv_text
        sys.stdout.write(text(table))
        return
    for path in scenarios._write_table(table, scn, _resolve_out(args.out), args.format, args.plot):
        print(path)


def _mapping_text(payload: dict, fmt: str) -> str:
    if fmt == "json":
        import json

        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = []
    for key, value in payload.items():
        if isinstance(value, float):
            lines.append(f"{key},{value:.16e}")
        else:
            lines.append(f"{key},{value}")
    return "\n".join(lines) + "\n"


def _parse_grid_spec(spec: str) -> tuple[float, float, int, bool]:
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(f"grid spec must be start:stop:points[:log|lin], got {spec!r}")
    start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
    scale = parts[3] if len(parts) == 4 else "log"
    if scale not in ("log", "lin"):
        raise ValueError(f"grid scale must be 'log' or 'lin', got {scale!r}")
    return start, stop, points, scale == "log"


def _cmd_presets(args) -> int:
    if args.format == "json":
        import json

        payload = {name: scenario_to_dict(preset(name)) for name in preset_names()}
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return 0
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
    return 0


def _cmd_rates(args) -> int:
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
    sys.stdout.write(_mapping_text(payload, args.format))
    return 0


def _cmd_gp(args) -> int:
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
    for key, value in sorted(res.diagnostics.items()):
        payload[key] = value
    payload["validity"] = res.validity
    sys.stdout.write(_mapping_text(payload, args.format))
    return 0


def _cmd_sweep_cavity(args) -> int:
    scn = _resolve_scenario(args)
    grid = None
    if args.grid is not None:
        start, stop, points, log = _parse_grid_spec(args.grid)
        grid = build_grid(start, stop, points, log=log, anchors=default_anchors(scn))
    _emit_table(sweep_cavity(scn, grid), scn, args)
    return 0


def _cmd_gp_vs_n(args) -> int:
    scn = _resolve_scenario(args)
    n_max = args.n_max if args.n_max is not None else scn.n_max
    _emit_table(gp_vs_n(scn, default_n_grid(n_max, args.points)), scn, args)
    return 0


def _cmd_figure1(args) -> int:
    outdir = _resolve_out(args.out if args.out is not None else "figure1")
    for path in figure1(outdir, points=args.points):
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rotodyne",
        description=(
            "Cavity-modified decay rates and open-system geometric phase "
            "of a circularly rotating two-level emitter."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_presets = sub.add_parser("presets", help="list built-in scenarios")
    p_presets.add_argument("--format", choices=("csv", "json"), default="csv")
    p_presets.set_defaults(func=_cmd_presets)

    p_rates = sub.add_parser("rates", help="transition rates for one scenario")
    _add_scenario_args(p_rates)
    p_rates.add_argument("--format", choices=("csv", "json"), default="csv")
    p_rates.set_defaults(func=_cmd_rates)

    p_gp = sub.add_parser("gp", help="geometric phase after n precession cycles")
    _add_scenario_args(p_gp)
    p_gp.add_argument("--engine", choices=tuple(ENGINES), help="default: scenario family")
    p_gp.add_argument("-n", "--cycles", type=int, help="default: scenario n_default")
    p_gp.add_argument("--format", choices=("csv", "json"), default="csv")
    p_gp.set_defaults(func=_cmd_gp)

    p_sweep = sub.add_parser(
        "sweep-cavity", help="rates as a function of the cavity frequency"
    )
    _add_scenario_args(p_sweep)
    p_sweep.add_argument(
        "--grid",
        help="start:stop:points[:log|lin] cavity-frequency grid "
        "(resonance anchors are always inserted)",
    )
    _add_table_args(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep_cavity)

    p_gpn = sub.add_parser("gp-vs-n", help="phase contributions vs cycle count")
    _add_scenario_args(p_gpn)
    p_gpn.add_argument("--n-max", type=int, help="default: scenario n_max")
    p_gpn.add_argument("--points", type=int, default=25)
    _add_table_args(p_gpn)
    p_gpn.set_defaults(func=_cmd_gp_vs_n)

    p_fig = sub.add_parser(
        "figure1", help="write the four-panel summary (CSV + SVG per panel)"
    )
    p_fig.add_argument("--out", help="default: $ROTODYNE_OUT/figure1 or ./figure1")
    p_fig.add_argument("--points", type=int, help="sweep points per rate panel")
    p_fig.set_defaults(func=_cmd_figure1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"rotodyne: error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"rotodyne: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
