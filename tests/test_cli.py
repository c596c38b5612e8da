"""Command-line interface tests.

Everything runs in-process through ``rotodyne.cli.main`` so exit codes,
stdout payloads, and file side effects are checked without subprocess
overhead.  Usage errors raised by argparse surface as ``SystemExit(1)``;
domain errors return 1; numerical failures return 2.
"""

import json
import math
import re
from decimal import Decimal
from pathlib import Path

import pytest

import rotodyne.cli as cli
from rotodyne import (
    ENGINES,
    NumericsError,
    derive_kinematics,
    load_scenario,
    preset,
    scenario_gp,
    scenario_rates,
    scenario_to_dict,
)
from rotodyne.cli import main

from oracles import exact_rates

SWEEP_HEADER = (
    "omega_c_rad_per_s,gamma_down_total_per_s,gamma_down_inertial_per_s,"
    "gamma_down_noninertial_per_s,gamma_up_per_s,validity"
)
GP_VS_N_HEADER = (
    "n,phi_unitary_rad,phi_in_rad,phi_ni_rad,"
    "phi_nonunitary_total_rad,pi_n_A_over_Omega0"
)
RATES_KEYS = [
    "scenario",
    "family",
    "gamma_down_per_s",
    "gamma_down_inertial_per_s",
    "gamma_down_noninertial_per_s",
    "gamma_up_per_s",
    "a_coeff_per_s",
    "b_coeff_per_s",
    "asymmetry_ratio",
    "validity",
]
GP_KEYS_QUASI = [
    "scenario",
    "engine",
    "n_cycles",
    "total_rad",
    "principal_value_rad",
    "unitary_rad",
    "nonunitary_rad",
    "inertial_rad",
    "noninertial_rad",
    "pi_n_a_over_omega0",
    "relaxation_bound_8pi_n_a_over_omega0",
    "validity",
]
GP_KEYS_TONG = [
    "scenario",
    "engine",
    "n_cycles",
    "total_rad",
    "principal_value_rad",
    "unitary_rad",
    "nonunitary_rad",
    "abserr",
    "endpoint_amplitude",
    "panels",
    "refinements",
    "samples",
    "series_terms",
    "validity",
]
GP_KEYS_EXACT = [
    "scenario",
    "engine",
    "n_cycles",
    "total_rad",
    "principal_value_rad",
    "unitary_rad",
    "nonunitary_rad",
    "abserr",
    "four_a_t",
    "panels",
    "series_terms",
    "validity",
]
FLOAT_CELL = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,3}$")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(text):
    """key,value lines -> (ordered key list, dict)."""
    keys, values = [], {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(",")
        keys.append(key)
        values[key] = value
    return keys, values


def gp_mapping_text(scn, res):
    """The key,value text ``rotodyne gp`` prints for one GPResult."""
    items = [
        ("scenario", scn.name),
        ("engine", res.engine),
        ("n_cycles", res.n_cycles),
        ("total_rad", res.total),
        ("principal_value_rad", res.principal_value),
        ("unitary_rad", res.unitary_part),
        ("nonunitary_rad", res.nonunitary_part),
    ]
    if res.inertial_part is not None:
        items += [("inertial_rad", res.inertial_part), ("noninertial_rad", res.noninertial_part)]
    items += sorted(res.diagnostics.items())
    items.append(("validity", res.validity))
    return "".join(
        f"{k},{v:.16e}\n" if isinstance(v, float) else f"{k},{v}\n" for k, v in items
    )


# each command's options in --help order as (option strings, default, choices)
FORMAT_OPTION = (("--format",), "csv", ("csv", "json"))
SCENARIO_OPTIONS = [(("--scenario",), None, None), (("--config",), None, None)]
TABLE_OPTIONS = [(("--out",), None, None), FORMAT_OPTION, (("--plot",), False, None)]
CLI_SURFACE = {
    "presets": [FORMAT_OPTION],
    "rates": [*SCENARIO_OPTIONS, FORMAT_OPTION],
    "gp": [
        *SCENARIO_OPTIONS,
        (("--engine",), None, ("tong", "exact-integral", "quasi-cycle", "case1", "case2")),
        (("-n", "--cycles"), None, None),
        FORMAT_OPTION,
    ],
    "sweep-cavity": [*SCENARIO_OPTIONS, (("--grid",), None, None), *TABLE_OPTIONS],
    "gp-vs-n": [
        *SCENARIO_OPTIONS, (("--n-max",), None, None), (("--points",), 25, None), *TABLE_OPTIONS
    ],
    "figure1": [(("--out",), None, None), (("--points",), None, None)],
}


def readme_synopsis() -> dict:
    """command -> the options its README synopsis line names, in order;
    ``[--scenario ...]`` stands for the scenario group."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```")[1]
    named = {}
    for line in block.strip().splitlines():
        words = line.split()
        if words[0] == "rotodyne":
            command, words = words[1], words[2:]
        line = " ".join(words).replace("[--scenario ...]", "[--scenario | --config]")
        named.setdefault(command, []).extend(re.findall(r"(?<![\w-])--?[a-z][-a-z]*", line))
    return named


class TestSurface:
    def test_options_defaults_and_choices(self):
        commands = cli.build_parser()._subparsers._group_actions[0].choices
        assert list(commands) == list(CLI_SURFACE)
        for name, sub in commands.items():
            got = [
                (tuple(a.option_strings), a.default, a.choices and tuple(a.choices))
                for a in sub._actions
                if a.dest != "help"
            ]
            assert got == CLI_SURFACE[name], name

    def test_readme_synopsis_names_every_option(self):
        want = {name: [opts[0] for opts, _, _ in options] for name, options in CLI_SURFACE.items()}
        assert readme_synopsis() == want


# values an option's argument may take, by the kind of option: what the plain
# reader takes and what it leaves to argparse (whose int() refuses more than
# 4300 digits, and which reads "-1" as a value); the edge values are split
# between the two for int and text options, and all left for choices
EDGE_VALUES = ["", "\u0663", "\u00b2", "007", "-1", "1e3"]
PLAIN_VALUES = {
    "int": ["0", "5", "007", "\u0663", " 5", "+5", "1_000", "99999999999999999999"],
    "text": ["x", "case2", "a=b", "", "\u0663", "\u00b2", "007", "1e3"],
}
OTHER_VALUES = {
    "int": ["", "\u00b2", "-1", "1e3", "x", "1" * 5000],
    "text": ["-1", "-x", "--out"],
}


def option_table(command):
    """The (flags, keywords) of ``command``'s options, scenario pair first."""
    _, _, takes_scenario, options = cli._COMMANDS[command]
    return [*(cli._SCENARIO if takes_scenario else ()), *options]


def option_values(keywords):
    """(values the plain reader takes, values it leaves to argparse) for an
    option with these add_argument keywords; None for a flag."""
    if keywords.get("action") == "store_true":
        return None
    if "choices" in keywords:
        return list(keywords["choices"]), ["magic", *EDGE_VALUES]
    kind = "int" if keywords.get("type") is int else "text"
    return PLAIN_VALUES[kind], OTHER_VALUES[kind]


def plain_read_corpus():
    """(argv, whether the plain reader reads it) over every command of the
    table: each option alone with every value, all options at once in both
    orders, and the other spellings argparse alone reads."""
    corpus = [([], False), (["frobnicate"], False), (["-h"], False), (["--help"], False)]
    for command in cli._COMMANDS:
        table = option_table(command)
        corpus += [([command], True), ([command, "-h"], False), ([command, "--help"], False)]
        corpus += [([command, extra], False) for extra in ("extra", "--", "--nope")]
        corpus += [(["--format", "csv", command], False)]
        full = []
        for flags, keywords in table:
            values = option_values(keywords)
            long = flags[-1]
            if values is None:
                corpus += [([command, long], True), ([command, long, long], False)]
                corpus += [([command, long, "x"], False), ([command, long[:-1]], False)]
                corpus += [([command, f"{long}=x"], False)]
                full.append([long])
                continue
            plain, other = values
            for flag in flags:
                corpus += [([command, flag, value], True) for value in plain]
                corpus += [([command, flag, value], False) for value in other]
                corpus += [([command, flag], False), ([command, *[flag, plain[0]] * 2], False)]
            joined = (f"{long}={plain[0]}", flags[0] + plain[0])  # --opt=value, -n5
            corpus += [([command, long[:-1], plain[0]], False)]
            corpus += [([command, other], False) for other in joined]
            if long != "--config":  # the scenario pair is exclusive
                full.append([long, plain[0]])
        corpus += [([command, *sum(full, [])], True), ([command, *sum(full[::-1], [])], True)]
        if table[0][0] == ("--scenario",):
            corpus += [([command, "--scenario", "case1", "--config", "x"], False)]
            corpus += [([command, "--config", "x", "--scenario", "case1"], False)]
    return corpus


class TestPlainReader:
    def test_reads_what_argparse_reads_or_declines(self):
        parser = cli.build_parser()
        corpus = plain_read_corpus()
        assert len(corpus) > 400
        for argv, plain in corpus:
            got = cli._read_plain(argv)
            assert (got is not None) == plain, argv
            if plain:
                assert vars(got) == vars(parser.parse_args(argv)), argv


class TestUsageErrors:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 1

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_engine_choice(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["gp", "--engine", "magic"])
        assert info.value.code == 1

    def test_unknown_format_choice(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["rates", "--format", "xml"])
        assert info.value.code == 1

    def test_scenario_and_config_conflict(self, capsys, tmp_path):
        cfg = tmp_path / "s.json"
        cfg.write_text("{}")
        with pytest.raises(SystemExit) as info:
            main(["rates", "--scenario", "case1", "--config", str(cfg)])
        assert info.value.code == 1


class TestBadInput:
    def test_unknown_scenario_name(self, capsys):
        code, _, err = run(capsys, ["rates", "--scenario", "case99"])
        assert code == 1
        assert "rotodyne: error:" in err
        assert "case99" in err

    @pytest.mark.parametrize("command", ["rates", "gp", "sweep-cavity", "gp-vs-n"])
    def test_empty_scenario_name(self, capsys, command):
        # an empty name is given, not absent: it ran case1
        code, out, err = run(capsys, [command, "--scenario", ""])
        assert (code, out) == (1, "")
        assert err.startswith("rotodyne: error: unknown scenario '': not a preset")

    def test_missing_scenario_file(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        code, _, err = run(capsys, ["rates", "--scenario", str(missing)])
        assert code == 1
        assert "unknown scenario" in err

    def test_invalid_config_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, ["rates", "--config", str(bad)])
        assert code == 1

    def test_config_missing_keys(self, capsys, tmp_path):
        bad = tmp_path / "empty.json"
        bad.write_text("{}")
        code, _, err = run(capsys, ["rates", "--config", str(bad)])
        assert code == 1
        assert "rotodyne: error:" in err

    def test_zero_cycles(self, capsys):
        code, _, err = run(capsys, ["gp", "--scenario", "case1", "-n", "0"])
        assert code == 1
        assert "at least 1" in err

    def test_negative_cycles(self, capsys):
        code, _, _ = run(capsys, ["gp", "--scenario", "case1", "-n", "-5"])
        assert code == 1

    @pytest.mark.parametrize(
        "engine, digits",
        [
            ("tong", 400),
            ("exact-integral", 400),
            ("tong", 309),
            ("exact-integral", 309),
            ("quasi-cycle", 201),
            ("case1", 201),
            ("case2", 201),
        ],
    )
    def test_overflowing_cycle_count_exits_1(self, capsys, engine, digits):
        # the quasi-cycle engines square n, the numeric ones scale it by tau:
        # n = 10^308 converts to float, but tau n does not fit in one
        argv = ["gp", "--scenario", "case1", "--engine", engine, "-n", str(10 ** (digits - 1))]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        reason = (
            "horizon 2 pi n / omega0 is past the float range"
            if digits == 309
            else "int too large to convert to float"
        )
        assert err == f"rotodyne: error: cycle count of {digits} digits is too large: {reason}\n"

    @pytest.mark.parametrize("command", ["rates", "gp"])
    @pytest.mark.parametrize(
        "block, key, value, field",
        [("atom", "dipole_C_m", 1e200, "dipole = 1e+200"), ("cavity", "volume_m3", 1e-300, "volume = 1e-300")],
        ids=["dipole", "volume"],
    )
    def test_coupling_past_the_float_range_exits_1(self, capsys, tmp_path, command, block, key, value, field):
        # the dipole's square overflows, or the volume underflows the coupling's
        # denominator: no traceback, and gp does not blame the cycle count
        data = scenario_to_dict(preset("case1"))
        data[block][key] = value
        cfg = tmp_path / "coupling.json"
        cfg.write_text(json.dumps(data))
        code, out, err = run(capsys, [command, "--config", str(cfg)])
        assert (code, out) == (1, "")
        assert err.startswith("rotodyne: error: coupling eta") and err.count("\n") == 1, err
        assert field in err

    @pytest.mark.parametrize("command", ["rates", "gp"])
    @pytest.mark.parametrize("family", ["case1", "case2", "general"])
    def test_gap_past_the_float_range_exits_1(self, capsys, tmp_path, command, family):
        # the case families square omega0, the general one the zeta of the
        # redshifted gap: no OverflowError traceback, and gp does not blame the count
        data = dict(scenario_to_dict(preset("case1")), family=family)
        data["atom"]["omega0_rad_per_s"] = 1e300
        cfg = tmp_path / "gap.json"
        cfg.write_text(json.dumps(data))
        code, out, err = run(capsys, [command, "--config", str(cfg)])
        assert (code, out) == (1, "")
        assert err.startswith("rotodyne: error: ") and err.count("\n") == 1, err
        if family == "general":
            assert "frequency = 1e+300 rad/s and radius = 1e-06 m" in err, err
        else:
            assert "omega0 = 1e+300" in err, err

    @pytest.mark.parametrize("command", ["rates", "gp"])
    def test_general_zeta_whose_product_overflows_exits_1(self, capsys, tmp_path, command):
        # a static emitter on a radius of 1e305 m: omega0_bar * R overflows to
        # inf, whose square raises nothing; rates printed -inf with validity ok
        data = dict(scenario_to_dict(preset("case1")), family="general")
        data["trajectory"].update(omega_rad_per_s=0.0, radius_m=1e305)
        cfg = tmp_path / "radius.json"
        cfg.write_text(json.dumps(data))
        code, out, err = run(capsys, [command, "--config", str(cfg)])
        assert (code, out) == (1, "")
        assert err.startswith("rotodyne: error: zeta = ") and err.count("\n") == 1, err
        assert "radius = 1e+305 m" in err, err

    @pytest.mark.parametrize("command", ["rates", "gp"])
    @pytest.mark.parametrize("family", ["case1", "case2", "general"])
    def test_rotation_whose_square_overflows_runs(self, capsys, tmp_path, command, family):
        # omega**2 is past the float range, but the acceleration omega**2 R =
        # 1e100 and every printed number are not
        data = dict(scenario_to_dict(preset("case1")), family=family)
        data["trajectory"].update(omega_rad_per_s=1e200, radius_m=1e-300)
        cfg = tmp_path / "orbit.json"
        cfg.write_text(json.dumps(data))
        code, out, err = run(capsys, [command, "--config", str(cfg)])
        assert (code, err) == (0, "")
        values = parse_kv(out)[1]
        numbers = [float(v) for v in values.values() if FLOAT_CELL.match(v)]
        assert numbers and all(map(math.isfinite, numbers)), out

    @pytest.mark.parametrize("spec", ["nonsense", "1e7:2e7", "1e7:2e7:5:quad"])
    def test_bad_grid_spec(self, capsys, spec):
        code, _, err = run(capsys, ["sweep-cavity", "--grid", spec])
        assert code == 1
        assert "rotodyne: error:" in err

    @pytest.mark.parametrize(
        "block, key",
        [("cavity", "omega_c_rad_per_s"), ("cavity", "q_factor"), ("atom", "omega0_rad_per_s")],
    )
    def test_infinite_config_value_exits_1(self, capsys, tmp_path, block, key):
        data = scenario_to_dict(preset("case2"))
        data[block][key] = float("inf")
        cfg = tmp_path / "inf.json"
        cfg.write_text(json.dumps(data))
        assert "Infinity" in cfg.read_text()
        code, out, err = run(capsys, ["rates", "--config", str(cfg)])
        assert (code, out) == (1, "")
        assert "finite" in err

    @pytest.mark.parametrize(
        "keys, value",
        [
            (("n_default",), float("inf")),
            (("n_default",), 1.5),
            (("trajectory", "center_m"), 5),
            (("atom",), 5),
            (("atom", "omega0_rad_per_s"), None),
        ],
        ids=["infinite-count", "fractional-count", "scalar-center", "scalar-block", "null-number"],
    )
    def test_malformed_config_exits_1(self, capsys, tmp_path, keys, value):
        data = scenario_to_dict(preset("case2"))
        *parents, key = keys
        block = data
        for parent in parents:
            block = block[parent]
        block[key] = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data))
        code, out, err = run(capsys, ["rates", "--config", str(cfg)])
        assert (code, out) == (1, "")
        assert err.startswith("rotodyne: error:")

    @pytest.mark.parametrize(
        "name",
        [None, "nodir/x", "../x", "two\nlines", "tab\there", "\x1f", "del\x7f"]
        + ["next\x85line", "line\u2028separator", "paragraph\u2029separator"],
        ids=["null", "separator", "parent", "newline", "tab", "unit-separator", "delete"]
        + ["next-line", "line-separator", "paragraph-separator"],
    )
    def test_unsafe_scenario_name_exits_1(self, capsys, tmp_path, name):
        # the name becomes part of the output file names and of the
        # one-path-per-line listing of --out, which a newline, or a line
        # break that str.splitlines() splits on, would split
        data = scenario_to_dict(preset("case2"))
        data["name"] = name
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data))
        outdir = tmp_path / "out"
        grid = "4.9e9:5.1e9:3:lin"
        code, out, err = run(
            capsys, ["sweep-cavity", "--config", str(cfg), "--grid", grid, "--out", str(outdir)]
        )
        assert (code, out) == (1, "")
        assert err.startswith("rotodyne: error:")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["bad.json"]

    def test_missing_config_file_exits_1(self, capsys, tmp_path):
        code, out, err = run(capsys, ["rates", "--config", str(tmp_path / "nope.json")])
        assert (code, out) == (1, "")
        assert err.startswith("rotodyne: error:")

    def test_infinite_grid_bound_exits_1(self, capsys):
        code, out, err = run(capsys, ["sweep-cavity", "--scenario", "case2", "--grid", "1e7:inf:4"])
        assert (code, out) == (1, "")
        assert "finite" in err

    def test_far_cavity_grid_prints_no_nan(self, capsys):
        # the plain Lorentzian overflowed at 1e300: nan with validity ok
        code, out, err = run(capsys, ["sweep-cavity", "--scenario", "case1", "--grid", "1e7:1e300:3"])
        assert (code, err) == (0, "")
        assert "nan" not in out and "1.0000000000000001e+300," in out

    def test_plot_requires_out(self, capsys):
        code, _, err = run(
            capsys, ["sweep-cavity", "--grid", "4.9e9:5.1e9:3:lin", "--plot"]
        )
        assert code == 1
        assert "--out" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gp-vs-n", "--plot"],
            # a bad grid as well: the plot is refused before any grid is built
            ["gp-vs-n", "--points", "0", "--plot"],
            ["sweep-cavity", "--grid", "1e7:2e7:1", "--plot"],
        ],
        ids=["gp-vs-n", "gp-vs-n-no-points", "sweep-one-point"],
    )
    def test_plot_without_out_is_refused_before_any_grid(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err == "rotodyne: error: --plot requires --out (no directory to write the SVG into)\n"

    @pytest.mark.parametrize(
        "argv, env_root",
        [
            (["sweep-cavity", "--grid", "4.9e9:5.1e9:3:lin", "--out", "F"], None),
            (["figure1", "--out", "F/x", "--points", "5"], None),
            (["figure1", "--points", "5"], "F"),
        ],
        ids=["out-is-a-file", "out-under-a-file", "env-root-is-a-file"],
    )
    def test_unusable_output_directory_exits_1(
        self, capsys, tmp_path, monkeypatch, argv, env_root
    ):
        (tmp_path / "F").write_text("")
        monkeypatch.chdir(tmp_path)
        if env_root is None:
            monkeypatch.delenv("ROTODYNE_OUT", raising=False)
        else:
            monkeypatch.setenv("ROTODYNE_OUT", env_root)
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("rotodyne: error:")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["F"]


class TestNumericsExit:
    def test_numerical_failure_exits_2(self, capsys, monkeypatch):
        def boom(scn, n, engine):
            raise NumericsError("synthetic convergence failure")

        monkeypatch.setattr(cli, "scenario_gp", boom)
        code, _, err = run(capsys, ["gp", "--scenario", "case1", "-n", "10"])
        assert code == 2
        assert "numerical failure" in err

    @pytest.mark.parametrize("argv", [["rates"], ["gp"], ["gp", "--engine", "tong"]])
    def test_rate_past_the_float_range_exits_2(self, capsys, tmp_path, argv):
        # case2's rates read the Lorentzian's peak Q / omega_c, past the float
        # range at the TINY config; at Q = 1e300 and V = 1e-30 m^3 even the
        # general family's true gamma_down is. Such rates printed inf and nan
        # with validity ok, gp (quasi-cycle) printed total_rad nan, both
        # exiting 0, and gp --engine tong exited 1
        huge = dict(omega0_rad_per_s=1e-5, omega_c_rad_per_s=1e-5, q_factor=1e300, volume_m3=1e-30)
        for family, edits, bad in (("case2", {}, "nan"), ("general", huge, "inf")):
            cfg = tiny_config(tmp_path, family, **edits)
            code, out, err = run(capsys, [*argv, "--config", str(cfg)])
            assert (code, out) == (2, ""), family
            assert err == f"rotodyne: numerical failure: gamma_down = {bad} is not finite\n"


def tiny_config(tmp_path, family, **edits):
    """A config file: omega0 = omega_c = 8e-191 rad/s at Q = 2.6e121, whose
    half width is subnormal and whose Lorentzian peak Q / omega_c is past
    the float range, in ``family``, with the ``edits`` to its atom and
    cavity fields."""
    data = dict(scenario_to_dict(preset("case2")), family=family, name="tiny")
    data["atom"].update(omega0_rad_per_s=8.0e-191, theta0_rad=1.0)
    data["trajectory"].update(radius_m=1e-6, omega_rad_per_s=1e-192)
    data["cavity"].update(omega_c_rad_per_s=8.0e-191, q_factor=2.6e121, volume_m3=1e-6)
    for key, value in edits.items():
        data["atom" if key in data["atom"] else "cavity"][key] = value
    cfg = tmp_path / f"tiny-{family}.json"
    cfg.write_text(json.dumps(data))
    return cfg


class TestTinyLinewidth:
    def test_general_family_prints_finite_rates_and_rows(self, capsys, tmp_path):
        # the general rates are about eta Q = 2.1e113 at omega_c = omega0:
        # rates and sweep-cavity printed inf, nan and, at 7.9e-191 and
        # 8.1e-191, gamma_down_noninertial 3.28e-142 (exact about 2e-506)
        cfg = tiny_config(tmp_path, "general")
        scenario = load_scenario(str(cfg))
        traj, atom, cavity = scenario.trajectory, scenario.atom, scenario.cavity
        code, out, _ = run(capsys, ["rates", "--config", str(cfg)])
        assert code == 0 and "nan" not in out and "inf" not in out, out
        exact = exact_rates(traj, atom, cavity, "general")["gamma_down"]
        gamma_down = float(parse_kv(out)[1]["gamma_down_per_s"])
        assert abs(Decimal(gamma_down) - exact) <= Decimal(1e-12) * exact, gamma_down
        code, out, _ = run(capsys, ["sweep-cavity", "--config", str(cfg), "--grid", "7.9e-191:8.1e-191:3"])
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert code == 0 and len(rows) >= 3, out
        for row in rows:
            center, down, _, noninertial = map(float, row[:4])
            assert all(math.isfinite(float(cell)) for cell in row[:5]), row
            exact = exact_rates(traj, atom, cavity._replace(omega_c=center), "general")
            assert abs(Decimal(down) - exact["gamma_down"]) <= Decimal(1e-12) * exact["gamma_down"], row
            if center in (7.9e-191, 8.1e-191):
                assert abs(exact["gamma_down_ni"]) < 1e-300 and noninertial == 0.0, row
        assert {7.9e-191, 8.0e-191, 8.1e-191} <= {float(row[0]) for row in rows}
        # the quasi-cycle phase of the default n is past the float range
        code, out, err = run(capsys, ["gp", "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert err == "rotodyne: numerical failure: total = -inf is not finite\n"


class TestPresetsCommand:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, ["presets"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("case1:")
        assert lines[1].startswith("case2:")
        assert "rad/s" in lines[0]

    def test_json_matches_library(self, capsys):
        code, out, _ = run(capsys, ["presets", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"case1", "case2"}
        for name in ("case1", "case2"):
            assert payload[name] == scenario_to_dict(preset(name))


class TestRatesCommand:
    def test_csv_key_order_and_values(self, capsys):
        code, out, _ = run(capsys, ["rates", "--scenario", "case1"])
        assert code == 0
        keys, values = parse_kv(out)
        assert keys == RATES_KEYS
        fam = scenario_rates(preset("case1"))
        assert values["scenario"] == "case1"
        assert values["family"] == "case1"
        # %.16e keeps 17 significant digits, so text round-trips exactly
        assert float(values["gamma_down_per_s"]) == fam.gamma_down
        assert float(values["gamma_up_per_s"]) == fam.gamma_up
        assert float(values["a_coeff_per_s"]) == fam.a_coeff
        assert float(values["asymmetry_ratio"]) == fam.ratio

    def test_json_matches_library(self, capsys):
        code, out, _ = run(capsys, ["rates", "--scenario", "case2", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == set(RATES_KEYS)
        fam = scenario_rates(preset("case2"))
        assert payload["gamma_down_per_s"] == fam.gamma_down
        assert payload["gamma_down_inertial_per_s"] == fam.gamma_down_inertial
        assert payload["gamma_down_noninertial_per_s"] == fam.gamma_down_ni
        assert payload["b_coeff_per_s"] == fam.b_coeff

    @pytest.mark.parametrize("command", ["rates", "gp"])
    def test_text_values_are_quoted_as_csv_cells(self, capsys, tmp_path, command):
        # each line is one key,value row of two fields that csv reads back
        import csv

        name = 'run "A", cold'
        cfg = tmp_path / "scn.json"
        cfg.write_text(json.dumps(dict(scenario_to_dict(preset("case1")), name=name)))
        code, out, _ = run(capsys, [command, "--config", str(cfg)])
        assert code == 0
        assert out.splitlines()[0] == 'scenario,"run ""A"", cold"'
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["scenario", name] and all(len(row) == 2 for row in rows)

    def test_scenario_path_loads_the_file(self, capsys, tmp_path):
        cfg = tmp_path / "scn.json"
        cfg.write_text(json.dumps(dict(scenario_to_dict(preset("case2")), name="from-file")))
        code, out, err = run(capsys, ["rates", "--scenario", str(cfg)])
        assert (code, err) == (0, "")
        assert run(capsys, ["rates", "--config", str(cfg)]) == (0, out, "")
        assert parse_kv(out)[1]["scenario"] == "from-file"

    def test_config_file_scenario(self, capsys, tmp_path):
        cfg = tmp_path / "scn.json"
        cfg.write_text(json.dumps(scenario_to_dict(preset("case2"))))
        code, out, _ = run(capsys, ["rates", "--config", str(cfg)])
        assert code == 0
        _, values = parse_kv(out)
        fam = scenario_rates(preset("case2"))
        assert float(values["gamma_down_per_s"]) == fam.gamma_down


class TestGpCommand:
    def test_csv_key_order(self, capsys):
        code, out, _ = run(
            capsys,
            ["gp", "--scenario", "case2", "--engine", "quasi-cycle", "-n", "100"],
        )
        assert code == 0
        keys, values = parse_kv(out)
        assert keys == GP_KEYS_QUASI
        assert values["engine"] == "quasi-cycle"
        assert values["validity"] == "ok"
        code, out, _ = run(capsys, ["gp", "--scenario", "case1", "--engine", "tong"])
        assert code == 0
        keys, values = parse_kv(out)
        assert keys == GP_KEYS_TONG
        assert values["engine"] == "tong"
        code, out, _ = run(capsys, ["gp", "--scenario", "case1", "--engine", "exact-integral"])
        assert code == 0
        keys, values = parse_kv(out)
        assert keys == GP_KEYS_EXACT
        assert values["engine"] == "exact-integral"

    def test_engine_choices_are_the_registry(self, capsys):
        gp_parser = cli.build_parser()._subparsers._group_actions[0].choices["gp"]
        engine = next(a for a in gp_parser._actions if a.dest == "engine")
        assert tuple(engine.choices) == tuple(ENGINES)
        for name in ("case1", "case2"):
            scn = preset(name)
            for key in ENGINES:
                code, out, _ = run(
                    capsys, ["gp", "--scenario", name, "--engine", key, "-n", "1000"]
                )
                assert code == 0
                assert out == gp_mapping_text(scn, scenario_gp(scn, 1000, key))

    def test_default_engine_is_scenario_family(self, capsys):
        code, out, _ = run(capsys, ["gp", "--scenario", "case2", "-n", "50"])
        assert code == 0
        _, values = parse_kv(out)
        assert values["engine"] == "case2"

    def test_quasi_cycle_tracks_exact_integral(self, capsys):
        _, out_q, _ = run(
            capsys,
            ["gp", "--scenario", "case1", "--engine", "quasi-cycle", "-n", "100"],
        )
        _, out_e, _ = run(
            capsys,
            ["gp", "--scenario", "case1", "--engine", "exact-integral", "-n", "100"],
        )
        total_q = float(parse_kv(out_q)[1]["total_rad"])
        total_e = float(parse_kv(out_e)[1]["total_rad"])
        assert total_q == pytest.approx(total_e, rel=1e-3)

    def test_tong_engine_tracks_exact_integral(self, capsys):
        # without -n the scenario's default horizon applies: 10**7 cycles for case2
        for cycles in (["-n", "5"], []):
            _, out_t, _ = run(
                capsys, ["gp", "--scenario", "case2", "--engine", "tong", *cycles]
            )
            _, out_e, _ = run(
                capsys,
                ["gp", "--scenario", "case2", "--engine", "exact-integral", *cycles],
            )
            total_t = float(parse_kv(out_t)[1]["total_rad"])
            total_e = float(parse_kv(out_e)[1]["total_rad"])
            assert total_t == pytest.approx(total_e, rel=1e-6)

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            ["gp", "--scenario", "case1", "--engine", "case1", "-n", "100",
             "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["scenario"] == "case1"
        assert payload["engine"] == "case1"
        assert payload["n_cycles"] == 100.0
        assert payload["total_rad"] < 0.0


class TestTableCommands:
    def test_sweep_header_and_anchor_rows(self, capsys):
        code, out, _ = run(
            capsys,
            ["sweep-cavity", "--scenario", "case1", "--grid", "4.9e9:5.1e9:7:lin"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == SWEEP_HEADER
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) >= 7
        freqs = [float(r[0]) for r in rows]
        assert freqs == sorted(freqs)
        # the sideband anchors inside the window are always inserted
        kin = derive_kinematics(preset("case1").trajectory, preset("case1").atom)
        assert kin.omega_plus in freqs
        assert kin.omega_minus in freqs

    def test_sweep_cell_format(self, capsys):
        _, out, _ = run(
            capsys,
            ["sweep-cavity", "--scenario", "case2", "--grid", "9e6:1.1e7:4:lin"],
        )
        for line in out.strip().splitlines()[1:]:
            cells = line.split(",")
            assert len(cells) == 6
            for cell in cells[:-1]:
                assert FLOAT_CELL.match(cell), cell
            assert cells[-1] in ("ok",) or "zeta" in cells[-1] or ";" in cells[-1]

    def test_gp_vs_n_header_and_scaling(self, capsys):
        code, out, _ = run(
            capsys,
            ["gp-vs-n", "--scenario", "case2", "--n-max", "100", "--points", "3"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == GP_VS_N_HEADER
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["1", "10", "100"]
        # one decade in n scales the linear-in-n pieces by 10
        phi_ni = [float(r[3]) for r in rows]
        assert phi_ni[1] == pytest.approx(10.0 * phi_ni[0], rel=1e-12)
        assert phi_ni[2] == pytest.approx(100.0 * phi_ni[0], rel=1e-12)

    @pytest.mark.parametrize(
        "option", [["--points", "0"], ["--n-max", "100000000000000000000000000"]]
    )
    def test_gp_vs_n_rejects_grid_out_of_range(self, capsys, option):
        code, out, err = run(capsys, ["gp-vs-n", "--scenario", "case2", *option])
        assert (code, out) == (1, "")
        assert err.startswith("rotodyne: error:")

    def test_point_counts_past_memory_exit_1(self, capsys, tmp_path):
        # 10**12 points is 8 TB a column: each command must stop at the grid
        # bound with one error line, before the grid's list is built
        config = tmp_path / "huge-sweep.json"
        data = scenario_to_dict(preset("case1"))
        data["sweep"]["points"] = 10**12
        config.write_text(json.dumps(data))
        for argv in (
            ["sweep-cavity", "--config", str(config)],
            ["sweep-cavity", "--grid", "1e7:2e7:1000000000000"],
            ["gp-vs-n", "--points", "1000000000000"],
            ["figure1", "--out", str(tmp_path / "fig"), "--points", "1000000000000"],
        ):
            code, out, err = run(capsys, argv)
            assert (code, out) == (1, ""), argv
            assert err == "rotodyne: error: need at most 1000000 grid points, got 1000000000000\n"

    def test_out_dir_with_plot(self, capsys, tmp_path):
        outdir = tmp_path / "tables"
        code, out, _ = run(
            capsys,
            ["sweep-cavity", "--scenario", "case2", "--grid", "9e6:1.1e7:5:lin",
             "--out", str(outdir), "--plot"],
        )
        assert code == 0
        csv_path = outdir / "case2_rates_sweep.csv"
        svg_path = outdir / "case2_rates_sweep.svg"
        assert csv_path.exists()
        assert svg_path.exists()
        assert str(csv_path) in out
        assert str(svg_path) in out
        assert csv_path.read_text().startswith(SWEEP_HEADER)
        assert svg_path.read_text().startswith("<svg")

    def test_out_dir_json_table(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            ["gp-vs-n", "--scenario", "case1", "--n-max", "100", "--points", "3",
             "--out", str(tmp_path), "--format", "json"],
        )
        assert code == 0
        payload = json.loads((tmp_path / "case1_gp_vs_n.json").read_text())
        assert set(payload) == {"columns", "rows", "metadata"}
        assert payload["metadata"]["scenario"]["name"] == "case1"
        assert len(payload["rows"]) == 3

    def test_env_root_resolves_relative_out(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("ROTODYNE_OUT", str(tmp_path))
        code, _, _ = run(
            capsys,
            ["sweep-cavity", "--scenario", "case1", "--grid", "4.9e9:5.1e9:3:lin",
             "--out", "sub"],
        )
        assert code == 0
        assert (tmp_path / "sub" / "case1_rates_sweep.csv").exists()

    def test_env_root_ignored_for_absolute_out(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("ROTODYNE_OUT", str(tmp_path / "ignored"))
        target = tmp_path / "abs"
        code, _, _ = run(
            capsys,
            ["sweep-cavity", "--scenario", "case1", "--grid", "4.9e9:5.1e9:3:lin",
             "--out", str(target)],
        )
        assert code == 0
        assert (target / "case1_rates_sweep.csv").exists()
        assert not (tmp_path / "ignored").exists()


class TestFigure1Command:
    EXPECTED = [
        "case1_rates_sweep.csv",
        "case1_rates_sweep.svg",
        "case1_gp_vs_n.csv",
        "case1_gp_vs_n.svg",
        "case2_rates_sweep.csv",
        "case2_rates_sweep.svg",
        "case2_gp_vs_n.csv",
        "case2_gp_vs_n.svg",
    ]

    def test_writes_all_panels(self, capsys, tmp_path):
        outdir = tmp_path / "fig"
        code, out, _ = run(capsys, ["figure1", "--out", str(outdir), "--points", "16"])
        assert code == 0
        for name in self.EXPECTED:
            path = outdir / name
            assert path.exists(), name
            assert path.stat().st_size > 0
        assert len(out.strip().splitlines()) == len(self.EXPECTED)

    def test_default_out_under_env_root(self, capsys, tmp_path, monkeypatch):
        # an empty or unset root leaves ./figure1 in the working directory
        for case, root in (("set", str(tmp_path / "root")), ("empty", ""), ("unset", None)):
            cwd = tmp_path / case
            cwd.mkdir()
            monkeypatch.chdir(cwd)
            if root is None:
                monkeypatch.delenv("ROTODYNE_OUT", raising=False)
            else:
                monkeypatch.setenv("ROTODYNE_OUT", root)
            code, _, _ = run(capsys, ["figure1", "--points", "16"])
            assert code == 0
            base = tmp_path / "root" if root else cwd
            for name in self.EXPECTED:
                assert (base / "figure1" / name).exists(), (case, name)
            assert any(cwd.iterdir()) == (not root), case
