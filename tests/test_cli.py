"""Command-line interface tests.

Everything runs in-process through ``rotodyne.cli.main`` so exit codes,
stdout payloads, and file side effects are checked without subprocess
overhead.  Usage errors raised by argparse surface as ``SystemExit(1)``;
domain errors return 1; numerical failures return 2.
"""

import json
import re

import pytest

import rotodyne.cli as cli
from rotodyne import (
    ENGINES,
    NumericsError,
    derive_kinematics,
    preset,
    scenario_gp,
    scenario_rates,
    scenario_to_dict,
)
from rotodyne.cli import main

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

    def test_infinite_grid_bound_exits_1(self, capsys):
        code, out, err = run(capsys, ["sweep-cavity", "--scenario", "case2", "--grid", "1e7:inf:4"])
        assert (code, out) == (1, "")
        assert "finite" in err

    def test_plot_requires_out(self, capsys):
        code, _, err = run(
            capsys, ["sweep-cavity", "--grid", "4.9e9:5.1e9:3:lin", "--plot"]
        )
        assert code == 1
        assert "--out" in err


class TestNumericsExit:
    def test_numerical_failure_exits_2(self, capsys, monkeypatch):
        def boom(scn, n, engine):
            raise NumericsError("synthetic convergence failure")

        monkeypatch.setattr(cli, "scenario_gp", boom)
        code, _, err = run(capsys, ["gp", "--scenario", "case1", "-n", "10"])
        assert code == 2
        assert "numerical failure" in err


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
        monkeypatch.setenv("ROTODYNE_OUT", str(tmp_path))
        code, _, _ = run(capsys, ["figure1", "--points", "16"])
        assert code == 0
        for name in self.EXPECTED:
            assert (tmp_path / "figure1" / name).exists(), name
