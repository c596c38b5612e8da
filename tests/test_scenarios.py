"""Scenario presets, serialization, sweep tables, deterministic text output."""

import json
import math
import re

import numpy as np
import pytest

from rotodyne import (
    build_grid,
    default_anchors,
    default_n_grid,
    derive_kinematics,
    figure1,
    gp_case1,
    gp_vs_n,
    load_scenario,
    preset,
    preset_names,
    save_scenario,
    scenario_from_dict,
    scenario_gp,
    scenario_rates,
    scenario_to_dict,
    sweep_cavity,
    table_to_csv_text,
    table_to_json_text,
)

FLOAT_CELL = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,3}$")


class TestPresets:
    def test_both_presets_exist(self):
        assert preset_names() == ("case1", "case2")

    def test_fast_preset_tunes_cavity_to_upper_lab_sideband(self):
        s = preset("case1")
        kin = derive_kinematics(s.trajectory, s.atom)
        assert s.cavity.omega_c == kin.omega_plus
        assert s.atom.theta0 == math.pi / 2
        assert s.n_default == 10**5

    def test_slow_preset_tunes_cavity_to_upper_comoving_sideband(self):
        s = preset("case2")
        kin = derive_kinematics(s.trajectory, s.atom)
        assert s.cavity.omega_c == kin.obar_plus
        assert s.n_default == 10**7

    def test_slow_preset_sweep_window_brackets_the_sidebands(self):
        s = preset("case2")
        kin = derive_kinematics(s.trajectory, s.atom)
        assert s.sweep_lo == 0.9 * kin.obar_minus
        assert s.sweep_hi == 1.1 * kin.obar_plus

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            preset("case3")


class TestSerialization:
    def test_dict_round_trip_preserves_every_field(self):
        s = preset("case1")
        assert scenario_from_dict(scenario_to_dict(s)) == s

    def test_file_round_trip_reproduces_sweep_text(self, tmp_path):
        s = preset("case2")
        path = tmp_path / "scn.json"
        save_scenario(s, path)
        loaded = load_scenario(path)
        grid = build_grid(s.sweep_lo, s.sweep_hi, 9, anchors=default_anchors(s))
        assert table_to_csv_text(sweep_cavity(loaded, grid)) == table_to_csv_text(
            sweep_cavity(s, grid)
        )

    def test_missing_and_unknown_keys_rejected(self):
        data = scenario_to_dict(preset("case1"))
        del data["cavity"]
        with pytest.raises(ValueError, match="missing"):
            scenario_from_dict(data)
        data = scenario_to_dict(preset("case1"))
        data["extra"] = 1
        with pytest.raises(ValueError, match="unknown"):
            scenario_from_dict(data)

    def test_general_family_accepted(self):
        data = scenario_to_dict(preset("case2"))
        data["family"] = "general"
        data["name"] = "wide"
        s = scenario_from_dict(data)
        rs = scenario_rates(s)
        assert rs.family == "general"
        assert rs.gamma_down_inertial is not None


class TestGrids:
    def test_log_grid_contains_anchors_exactly(self):
        s = preset("case1")
        kin = derive_kinematics(s.trajectory, s.atom)
        grid = build_grid(s.sweep_lo, s.sweep_hi, 101, anchors=default_anchors(s))
        for anchor in default_anchors(s):
            assert anchor in grid
        assert kin.omega_plus in grid
        assert np.all(np.diff(grid) > 0.0)

    def test_linear_grid_spacing(self):
        grid = build_grid(1.0, 2.0, 11, log=False)
        np.testing.assert_allclose(np.diff(grid), 0.1, rtol=1e-12)

    def test_out_of_window_anchors_are_dropped(self):
        grid = build_grid(1.0, 2.0, 5, anchors=(0.5, 1.5, 9.0))
        assert 1.5 in grid
        assert 0.5 not in grid and 9.0 not in grid

    def test_cycle_grid_spans_one_to_n_max(self):
        ns = default_n_grid(10**6, points=13)
        assert ns[0] == 1 and ns[-1] == 10**6
        assert np.all(np.diff(ns) > 0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            build_grid(10.0, 5.0, 3)
        with pytest.raises(ValueError):
            build_grid(1.0, 2.0, 1)
        for start, stop in ((1.0, math.inf), (math.nan, 2.0), (-math.inf, 2.0)):
            with pytest.raises(ValueError, match="finite"):
                build_grid(start, stop, 3, log=False)


class TestSweeps:
    def test_rows_match_direct_rate_evaluation(self):
        from dataclasses import replace

        # both presets, a general-family scenario, and case1 formulas out of
        # their regime (a validity warning on every row), on the anchored grid
        fast, slow = (scenario_to_dict(preset(name)) for name in ("case1", "case2"))
        scenarios = [
            preset("case1"),
            preset("case2"),
            scenario_from_dict(dict(fast, family="general")),
            scenario_from_dict(dict(slow, family="case1")),
        ]
        for s in scenarios:
            tbl = sweep_cavity(s)
            assert len(tbl.rows) >= s.sweep_points
            for row in tbl.rows:
                rs = scenario_rates(s, cavity=replace(s.cavity, omega_c=row[0]))
                assert all(type(v) is float for v in row[:-1])
                assert row == (
                    row[0],
                    rs.gamma_down,
                    rs.gamma_down_inertial,
                    rs.gamma_down_ni,
                    rs.gamma_up,
                    rs.validity,
                )
        assert tbl.rows[0][-1] != "ok"

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_cavity(preset("case1"), np.array([]))

    @pytest.mark.parametrize("bad", [0.0, -1.0e7, math.nan, math.inf])
    def test_unphysical_grid_entry_rejected(self, bad):
        with pytest.raises(ValueError, match="omega_c"):
            sweep_cavity(preset("case2"), np.array([1.0e7, bad, 1.02e7]))

    def test_cycle_doubling_quadruples_noninertial_phase(self):
        tbl = gp_vs_n(preset("case2"), [50, 100])
        ni = tbl.columns.index("phi_ni_rad")
        assert tbl.rows[1][ni] / tbl.rows[0][ni] == 4.0

    def test_gp_table_matches_engine(self):
        s = preset("case1")
        tbl = gp_vs_n(s, [10, 100])
        direct = gp_case1(s.trajectory, s.atom, s.cavity, 100.0)
        row = tbl.rows[1]
        assert row[tbl.columns.index("phi_ni_rad")] == direct.noninertial_part
        assert row[tbl.columns.index("phi_in_rad")] == direct.inertial_part

    def test_engine_dispatch_follows_family(self):
        s1, s2 = preset("case1"), preset("case2")
        assert scenario_gp(s1, 100).engine == "case1"
        assert scenario_gp(s2, 100).engine == "case2"
        data = scenario_to_dict(s2)
        data["family"] = "general"
        general = scenario_from_dict(data)
        g = scenario_gp(general, 100)
        assert g.engine == "quasi-cycle"
        assert g == scenario_gp(general, 100, "quasi-cycle")
        assert g.noninertial_part == pytest.approx(
            scenario_gp(s2, 100).noninertial_part, rel=1e-3
        )


class TestTextOutput:
    def test_csv_is_deterministic(self):
        s = preset("case1")
        grid = build_grid(s.sweep_lo, s.sweep_hi, 25, anchors=default_anchors(s))
        assert table_to_csv_text(sweep_cavity(s, grid)) == table_to_csv_text(
            sweep_cavity(s, grid)
        )

    def test_csv_cells_carry_seventeen_significant_digits(self):
        tbl = gp_vs_n(preset("case2"), [10, 1000])
        text = table_to_csv_text(tbl)
        assert "\r" not in text
        assert text.endswith("\n")
        for line in text.splitlines()[1:]:
            for cell in line.split(",")[1:]:  # first column is the integer n
                assert FLOAT_CELL.match(cell), cell

    def test_sweep_header_is_pinned(self):
        tbl = sweep_cavity(preset("case2"), np.array([1.0e7]))
        assert table_to_csv_text(tbl).splitlines()[0] == (
            "omega_c_rad_per_s,gamma_down_total_per_s,gamma_down_inertial_per_s,"
            "gamma_down_noninertial_per_s,gamma_up_per_s,validity"
        )

    def test_gp_header_is_pinned(self):
        tbl = gp_vs_n(preset("case1"), [10])
        assert table_to_csv_text(tbl).splitlines()[0] == (
            "n,phi_unitary_rad,phi_in_rad,phi_ni_rad,phi_nonunitary_total_rad,"
            "pi_n_A_over_Omega0"
        )

    def test_json_carries_metadata_csv_does_not(self):
        s = preset("case1")
        tbl = gp_vs_n(s, [10, 20])
        payload = json.loads(table_to_json_text(tbl))
        assert set(payload) == {"columns", "rows", "metadata"}
        assert payload["metadata"]["scenario"]["name"] == "case1"
        assert payload["metadata"]["points"] == 2
        text = table_to_csv_text(tbl)
        assert len(text.splitlines()) == 3  # header + two rows, nothing else


class TestFigure:
    def test_figure1_writes_all_panels(self, tmp_path):
        paths = figure1(tmp_path, points=24)
        names = sorted(p.name for p in paths)
        assert names == [
            "case1_gp_vs_n.csv",
            "case1_gp_vs_n.svg",
            "case1_rates_sweep.csv",
            "case1_rates_sweep.svg",
            "case2_gp_vs_n.csv",
            "case2_gp_vs_n.svg",
            "case2_rates_sweep.csv",
            "case2_rates_sweep.svg",
        ]
        for p in paths:
            assert p.exists() and p.stat().st_size > 0
