"""Scenario presets, serialization, sweep tables, deterministic text output."""

import csv
import dataclasses
import io
import json
import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest

from rotodyne import (
    SweepTable,
    build_grid,
    default_anchors,
    default_n_grid,
    derive_kinematics,
    figure1,
    general_rates,
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
from rotodyne.constants import SPEED_OF_LIGHT

FLOAT_CELL = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,3}$")


def _cell_text(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.16e}"


def reference_csv(table) -> str:
    """The per-cell CSV writer the column writer must match byte for byte."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([_cell_text(v) for v in row])
    return buf.getvalue()


def reference_json(table) -> str:
    """The whole-payload JSON writer the column writer must match byte for byte."""
    payload = {
        "columns": list(table.columns),
        "rows": [[v if isinstance(v, str) else float(v) for v in row] for row in table.rows],
        "metadata": table.metadata,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def libm_geomspace(start: float, stop: float, points: int) -> list:
    """np.geomspace's construction on libm, written out: 10.0 ** y at each
    y = i * step + log10(start), with step = (log10(stop) - log10(start)) /
    (points - 1), and both endpoints pinned. The step is never 0 here."""
    lo, hi = math.log10(start), math.log10(stop)
    step = (hi - lo) / (points - 1)
    cells = [10.0 ** (i * step + lo) for i in range(points)]
    cells[0], cells[-1] = start, stop
    return cells


def seeded_general_scenario(rng, name: str):
    """A general-family scenario: a fast or a slow orbit at a squared rim
    speed zeta from 1e-10 to 1e-2 (past 1e-3 the rates carry a warning),
    the cavity near the upper sideband."""
    omega0 = 10.0 ** rng.uniform(6.5, 7.5)
    fast = rng.uniform() < 0.5
    omega = omega0 * 10.0 ** (rng.uniform(1.0, 2.0) if fast else rng.uniform(-3.0, -1.5))
    zeta = 10.0 ** rng.uniform(-10.0, -2.0)
    sideband = (omega0 * math.sqrt(1.0 - zeta) + omega) * (1.0 + rng.uniform(-1e-6, 1e-6))
    data = scenario_to_dict(preset("case1"))
    data.update(name=name, family="general")
    data["atom"].update(omega0_rad_per_s=omega0, theta0_rad=rng.uniform(0.2, math.pi - 0.2))
    radius = math.sqrt(zeta) * SPEED_OF_LIGHT / omega
    data["trajectory"].update(radius_m=radius, omega_rad_per_s=omega)
    data["cavity"].update(omega_c_rad_per_s=sideband, q_factor=10.0 ** rng.uniform(5.0, 7.0))
    del data["sweep"]
    return scenario_from_dict(data)


def assert_cycle_grid_equals_np_unique(n_max: int, points: int) -> None:
    raw = np.round(np.geomspace(1.0, float(n_max), points)).astype(np.int64)
    want = np.unique(raw)
    got = default_n_grid(n_max, points)
    assert type(got) is tuple and all(type(n) is int for n in got)
    assert np.asarray(got, dtype=np.int64).tobytes() == want.tobytes(), (n_max, points)


SUBNORMAL = 5e-324
AWKWARD_TEXT = ("ok", "a, b", 'say "hi"', "two\nlines", "")


def _awkward_tables():
    """Tables whose cells exercise every formatting branch of the writers."""
    floats = (math.nan, math.inf, -math.inf, -0.0, 0.0, SUBNORMAL, 2.5e-310, 1e308, -1.25)
    rows = tuple(
        (
            n,
            x,
            np.float64(-x),
            np.float64(k + 0.1) if k % 2 else k + 0.1,
            AWKWARD_TEXT[k % len(AWKWARD_TEXT)],
        )
        for k, (n, x) in enumerate(zip(range(1, 10), floats))
    )
    columns = ("n", "x", "minus_x", "mixed_float_types", "validity")
    metadata = {"axis": "n", "points": len(rows), "note": 'quote " and\nnewline', "z": [1.5, None]}
    scn = preset("case1")
    grid = build_grid(scn.sweep_lo, scn.sweep_hi, 9, anchors=default_anchors(scn))
    return {
        "specials": SweepTable(columns=columns, rows=rows, metadata=metadata),
        "one-row": SweepTable(columns=columns, rows=rows[:1], metadata=metadata),
        "no-rows": SweepTable(columns=columns, rows=(), metadata={}),
        "one-text-column": SweepTable(
            columns=("validity",), rows=tuple((t,) for t in AWKWARD_TEXT)
        ),
        "int-and-float-column": SweepTable(
            columns=("v", "w"), rows=((1, "x"), (2.5, "y"), (np.int64(-3), "z"))
        ),
        "text-and-number-column": SweepTable(
            columns=("v",), rows=(("a,b",), (1.5,), (np.int64(7),), ("",))
        ),
        "sweep": sweep_cavity(scn, grid),
        "gp_vs_n": gp_vs_n(preset("case2"), [1, 10, 1000]),
    }


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

    @pytest.mark.parametrize("name", ["case1", "case2"])
    def test_preset_sweep_is_the_family_default(self, name):
        data = scenario_to_dict(preset(name))
        del data["sweep"]
        assert scenario_from_dict(data) == preset(name)

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

    @pytest.mark.parametrize(
        "key, value, message",
        [
            (("family",), "case3", "family must be one of"),
            (("n_default",), 0, "1 <= n_default <= n_max"),
            (("n_max",), 10, "1 <= n_default <= n_max"),
            (("sweep", "lo_rad_per_s"), 0.0, "0 < sweep_lo < sweep_hi < inf"),
            (("sweep", "points"), 1, "at least 2 sweep points"),
            (("atom", "omega0_rad_per_s"), 10**400, "omega0_rad_per_s must be a number"),
        ],
        ids=["family", "n-default", "n-max", "sweep-lo", "sweep-points", "integer-past-floats"],
    )
    def test_inconsistent_or_unrepresentable_values_rejected(self, key, value, message):
        data = scenario_to_dict(preset("case1"))
        *outer, last = key
        block = data
        for name in outer:
            block = block[name]
        block[last] = value
        with pytest.raises(ValueError, match=message):
            scenario_from_dict(data)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("sweep_points", 2.5, "sweep_points must be a whole number"),
            ("sweep_points", math.nan, "sweep_points must be a whole number"),
            ("n_default", math.nan, "n_default must be a whole number"),
            ("n_max", math.inf, "n_max must be a whole number"),
            ("n_default", True, "n_default must be a number"),
            ("name", "../escaped", "name must be a non-empty string"),
            ("name", "a/b", "name must be a non-empty string"),
            ("name", "", "name must be a non-empty string"),
            ("name", "two\nlines", "name must hold no control character"),
            ("name", "\x00", "name must hold no control character"),
            ("name", "tab\there", "name must hold no control character"),
            ("name", "del\x7f", "name must hold no control character"),
            ("name", "next\x85line", "name must hold no control character"),
            ("name", "line\u2028separator", "name must hold no control character"),
            ("name", "paragraph\u2029separator", "name must hold no control character"),
        ],
    )
    def test_record_holds_to_the_loader_rules(self, field, value, message):
        """A Scenario the loader would refuse cannot be made, so none can be
        saved to a file that does not load or written outside its directory."""
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(preset("case1"), **{field: value})

    def test_whole_float_counts_are_stored_as_ints(self, tmp_path):
        s = dataclasses.replace(preset("case1"), sweep_points=400.0, n_default=1e5, n_max=1e6)
        assert s == preset("case1")
        assert [type(v) for v in (s.sweep_points, s.n_default, s.n_max)] == [int] * 3
        reference = sweep_cavity(preset("case1"))
        assert table_to_csv_text(sweep_cavity(s)) == table_to_csv_text(reference)
        save_scenario(s, tmp_path / "s.json")
        assert load_scenario(tmp_path / "s.json") == s

    def test_general_family_accepted(self):
        data = scenario_to_dict(preset("case2"))
        data["family"] = "general"
        data["name"] = "wide"
        s = scenario_from_dict(data)
        rs = scenario_rates(s)
        assert rs == general_rates(s.trajectory, s.atom, s.cavity)
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

    @pytest.mark.parametrize(
        "start, stop, points, log, anchors",
        [
            (1.0, 1.0 + 64 * 2.0**-52, 200, True, lambda base: ()),
            (1e9, 2e10, 57, True, lambda base: (base[0], base[7], base[-1])),
            (1.0, 2.0, 5, True, lambda base: (0.5, 9.0, -1.0)),
            (1e9, 2e10, 57, True, lambda base: (1.7e10, 1.1e9, 5e9, 1.1e9)),
            (1.0, 2.0, 11, False, lambda base: (1.5, base[3], 1.05)),
        ],
        ids=["rounding-repeats", "anchors-on-grid", "anchors-outside", "unsorted", "linear"],
    )
    def test_grid_equals_np_unique(self, start, stop, points, log, anchors):
        # the log grid against its construction written out on libm, the
        # linear grid against numpy's own linspace
        base = libm_geomspace(start, stop, points) if log else np.linspace(start, stop, points)
        picked = anchors(base)
        inside = np.asarray([a for a in picked if start <= a <= stop], dtype=float)
        want = np.unique(np.concatenate([base, inside]))
        got = build_grid(start, stop, points, log=log, anchors=picked)
        assert type(got) is tuple and all(type(v) is float for v in got)
        assert np.asarray(got).tobytes() == want.tobytes()

    def test_log_grid_is_within_an_ulp_of_np_geomspace(self):
        # Where math.log10 and np.log10 agree on both endpoints the two grids
        # share every exponent y and differ only in the power: by at most an
        # ulp. Elsewhere an endpoint's log10 differs by an ulp, which moves
        # each y by a few ulps of the larger |log10| and the cell by ln(10)
        # times that, relative.
        rng = np.random.default_rng(20261019)
        shared = 0
        for _ in range(400):
            start = 10.0 ** rng.uniform(-300.0, 300.0)
            stop = min(start * 10.0 ** rng.uniform(1e-6, 8.0), 1e308)
            points = int(rng.integers(2, 400))
            got = np.asarray(build_grid(start, stop, points))
            want = np.geomspace(start, stop, points)
            if all(math.log10(v) == np.log10(v) for v in (start, stop)):
                shared += 1
                assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= 1
            y_max = max(abs(math.log10(start)), abs(math.log10(stop)))
            bound = 4.0 * math.log(10.0) * math.ulp(y_max) + 2.0 * np.finfo(float).eps
            assert np.all(np.abs(got - want) <= bound * want)
        assert shared >= 300

    def test_log_grid_cells_are_within_an_ulp_of_the_exact_power(self):
        # each inner cell is 10**y for the float y of its linspace; the
        # endpoints are the given start and stop themselves
        rng = np.random.default_rng(20261020)
        with localcontext() as ctx:
            ctx.prec = 40
            for _ in range(60):
                start = 10.0 ** rng.uniform(-300.0, 300.0)
                stop = min(start * 10.0 ** rng.uniform(1e-6, 8.0), 1e308)
                points = int(rng.integers(3, 60))
                cells = build_grid(start, stop, points)
                assert (cells[0], cells[-1]) == (start, stop)
                ys = np.linspace(math.log10(start), math.log10(stop), points)[1:-1].tolist()
                for y, cell in zip(ys, cells[1:-1]):
                    exact = Decimal(10) ** Decimal(y)
                    assert abs(Decimal(cell) - exact) <= Decimal(math.ulp(cell)), (y, cell)

    @pytest.mark.parametrize(
        "n_max, points", [(1, 1), (1, 5), (10, 40), (100, 3), (10**6, 13), (12345, 400), (2**53, 25)]
    )
    def test_cycle_grid_equals_np_unique(self, n_max, points):
        assert_cycle_grid_equals_np_unique(n_max, points)

    def test_cycle_grid_equals_np_unique_on_seeded_pairs(self):
        # n_max log-uniform up to 1e12: past it a count near a half integer
        # can round the other way where numpy's power and libm's pow differ
        # by an ulp (19 of 4000 grids over 1e12..2**53, each by one count)
        rng = np.random.default_rng(20261021)
        for _ in range(2500):
            n_max = int(round(10.0 ** rng.uniform(0.0, 12.0)))
            assert_cycle_grid_equals_np_unique(n_max, int(rng.integers(1, 61)))

    @pytest.mark.parametrize("n_max, points", [(100, 0), (100, -2), (0, 5), (2**53 + 1, 5), (10**26, 5)])
    def test_cycle_grid_bounds(self, n_max, points):
        with pytest.raises(ValueError):
            default_n_grid(n_max, points)

    def test_point_bound_is_checked_before_numpy_allocates(self):
        # the bound + 1 raises from the count alone, before the grid's list
        # is built; counts far past it would otherwise end in a MemoryError
        with pytest.raises(ValueError, match="at most 1000000 grid points, got 1000001"):
            build_grid(1.0, 2.0, 10**6 + 1)
        with pytest.raises(ValueError, match="at most 1000000 grid points, got 1000001"):
            default_n_grid(100, 10**6 + 1)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            build_grid(10.0, 5.0, 3)
        with pytest.raises(ValueError):
            build_grid(1.0, 2.0, 1)
        for start, stop in ((1.0, math.inf), (math.nan, 2.0), (-math.inf, 2.0)):
            with pytest.raises(ValueError, match="finite"):
                build_grid(start, stop, 3, log=False)
        for start in (0.0, -1.0):
            with pytest.raises(ValueError, match="log grid needs start > 0"):
                build_grid(start, 2.0, 3)


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

    def test_scalar_and_array_rows_agree_bit_for_bit(self):
        # the two paths of sweep_cavity over whole anchored grids of 2 to
        # 5000 points: both presets, case1 formulas out of their regime (a
        # warning on every row), and 50 seeded general-family scenarios
        from rotodyne.scenarios import _sweep_rows

        rng = np.random.default_rng(20261022)
        slow = scenario_to_dict(preset("case2"))
        cases = [(preset(name), points) for name in ("case1", "case2") for points in (2, 400, 5000)]
        cases.append((scenario_from_dict(dict(slow, family="case1")), 300))
        counts = np.geomspace(2.0, 5000.0, 50).round().astype(int)
        cases += [(seeded_general_scenario(rng, f"g{k}"), int(n)) for k, n in enumerate(counts)]
        validities = set()
        for s, points in cases:
            grid = build_grid(s.sweep_lo, s.sweep_hi, points, anchors=default_anchors(s))
            scalar, array = _sweep_rows(s, grid, arrays=False), _sweep_rows(s, grid, arrays=True)
            assert len(scalar) == len(grid) and all(type(v) is float for v in scalar[0][:-1])
            # the bytes of the numbers tell a zero's sign apart, which == does not
            numbers = [np.array([row[:-1] for row in rows]).tobytes() for rows in (scalar, array)]
            assert numbers[0] == numbers[1], (s.name, points)
            assert [row[-1] for row in scalar] == [row[-1] for row in array]
            validities.add(scalar[0][-1])
        # rows without a warning, and rows of more than one kind of warning
        assert "ok" in validities and len(validities) >= 3, validities

    @pytest.mark.parametrize("arrays", [False, True], ids=["floats", "array"])
    def test_bad_grid_point_is_reported_before_a_bad_set_up(self, arrays):
        # the coupling overflows, and the second grid point is no frequency
        from rotodyne.scenarios import _sweep_rows

        s = dataclasses.replace(
            preset("case1"), atom=dataclasses.replace(preset("case1").atom, dipole=1e200)
        )
        with pytest.raises(ValueError, match="coupling eta"):
            sweep_cavity(s, (1.0e7, 2.0e7))
        with pytest.raises(ValueError, match="omega_c must be positive and finite"):
            _sweep_rows(s, (1.0e7, 0.0), arrays)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_cavity(preset("case1"), np.array([]))
        with pytest.raises(ValueError, match="empty"):
            sweep_cavity(preset("case1"), ())

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
        # whole float counts are taken, and written as the integers they are
        floats = gp_vs_n(s, np.array([10.0, 100.0]))
        assert floats.rows == tbl.rows and type(floats.rows[1][0]) is int

    @pytest.mark.parametrize("bad", [2.5, 3.9, 0, -2, math.nan, math.inf])
    def test_gp_table_rejects_counts_that_are_not_whole_and_positive(self, bad):
        with pytest.raises(ValueError, match="whole number|positive"):
            gp_vs_n(preset("case1"), [10, bad])

    def test_gp_table_rows_are_scenario_gp_from_one_rate_evaluation(self, monkeypatch):
        import rotodyne.scenarios as scenarios

        general = scenario_from_dict(dict(scenario_to_dict(preset("case1")), family="general"))
        for s in (preset("case1"), preset("case2"), general):
            ns = [1, 7, 1000, s.n_max]
            want = [scenario_gp(s, n) for n in ns]
            calls = []
            real = scenarios.scenario_rates
            monkeypatch.setattr(
                scenarios, "scenario_rates", lambda *args: calls.append(args) or real(*args)
            )
            table = gp_vs_n(s, ns)
            monkeypatch.undo()
            assert len(calls) == 1
            assert table.rows == tuple(
                (
                    n,
                    res.unitary_part,
                    res.inertial_part,
                    res.noninertial_part,
                    res.nonunitary_part,
                    res.diagnostics["pi_n_a_over_omega0"],
                )
                for n, res in zip(ns, want)
            )

    @pytest.mark.parametrize(
        "engine, digits, reason",
        [
            ("tong", 401, "int too large to convert to float"),
            ("exact-integral", 309, "horizon 2 pi n / omega0 is past the float range"),
            ("quasi-cycle", 201, "int too large to convert to float"),
            ("case1", 201, "int too large to convert to float"),
        ],
    )
    def test_cycle_count_past_the_engine_range_raises(self, engine, digits, reason):
        # the kernel engines take the horizon 2 pi n / omega0, the others n**2
        message = f"cycle count of {digits} digits is too large: {reason}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            scenario_gp(preset("case1"), 10 ** (digits - 1), engine)

    @pytest.mark.parametrize("n", [math.nan, math.inf])
    @pytest.mark.parametrize("engine", ["tong", "exact-integral", "quasi-cycle", "case1", "case2"])
    def test_non_finite_cycle_count_raises(self, engine, n):
        with pytest.raises(ValueError, match=f"^cycle count must be finite, got {n}$"):
            scenario_gp(preset("case1"), n, engine)

    def test_cycle_count_in_the_kernel_range_runs(self):
        # n**2 is past the float range, the horizon of n = 10^200 cycles is not
        res = scenario_gp(preset("case1"), 10**200, "tong")
        assert math.isfinite(res.total)

    def test_engine_dispatch_follows_family(self):
        s1, s2 = preset("case1"), preset("case2")
        assert scenario_gp(s1, 100).engine == "case1"
        assert scenario_gp(s2, 100).engine == "case2"
        data = scenario_to_dict(s2)
        data["family"] = "general"
        general = scenario_from_dict(data)
        with pytest.raises(ValueError, match="unknown engine"):
            scenario_gp(s1, 100, "case3")
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


class TestWritersMatchPerCellReference:
    TABLES = _awkward_tables()

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_csv_bytes(self, name):
        table = self.TABLES[name]
        assert table_to_csv_text(table) == reference_csv(table)

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_json_bytes(self, name):
        table = self.TABLES[name]
        assert table_to_json_text(table) == reference_json(table)

    def test_text_cells_are_quoted_as_csv_writer_quotes_them(self):
        # every character below U+0180 inside a text cell, beside a float
        # cell and alone in its row; csv.writer leaves a carriage return bare
        # before Python 3.13 (and refuses NUL on 3.10), where 3.13 quotes it
        chars = [chr(i) for i in range(0x180) if chr(i) not in "\r\x00"]
        pair = SweepTable(columns=("t", "x"), rows=tuple((f"a{c}b", 1.5) for c in chars))
        alone = SweepTable(columns=("t",), rows=tuple((f"a{c}b",) for c in chars))
        for table in (pair, alone):
            assert table_to_csv_text(table) == reference_csv(table)
        text = table_to_csv_text(SweepTable(columns=("t", "x"), rows=(("a\rb", 1.5),)))
        assert text.split("\n")[1] == '"a\rb",1.5000000000000000e+00'
        assert list(csv.reader(io.StringIO(text)))[1] == ["a\rb", "1.5000000000000000e+00"]

    def test_special_values_are_written_as_csv_and_json_spell_them(self):
        table = self.TABLES["specials"]
        rows = list(csv.reader(io.StringIO(table_to_csv_text(table))))
        assert [row[:3] for row in rows[1:7:2]] == [
            ["1", "nan", "nan"],
            ["3", "-inf", "inf"],
            ["5", "0.0000000000000000e+00", "-0.0000000000000000e+00"],
        ]
        assert rows[4][1:3] == ["-0.0000000000000000e+00", "0.0000000000000000e+00"]
        assert rows[6][1:3] == ["4.9406564584124654e-324", "-4.9406564584124654e-324"]
        assert [row[-1] for row in rows[1:6]] == list(AWKWARD_TEXT)
        text = table_to_json_text(table)
        for token in ("NaN", "Infinity", "-Infinity", "5e-324", "-0.0", '"a, b"', '"say \\"hi\\""'):
            assert token in text
        assert "np.float64" not in text

    def test_columns_of_the_stored_rows(self):
        table = self.TABLES["specials"]
        np.testing.assert_array_equal(table.column("n"), np.arange(1.0, 10.0))
        assert list(table.column("validity")) == [row[-1] for row in table.rows]
        assert table.column("x").size == 9
        assert self.TABLES["no-rows"].column("x").shape == (0,)


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

    @pytest.mark.parametrize("points", [24.9, math.nan, math.inf])
    def test_figure1_rejects_a_point_count_that_is_not_whole(self, tmp_path, points):
        with pytest.raises(ValueError, match="whole number"):
            figure1(tmp_path / "figure1", points=points)
        assert not (tmp_path / "figure1").exists()
