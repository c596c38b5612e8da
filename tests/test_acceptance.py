"""Acceptance checks.

One test per shipped guarantee, numbered c01..c14 so that ``pytest -v``
prints a single pass/fail line for each.  Tolerances and reference values
are frozen here; loosening them is a contract change, not a test fix.

Wall-clock guards use generous desk-scale budgets so they hold on slow
machines without masking real regressions.
"""

import contextlib
import io
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rotodyne
from rotodyne import (
    AtomParams,
    CavitySpec,
    EvolutionParams,
    TrajectoryParams,
    closed_form_rho,
    derive_kinematics,
    dos,
    evolve_ode,
    figure1,
    general_rates,
    gp_case1,
    gp_case2,
    gp_exact_integral,
    gp_quasi_cycle,
    gp_split,
    gp_tong_closed_form,
    kossakowski,
    lab_rates_general,
    preset,
    scenario_gp,
    sweep_cavity,
    trace_distance,
)
from rotodyne.cli import main
from rotodyne.constants import SPEED_OF_LIGHT

from module_sets import (
    CONFIG,
    LOAD_STEPS,
    NUMPY,
    PANEL_CYCLES,
    PANEL_ENGINES,
    TABLE_COMMANDS,
    UNUSED,
    problems,
)


def test_c01_closed_form_matches_ode_over_random_draws():
    """Closed-form propagator vs direct integration: trace distance < 1e-9."""
    rng = np.random.default_rng(20260814)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        theta = rng.uniform(0.0, math.pi)
        a = 10.0 ** rng.uniform(-3.0, 0.0)
        b = a * rng.uniform(-1.0, 1.0)
        omega = 10.0 ** rng.uniform(0.0, 2.0)
        p = EvolutionParams(a, b, omega, theta)
        horizon = rng.uniform(0.1, 5.0)
        want = closed_form_rho(p, horizon)
        got = evolve_ode(p, horizon, rtol=1e-12).states[-1]
        worst = max(worst, trace_distance(want, got))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9, f"worst trace distance {worst:.3e}"
    assert elapsed < 30.0, f"took {elapsed:.1f} s"


def test_c02_path_functional_and_quasi_cycle_match_exact_integral():
    """In the slow-relaxation regime all three phase engines agree."""
    rng = np.random.default_rng(19104)
    t0 = time.perf_counter()
    for _ in range(30):
        n = int(rng.integers(3, 61))
        theta = rng.uniform(0.15, math.pi - 0.15)
        omega = 1.0
        per_cycle = 10.0 ** rng.uniform(-7.0, -3.1)
        a = per_cycle * omega / (math.pi * n)
        b = a * rng.uniform(-1.0, 1.0)
        p = EvolutionParams(a, b, omega, theta)
        horizon = math.tau * n / omega
        exact = gp_exact_integral(p, horizon, n_cycles=n)
        tong = gp_tong_closed_form(p, horizon)
        quasi = gp_quasi_cycle(p, n)
        assert quasi.diagnostics["pi_n_a_over_omega0"] < 1e-3
        assert abs(tong.total - exact.total) <= 1e-6 * abs(exact.total)
        budget = 10.0 * per_cycle * n + 1e-9
        assert abs(quasi.total - exact.total) <= budget * abs(exact.total)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_c03_all_engines_reduce_to_unitary_limit():
    """With both decay channels off every engine returns -pi*n*(1-cos(theta)),
    which the quasi-cycle engine forms as -2*pi*n*sin(theta/2)**2."""
    n = 7
    omega = 2.5
    horizon = math.tau * n / omega
    for theta in (0.0, 0.3, math.pi / 2.0, 2.2, math.pi):
        want = -math.pi * n * (1.0 - math.cos(theta))
        p = EvolutionParams(0.0, 0.0, omega, theta)
        assert gp_quasi_cycle(p, n).total == -(math.tau * n) * math.sin(theta / 2.0) ** 2
        assert gp_quasi_cycle(p, n).total == pytest.approx(want, rel=4e-15, abs=0)
        got = gp_exact_integral(p, horizon, n_cycles=n).total
        assert got == pytest.approx(want, abs=1e-9 * max(1.0, abs(want)))
    for theta in (0.0, 0.3, math.pi / 2.0, 2.2):
        want = -math.pi * n * (1.0 - math.cos(theta))
        p = EvolutionParams(0.0, 0.0, omega, theta)
        got = gp_tong_closed_form(p, horizon).total
        assert got == pytest.approx(want, abs=1e-9 * max(1.0, abs(want)))
    # At theta = pi the state sits on the dark pole, the azimuth never
    # advances, and the path functional reports the principal branch:
    # 0 instead of -2*pi*n (the same phase modulo 2*pi).
    p = EvolutionParams(0.0, 0.0, omega, math.pi)
    res = gp_tong_closed_form(p, horizon)
    assert res.principal_value == pytest.approx(0.0, abs=1e-9)


def _regime_gap(name: str, radius: float, n: int) -> float:
    """|specialized - general| phase gap with the cavity retuned per radius."""
    scn = preset(name)
    traj = replace(scn.trajectory, radius=radius)
    kin = derive_kinematics(traj, scn.atom)
    anchor = kin.omega_plus if name == "case1" else kin.obar_plus
    cavity = replace(scn.cavity, omega_c=anchor)
    if name == "case1":
        specialized = gp_case1(traj, scn.atom, cavity, n)
    else:
        specialized = gp_case2(traj, scn.atom, cavity, n)
    general = gp_split(
        general_rates(traj, scn.atom, cavity), n, scn.atom.theta0, scn.atom.omega0
    )
    # both engines share the unitary term exactly; compare the open-system
    # piece, which the totals would swamp in double precision
    return abs(specialized.nonunitary_part - general.nonunitary_part)


def test_c04_regime_expansions_converge_quadratically():
    """Halving the orbit radius shrinks the case-vs-general gap >= 4x."""
    for name, radius0 in (("case1", 6e-4), ("case2", 30.0)):
        gaps = [_regime_gap(name, radius0 / 2.0**k, 1000) for k in range(3)]
        assert gaps[0] > gaps[1] > gaps[2] > 0.0, (name, gaps)
        assert gaps[0] / gaps[1] >= 3.9, (name, gaps)
        assert gaps[1] / gaps[2] >= 3.9, (name, gaps)


def test_c05_fast_orbit_preset_phase_budget():
    """Fast-orbit preset at n=1e5: tiny inertial piece, dominant orbit piece."""
    scn = preset("case1")
    t0 = time.perf_counter()
    res = gp_case1(scn.trajectory, scn.atom, scn.cavity, 100_000)
    elapsed = time.perf_counter() - t0
    phi_in = res.inertial_part
    phi_ni = res.noninertial_part
    assert 1e-7 <= abs(phi_ni) <= 1e-5
    assert 1e-14 <= abs(phi_in) <= 1e-12
    assert abs(phi_ni / phi_in) > 1e5
    assert res.unitary_part == pytest.approx(-314159.26535897923, rel=1e-12)
    assert phi_ni == pytest.approx(-1.0090243986618031e-06, rel=1e-9)
    assert phi_in == pytest.approx(-1.6154304642574283e-13, rel=1e-9)
    assert abs(phi_ni / phi_in) == pytest.approx(6246164.232922434, rel=1e-9)
    assert elapsed < 5.0, f"took {elapsed:.1f} s"


def test_c06_slow_orbit_preset_phase_budget():
    """Slow-orbit preset at n=1e7: comparable pieces at 1e7 m/s^2."""
    scn = preset("case2")
    kin = derive_kinematics(scn.trajectory, scn.atom)
    assert kin.acceleration == 1.0e7
    t0 = time.perf_counter()
    res = gp_case2(scn.trajectory, scn.atom, scn.cavity, 10_000_000)
    elapsed = time.perf_counter() - t0
    phi_in = res.inertial_part
    phi_ni = res.noninertial_part
    ratio = abs(phi_ni / phi_in)
    assert 0.1 <= ratio <= 10.0
    assert 1e-7 <= abs(phi_ni) <= 1e-5
    assert phi_ni == pytest.approx(-1.8301011868157862e-06, rel=1e-9)
    assert phi_in == pytest.approx(-8.141640562630784e-07, rel=1e-9)
    assert ratio == pytest.approx(2.2478285214600913, rel=1e-9)
    assert res.nonunitary_part == pytest.approx(-2.6442652430788648e-06, rel=1e-9)
    assert elapsed < 5.0, f"took {elapsed:.1f} s"


def test_c07_per_cycle_correction_scale():
    """The per-cycle validity measure sits at the expected magnitude."""
    scn1 = preset("case1")
    res1 = gp_case1(scn1.trajectory, scn1.atom, scn1.cavity, 100_000)
    per1 = res1.diagnostics["pi_n_a_over_omega0"] / 100_000.0
    assert 1e-18 <= per1 <= 1e-14
    assert per1 == pytest.approx(8.029562332923288e-18, rel=1e-12)

    scn2 = preset("case2")
    res2 = gp_case2(scn2.trajectory, scn2.atom, scn2.cavity, 10_000_000)
    per2 = res2.diagnostics["pi_n_a_over_omega0"] / 10_000_000.0
    assert 1e-23 <= per2 <= 1e-19
    assert per2 == pytest.approx(2.104239421410468e-21, rel=1e-12)


def _peak_index(table, column: str) -> int:
    j = table.columns.index(column)
    values = [row[j] for row in table.rows]
    return values.index(max(values))


def _anchor_index(table, frequency: float) -> int:
    freqs = [row[0] for row in table.rows]
    return freqs.index(frequency)


def test_c08_sweep_peaks_sit_on_the_predicted_resonances():
    """Rate-vs-cavity sweeps peak where the sideband analysis says."""
    scn1 = preset("case1")
    kin1 = derive_kinematics(scn1.trajectory, scn1.atom)
    table1 = sweep_cavity(scn1)
    i_peak = _peak_index(table1, "gamma_down_noninertial_per_s")
    assert abs(i_peak - _anchor_index(table1, kin1.omega_plus)) <= 1

    scn2 = preset("case2")
    kin2 = derive_kinematics(scn2.trajectory, scn2.atom)
    table2 = sweep_cavity(scn2)
    i_ni = _peak_index(table2, "gamma_down_noninertial_per_s")
    i_in = _peak_index(table2, "gamma_down_inertial_per_s")
    assert abs(i_ni - _anchor_index(table2, kin2.obar_plus)) <= 1
    assert abs(i_in - _anchor_index(table2, scn2.atom.omega0)) <= 1
    assert i_ni != i_in


def test_c09_randomized_physicality_sweep():
    """No negative rates and no indefinite Kossakowski matrix, ever."""
    rng = np.random.default_rng(42)
    violations = []
    for k in range(200):
        omega = 10.0 ** rng.uniform(3.0, 9.0)
        # keep the orbit comfortably subluminal: zeta <= 1e-5
        radius = rng.uniform(0.05, 0.999) * math.sqrt(1e-5) * SPEED_OF_LIGHT / omega
        atom = AtomParams(
            omega0=10.0 ** rng.uniform(5.0, 10.0),
            dipole=10.0 ** rng.uniform(-31.0, -28.0),
            theta0=rng.uniform(0.0, math.pi),
        )
        traj = TrajectoryParams(radius, omega)
        cavity = CavitySpec(
            omega_c=10.0 ** rng.uniform(4.0, 10.0),
            q_factor=10.0 ** rng.uniform(1.0, 6.0),
            volume=10.0 ** rng.uniform(-9.0, -1.0),
        )
        lab = lab_rates_general(traj, atom, cavity)
        com = general_rates(traj, atom, cavity)
        for rs in (lab, com):
            if rs.gamma_down < 0.0 or rs.gamma_up < 0.0:
                violations.append((k, "negative rate"))
            if rs.a_coeff < abs(rs.b_coeff):
                violations.append((k, "a < |b|"))
            eigs = np.linalg.eigvalsh(kossakowski(rs.a_coeff, rs.b_coeff))
            if eigs.min() < -1e-16 * max(rs.a_coeff, 1e-300):
                violations.append((k, "indefinite kossakowski"))
        if dos(cavity, rng.uniform(-1.0, 3.0) * cavity.omega_c) < 0.0:
            violations.append((k, "negative mode density"))
    assert violations == []

    # the noninertial column is a rotating-minus-static difference and may
    # legitimately dip negative near the static resonance; the physical
    # rates themselves must stay nonnegative and the split must add up
    for name in ("case1", "case2"):
        table = sweep_cavity(preset(name))
        j_tot = table.columns.index("gamma_down_total_per_s")
        j_in = table.columns.index("gamma_down_inertial_per_s")
        j_ni = table.columns.index("gamma_down_noninertial_per_s")
        j_up = table.columns.index("gamma_up_per_s")
        for row in table.rows:
            assert row[j_tot] >= 0.0 and row[j_in] >= 0.0 and row[j_up] >= 0.0
            assert row[j_in] + row[j_ni] == pytest.approx(row[j_tot], rel=1e-12)


def test_c10_figure_outputs_are_byte_reproducible(tmp_path):
    """Two independent figure builds produce identical files."""
    first = figure1(tmp_path / "run1", points=16)
    second = figure1(tmp_path / "run2", points=16)
    assert [p.name for p in first] == [p.name for p in second]
    for p1, p2 in zip(first, second):
        assert p1.read_bytes() == p2.read_bytes(), p1.name


# c11 to c14 read the report of tests/module_sets.py, which runs every
# command of its LOAD_STEPS in one fresh ``python -S`` interpreter (the
# ``module_report`` fixture of conftest.py)


def test_c11_import_needs_numpy_only(module_report):
    """A fresh ``import rotodyne`` loads no scipy module."""
    report, _ = module_report
    assert "scipy" not in report["imported"], report["imported"]


def test_c12_table_and_figure_commands_load_no_unused_modules(module_report):
    """The table and figure commands (module_sets.TABLE_COMMANDS, among
    them ``figure1``, ``sweep-cavity --plot`` and ``gp-vs-n`` written to a
    directory) exit 0 and load nothing under ``numpy.ma`` and none of
    module_sets.UNUSED: the stdlib network, e-mail and TLS stack, which
    ``xml.sax.saxutils`` imports through ``urllib.request``."""
    report, _ = module_report
    ran = 0
    for (_, argvs, absent), (codes, loaded) in zip(LOAD_STEPS, report["runs"]):
        tables = [code for argv, code in zip(argvs, codes) if argv in TABLE_COMMANDS]
        if tables:
            ran += len(tables)
            assert tables == [0] * len(tables) and set(UNUSED) <= set(absent), argvs
            assert set(loaded).isdisjoint(UNUSED), loaded
    assert ran == len(TABLE_COMMANDS)


def test_c13_commands_load_no_numpy(module_report):
    """``import rotodyne``, the scalar commands (``presets``, ``rates``,
    ``gp`` with every engine on both presets, at the default n and at
    n = 1000, and bad input) and the table and figure commands of
    TABLE_COMMANDS in a fresh interpreter load no numpy module, though
    numpy is on its path: it is imported only where arrays are taken, or
    where a grid is large enough that one array call pays for the import.
    The numeric engines' runs at PANEL_CYCLES take the kernel's panels."""
    argvs = [argv for _, step, _ in LOAD_STEPS for argv in step]
    for name in ("case1", "case2"):
        for engine in rotodyne.ENGINES:
            assert ["gp", "--scenario", name, "--engine", engine] in argvs
            assert ["gp", "--scenario", name, "--engine", engine, "-n", "1000"] in argvs
    for engine in PANEL_ENGINES:
        assert ["gp", "--scenario", "case2", "--engine", engine, "-n", str(PANEL_CYCLES)] in argvs
        assert scenario_gp(preset("case2"), PANEL_CYCLES, engine).diagnostics["panels"] > 0
    assert all(set(NUMPY) <= set(absent) for *_, absent in LOAD_STEPS)
    report, _ = module_report
    assert [codes for codes, _ in report["runs"]] == [[c] * len(s) for c, s, _ in LOAD_STEPS]
    loaded = [m for _, step in report["runs"] for m in step if m in NUMPY]
    assert [*report["imported"], *loaded] == []


def test_c13_table_commands_write_the_bytes_of_a_numpy_run(module_report, tmp_path):
    """Each table and figure command of the fresh, numpy-free interpreter
    wrote the stdout and the files that the same command writes in this
    process, where numpy is loaded and the sweeps take the array path."""
    assert "numpy" in sys.modules
    report, fresh_out = module_report
    out = tmp_path / "numpy"
    for argv in TABLE_COMMANDS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main([arg.format(out=out) for arg in argv]) == 0
        stdout = report["stdout"][" ".join(argv)]
        assert stdout.replace(str(fresh_out), str(out)) == buf.getvalue(), argv

    def written(root):
        return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    want, got = written(out), written(fresh_out)
    del got[Path(CONFIG).name]  # the scenario of the --config runs
    # sweep, sweep2 and gp_vs_n: a table and a panel each; figure1: 8; grid
    # and gp_vs_n_table: a table each
    assert len(want) == 2 + 2 + 2 + 8 + 1 + 1 and got == want


def test_c14_each_command_loads_only_the_layers_it_calls(module_report):
    """In one fresh interpreter started with ``-S``, so that no ``.pth``
    file loads a module first, ``import rotodyne`` loads no layer; bad
    input (``--plot`` without ``--out`` among it) and the scalar commands
    load neither the table module ``scenarios`` nor ``svgplot`` nor
    ``geophase``, the kernel ``_kernel`` or ``dynamics``, nor ``json``; a
    sweep loads no phase engine; a table without ``--plot`` loads no
    ``svgplot``; the quasi-cycle engines and the phase tables load neither
    ``_kernel`` nor ``dynamics``, which ``tong`` loads; no command loads
    ``dataclasses``, ``inspect``, ``typing``, ``csv`` or ``numbers``.
    ``tests/module_sets.py`` runs the commands in the order of its
    LOAD_STEPS and reads the modules after each step; this is its whole
    verdict, and a failing step names the package modules loaded after it."""
    report, _ = module_report
    found = problems(report)
    assert not found, "\n".join(found)
