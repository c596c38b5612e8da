"""Rate engines: general resonance evaluation, regime expansions, splits."""

import math

import numpy as np
import pytest

from rotodyne import (
    DEFAULT_DIPOLE,
    AtomParams,
    CavitySpec,
    TrajectoryParams,
    case1_rates,
    case2_rates,
    comoving_rates,
    derive_kinematics,
    dos,
    general_rates,
    kossakowski,
    lab_rates_general,
    noninertial_split,
    vacuum_coupling,
    zeta_of,
)

FAST = dict(
    traj=TrajectoryParams(radius=1.0e-6, omega=5.0e9),
    atom=AtomParams(omega0=1.0e7, dipole=DEFAULT_DIPOLE, theta0=math.pi / 2),
    cavity=CavitySpec(omega_c=5.01e9, q_factor=1.0e7, volume=1.0e-7),
)
SLOW = dict(
    traj=TrajectoryParams(radius=1.0e-3, omega=1.0e5),
    atom=AtomParams(omega0=1.0e7, dipole=DEFAULT_DIPOLE, theta0=math.pi / 2),
    cavity=CavitySpec(omega_c=1.01e7, q_factor=1.0e7, volume=1.0e-3),
)


class TestCoefficients:
    def test_dissipator_coefficients_are_quarter_sums(self):
        rs = lab_rates_general(**SLOW)
        assert rs.a_coeff == (rs.gamma_down + rs.gamma_up) / 4.0
        assert rs.b_coeff == (rs.gamma_down - rs.gamma_up) / 4.0
        assert rs.a_coeff >= abs(rs.b_coeff)

    def test_asymmetry_ratio(self):
        rs = lab_rates_general(**FAST)
        assert rs.ratio == rs.b_coeff / rs.a_coeff

    def test_kossakowski_structure(self):
        mat = kossakowski(1.0, 1.0)
        eigs = sorted(np.linalg.eigvalsh(mat))
        assert eigs == pytest.approx([0.0, 0.0, 2.0], abs=1e-14)

    def test_kossakowski_generic_spectrum(self):
        a, b = 0.9, 0.4
        eigs = sorted(np.linalg.eigvalsh(kossakowski(a, b)))
        assert eigs == pytest.approx([0.0, a - b, a + b], abs=1e-14)

    def test_kossakowski_rejects_indefinite_input(self):
        with pytest.raises(ValueError):
            kossakowski(1.0, 1.5)


class TestVacuumCoupling:
    def test_scales_with_dipole_squared(self):
        a1 = AtomParams(omega0=1.0e7, dipole=1.0e-30, theta0=1.0)
        a2 = AtomParams(omega0=1.0e7, dipole=2.0e-30, theta0=1.0)
        cav = SLOW["cavity"]
        assert vacuum_coupling(a2, cav) == pytest.approx(4.0 * vacuum_coupling(a1, cav), rel=1e-15)

    def test_scales_inversely_with_volume(self):
        atom = SLOW["atom"]
        c1 = CavitySpec(omega_c=1.0e7, q_factor=1.0e7, volume=1.0e-6)
        c2 = CavitySpec(omega_c=1.0e7, q_factor=1.0e7, volume=1.0e-3)
        assert vacuum_coupling(atom, c1) == pytest.approx(1.0e3 * vacuum_coupling(atom, c2), rel=1e-15)

    def test_known_values(self):
        assert vacuum_coupling(FAST["atom"], FAST["cavity"]) == pytest.approx(8.16753127397255e-08, rel=1e-12)
        assert vacuum_coupling(SLOW["atom"], SLOW["cavity"]) == pytest.approx(8.167531273972548e-12, rel=1e-12)


class TestStaticLimit:
    def test_static_downward_rate_is_recoil_corrected_carrier(self):
        # closed form against closed form: same expression, bit-exact
        traj = TrajectoryParams(radius=1.0e-3, omega=0.0)
        atom, cavity = SLOW["atom"], SLOW["cavity"]
        rs = lab_rates_general(traj, atom, cavity)
        eta = vacuum_coupling(atom, cavity)
        carrier = (1.0 - 0.4 * zeta_of(atom.omega0, traj.radius)) * dos(cavity, atom.omega0) * atom.omega0
        assert rs.gamma_down == eta * carrier
        assert rs.gamma_up == 0.0

    def test_static_gap_is_not_redshifted(self):
        traj = TrajectoryParams(radius=1.0e-3, omega=0.0)
        kin = derive_kinematics(traj, SLOW["atom"])
        assert kin.omega0_bar == SLOW["atom"].omega0

    def test_point_orbit_has_no_recoil(self):
        # R = 0: zeta vanishes, both sidebands sit on the carrier with zero weight
        traj = TrajectoryParams(radius=0.0, omega=5.0e9)
        atom, cavity = SLOW["atom"], SLOW["cavity"]
        rs = lab_rates_general(traj, atom, cavity)
        eta = vacuum_coupling(atom, cavity)
        assert rs.gamma_down == pytest.approx(eta * dos(cavity, atom.omega0) * atom.omega0, rel=1e-15)
        assert rs.gamma_up == 0.0
        assert rs.a_coeff == rs.b_coeff


class TestFrameTransport:
    def test_comoving_rates_scale_by_lorentz_gamma(self):
        lab = lab_rates_general(**FAST)
        kin = derive_kinematics(FAST["traj"], FAST["atom"])
        com = comoving_rates(lab, kin)
        assert com.frame == "comoving"
        assert com.gamma_down == kin.lorentz_gamma * lab.gamma_down
        assert com.gamma_up == kin.lorentz_gamma * lab.gamma_up

    def test_double_transport_rejected(self):
        lab = lab_rates_general(**FAST)
        kin = derive_kinematics(FAST["traj"], FAST["atom"])
        with pytest.raises(ValueError):
            comoving_rates(comoving_rates(lab, kin), kin)


class TestSplit:
    def test_general_split_reference_is_static_carrier(self):
        rs = general_rates(**SLOW)
        eta = vacuum_coupling(SLOW["atom"], SLOW["cavity"])
        assert rs.gamma_down_inertial == eta * dos(SLOW["cavity"], 1.0e7) * 1.0e7
        assert rs.gamma_down_inertial + rs.gamma_down_ni == pytest.approx(rs.gamma_down, rel=1e-15)
        assert rs.gamma_up_ni == rs.gamma_up

    def test_case_engines_split_additively(self):
        for rs in (case1_rates(**FAST), case2_rates(**SLOW)):
            assert rs.gamma_down_inertial + rs.gamma_down_ni == pytest.approx(rs.gamma_down, rel=1e-14)
            assert rs.gamma_down_inertial >= 0.0

    def test_noninertial_split_subtracts_channelwise(self):
        traj0 = TrajectoryParams(radius=SLOW["traj"].radius, omega=0.0)
        at_omega = lab_rates_general(**SLOW)
        at_zero = lab_rates_general(traj0, SLOW["atom"], SLOW["cavity"])
        split = noninertial_split(at_omega, at_zero)
        assert split.gamma_down_inertial == at_zero.gamma_down
        assert split.gamma_down_ni == at_omega.gamma_down - at_zero.gamma_down
        assert split.gamma_up_ni == at_omega.gamma_up - at_zero.gamma_up

    def test_split_rejects_family_mismatch(self):
        with pytest.raises(ValueError):
            noninertial_split(case2_rates(**SLOW), case1_rates(**SLOW))

    def test_split_rejects_coupling_mismatch(self):
        other_cavity = CavitySpec(omega_c=1.01e7, q_factor=1.0e7, volume=2.0e-3)
        with pytest.raises(ValueError):
            noninertial_split(
                lab_rates_general(**SLOW),
                lab_rates_general(SLOW["traj"], SLOW["atom"], other_cavity),
            )


class TestArrayCavity:
    def test_array_of_centers_matches_scalar_calls(self):
        from dataclasses import fields, replace

        engines = (lab_rates_general, general_rates, case1_rates, case2_rates)
        for params in (FAST, SLOW):
            centers = params["cavity"].omega_c * np.geomspace(0.5, 2.0, 41)
            sweep = replace(params["cavity"], omega_c=centers)
            for engine in engines:
                swept = engine(params["traj"], params["atom"], sweep)
                for i, center in enumerate(centers.tolist()):
                    point = engine(params["traj"], params["atom"], replace(sweep, omega_c=center))
                    for f in fields(point):
                        want, got = getattr(point, f.name), getattr(swept, f.name)
                        if isinstance(want, float):
                            assert type(want) is float
                            assert np.broadcast_to(got, centers.shape)[i] == want, f.name
                        else:
                            assert got == want, f.name


class TestRegimes:
    def test_fast_rotation_is_sideband_dominated(self):
        rs = case1_rates(**FAST)
        assert rs.gamma_down_ni / rs.gamma_down_inertial > 1.0e6

    def test_slow_rotation_keeps_comparable_contributions(self):
        rs = case2_rates(**SLOW)
        assert 0.1 <= rs.gamma_down_inertial / rs.gamma_down_ni <= 10.0

    def test_known_rate_values(self):
        rs1 = case1_rates(**FAST)
        assert rs1.gamma_down == pytest.approx(1.0223556282804161e-10, rel=1e-9)
        assert rs1.gamma_down_inertial == pytest.approx(1.6367732673045388e-17, rel=1e-9)
        assert rs1.gamma_up == pytest.approx(6.389696092650071e-20, rel=1e-9)
        rs2 = case2_rates(**SLOW)
        assert rs2.gamma_down == pytest.approx(2.6792008429304463e-14, rel=1e-9)
        assert rs2.gamma_down_inertial == pytest.approx(8.2492065859622e-15, rel=1e-9)
        assert rs2.gamma_up == 0.0

    def test_expansions_track_general_engine(self):
        # truncation is first order in the regime ratio (here 2e-3 / 1e-2)
        rel1 = abs(case1_rates(**FAST).gamma_down - general_rates(**FAST).gamma_down)
        rel1 /= general_rates(**FAST).gamma_down
        rel2 = abs(case2_rates(**SLOW).gamma_down - general_rates(**SLOW).gamma_down)
        rel2 /= general_rates(**SLOW).gamma_down
        assert rel1 < 1e-2
        assert rel2 < 1e-1

    def test_out_of_regime_warns_without_raising(self):
        wrong = case1_rates(SLOW["traj"], SLOW["atom"], SLOW["cavity"])
        assert wrong.warnings
        assert wrong.validity != "ok"
        right = case1_rates(**FAST)
        assert right.validity == "ok"
