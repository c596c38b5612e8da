"""Orbit kinematics: redshift, recoil factor, sideband frequencies."""

import math
import random

import pytest

from rotodyne import (
    DEFAULT_DIPOLE,
    SPEED_OF_LIGHT,
    AtomParams,
    TrajectoryParams,
    derive_kinematics,
    zeta_of,
)


# every random-input loop below draws from random.Random(SEED); a failing
# case reports SEED, its index in the loop and its inputs
SEED = 20261019


def atom(omega0=1.0e7, theta0=math.pi / 2):
    return AtomParams(omega0=omega0, dipole=DEFAULT_DIPOLE, theta0=theta0)


def kin_of(radius, omega, omega0=1.0e7):
    return derive_kinematics(TrajectoryParams(radius=radius, omega=omega), atom(omega0))


class TestRedshift:
    def test_redshifted_gap_inverts_through_gamma(self):
        kin = kin_of(1.0e-6, 5.0e9)
        assert kin.omega0_bar * kin.lorentz_gamma == pytest.approx(1.0e7, rel=1e-15)

    def test_gap_is_redshifted_not_blueshifted(self):
        kin = kin_of(1.0e-6, 5.0e9)
        assert kin.omega0_bar < 1.0e7
        assert kin.lorentz_gamma > 1.0

    def test_redshift_monotone_in_rim_speed(self):
        gaps = [kin_of(1.0e-3, om).omega0_bar for om in (1e5, 1e7, 1e9, 1e10)]
        assert gaps == sorted(gaps, reverse=True)

    def test_static_orbit_keeps_everything_inertial(self):
        kin = kin_of(1.0e-6, 0.0)
        assert kin.zeta == 0.0
        assert kin.lorentz_gamma == 1.0
        assert kin.omega0_bar == 1.0e7  # bit-exact: no boost at all
        assert kin.acceleration == 0.0


class TestRecoilFactor:
    def test_roundtrip_against_lorentz_gamma(self):
        # v = omega * R fixed by beta; zeta must equal beta^2 and 1 - 1/gamma^2.
        # beta at both ends of its range, then 60 seeded uniform draws
        radius = 0.5
        rng = random.Random(SEED)
        betas = [0.35, 0.995] + [rng.uniform(0.35, 0.995) for _ in range(60)]
        for index, beta in enumerate(betas):
            omega = beta * SPEED_OF_LIGHT / radius
            kin = kin_of(radius, omega)
            assert kin.zeta == pytest.approx(beta * beta, rel=1e-14), (SEED, index, beta)
            gap = 1.0 - 1.0 / kin.lorentz_gamma**2
            assert gap == pytest.approx(kin.zeta, rel=1e-14), (SEED, index, beta)

    def test_zeta_of_matches_orbit_zeta(self):
        kin = kin_of(1.0e-3, 1.0e5)
        assert zeta_of(1.0e5, 1.0e-3) == kin.zeta

    def test_zeta_of_scales_quadratically(self):
        assert zeta_of(2.0e5, 1.0e-3) == pytest.approx(4.0 * zeta_of(1.0e5, 1.0e-3), rel=1e-15)

    def test_known_values(self):
        assert kin_of(1.0e-6, 5.0e9).zeta == pytest.approx(2.781625140134046e-10, rel=1e-12)
        assert kin_of(1.0e-3, 1.0e5).zeta == pytest.approx(1.1126500560536184e-13, rel=1e-12)


class TestSidebands:
    def test_lab_sidebands_straddle_rotation_frequency(self):
        traj = TrajectoryParams(radius=1.0e-6, omega=5.0e9)
        kin = derive_kinematics(traj, atom())
        assert kin.omega_plus == traj.omega + kin.omega0_bar
        assert kin.omega_minus == traj.omega - kin.omega0_bar

    def test_comoving_sidebands_straddle_redshifted_gap(self):
        traj = TrajectoryParams(radius=1.0e-3, omega=1.0e5)
        kin = derive_kinematics(traj, atom())
        assert kin.obar_plus == kin.omega0_bar + traj.omega
        assert kin.obar_minus == kin.omega0_bar - traj.omega

    def test_slow_rotation_keeps_lower_sideband_positive(self):
        assert kin_of(1.0e-3, 1.0e5).obar_minus > 0.0

    def test_fast_rotation_pushes_lower_sideband_negative(self):
        assert kin_of(1.0e-6, 5.0e9).obar_minus < 0.0


class TestAcceleration:
    def test_centripetal_value_slow_orbit(self):
        # omega^2 R at these parameters lands on the float exactly
        assert kin_of(1.0e-3, 1.0e5).acceleration == 1.0e7

    def test_centripetal_value_fast_orbit(self):
        kin = kin_of(1.0e-6, 5.0e9)
        assert kin.acceleration == pytest.approx((5.0e9) ** 2 * 1.0e-6, rel=1e-15)

    def test_finite_value_whose_rotation_square_overflows(self):
        # omega**2 is past the float range, omega**2 R is not
        assert kin_of(1.0e-300, 1.0e200).acceleration == pytest.approx(1.0e100, rel=1e-15)


class TestZetaRange:
    def test_zeta_past_the_float_range_raises(self):
        with pytest.raises(ValueError, match="frequency = 1e\\+300 rad/s and radius = 1e-06 m"):
            zeta_of(1.0e300, 1.0e-6)

    def test_largest_finite_zeta_is_returned(self):
        assert zeta_of(1.0e154, SPEED_OF_LIGHT) == pytest.approx(1.0e308, rel=1e-15)


class TestValidation:
    def test_superluminal_rim_rejected(self):
        with pytest.raises(ValueError):
            derive_kinematics(TrajectoryParams(radius=1.0, omega=3.0e8), atom())

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            TrajectoryParams(radius=-1.0, omega=1.0e5)

    def test_negative_rotation_rejected(self):
        with pytest.raises(ValueError):
            TrajectoryParams(radius=1.0, omega=-1.0e5)

    def test_atom_validation(self):
        with pytest.raises(ValueError):
            AtomParams(omega0=0.0, dipole=DEFAULT_DIPOLE, theta0=1.0)
        with pytest.raises(ValueError):
            AtomParams(omega0=1.0e7, dipole=0.0, theta0=1.0)
        with pytest.raises(ValueError):
            AtomParams(omega0=1.0e7, dipole=DEFAULT_DIPOLE, theta0=4.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_fields_rejected(self, bad):
        for make in (
            lambda: AtomParams(omega0=bad, dipole=DEFAULT_DIPOLE, theta0=1.0),
            lambda: AtomParams(omega0=1.0e7, dipole=bad, theta0=1.0),
            lambda: AtomParams(omega0=1.0e7, dipole=DEFAULT_DIPOLE, theta0=bad),
            lambda: TrajectoryParams(radius=bad, omega=1.0e5),
            lambda: TrajectoryParams(radius=0.0, omega=bad),
            lambda: TrajectoryParams(radius=1.0e-3, omega=1.0e5, center=(0.0, bad)),
        ):
            with pytest.raises(ValueError):
                make()
