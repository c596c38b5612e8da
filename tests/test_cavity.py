"""Lorentzian mode density: shape, normalization, analytic derivative."""

import math

import numpy as np
import pytest

from rotodyne import CavitySpec, dos, dos_derivative


@pytest.fixture
def cavity():
    return CavitySpec(omega_c=1.0e7, q_factor=1.0e7, volume=1.0e-6)


class TestShape:
    def test_nonnegative_everywhere(self, cavity):
        grid = np.geomspace(1.0, 1.0e14, 400)
        assert all(dos(cavity, w) >= 0.0 for w in grid)

    def test_peak_value_and_location(self, cavity):
        peak = dos(cavity, cavity.omega_c)
        assert peak == pytest.approx(cavity.q_factor / cavity.omega_c, rel=1e-14)
        grid = np.geomspace(cavity.omega_c / 100, cavity.omega_c * 100, 1001)
        assert all(dos(cavity, w) <= peak for w in grid)

    def test_half_maximum_at_linewidth(self, cavity):
        # half width omega_c / Q on either side of resonance
        hw = cavity.omega_c / cavity.q_factor
        peak = dos(cavity, cavity.omega_c)
        assert dos(cavity, cavity.omega_c + hw) == pytest.approx(peak / 2, rel=1e-12)
        assert dos(cavity, cavity.omega_c - hw) == pytest.approx(peak / 2, rel=1e-12)

    def test_far_detuned_example(self):
        detuned = CavitySpec(omega_c=1.01e7, q_factor=1.0e7, volume=1.0e-3)
        assert dos(detuned, 1.0e7) == pytest.approx(1.01e-10, rel=1e-4)

    def test_unphysical_frequencies_carry_no_modes(self, cavity):
        assert dos(cavity, 0.0) == 0.0
        assert dos(cavity, -5.0e6) == 0.0


class TestDerivative:
    def test_matches_central_difference_over_six_decades(self):
        cav = CavitySpec(omega_c=1.0e7, q_factor=1.0e4, volume=1.0e-6)
        scale = cav.q_factor**2 / cav.omega_c**2  # peak slope magnitude order
        for w in np.geomspace(cav.omega_c / 1e3, cav.omega_c * 1e3, 41):
            h = 1e-8 * (abs(w - cav.omega_c) + cav.omega_c)
            fd = (dos(cav, w + h) - dos(cav, w - h)) / (2.0 * h)
            assert dos_derivative(cav, w) == pytest.approx(fd, rel=1e-6, abs=1e-9 * scale)

    def test_vanishes_at_resonance(self, cavity):
        assert dos_derivative(cavity, cavity.omega_c) == 0.0

    def test_antisymmetric_about_resonance(self, cavity):
        delta = 3.0 * cavity.omega_c / cavity.q_factor
        up = dos_derivative(cavity, cavity.omega_c + delta)
        down = dos_derivative(cavity, cavity.omega_c - delta)
        assert up == pytest.approx(-down, rel=1e-12)
        assert up < 0.0  # falling past the peak

    def test_requires_positive_frequency(self, cavity):
        with pytest.raises(ValueError):
            dos_derivative(cavity, 0.0)
        with pytest.raises(ValueError):
            dos_derivative(cavity, -1.0)


class TestArrayForm:
    def test_scalar_and_array_frequency_agree_bit_for_bit(self):
        # seeded draws from on-resonance to a full line away; an exact
        # square of the detuning would differ from the scalar call's pow
        rng = np.random.default_rng(2000)
        for _ in range(2000):
            cav = CavitySpec(
                omega_c=10.0 ** rng.uniform(5.0, 11.0),
                q_factor=10.0 ** rng.uniform(2.0, 8.0),
                volume=1.0e-6,
            )
            w = cav.omega_c * (1.0 + rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-9.0, 0.0))
            assert type(dos(cav, w)) is float
            assert dos(cav, w) == dos(cav, np.array([w]))[0]
            assert dos_derivative(cav, w) == dos_derivative(cav, np.array([w]))[0]

    def test_array_of_centers_matches_scalar_centers(self):
        rng = np.random.default_rng(2001)
        w = 1.0e7
        centers = w * (1.0 + rng.uniform(-1.0, 1.0, 2000) * 10.0 ** rng.uniform(-9.0, 0.0, 2000))
        sweep = CavitySpec(omega_c=centers, q_factor=1.0e6, volume=1.0e-6)
        values, slopes = dos(sweep, w), dos_derivative(sweep, w)
        assert values.shape == slopes.shape == centers.shape
        for center, value, slope in zip(centers.tolist(), values, slopes):
            cav = CavitySpec(omega_c=center, q_factor=1.0e6, volume=1.0e-6)
            assert (value, slope) == (dos(cav, w), dos_derivative(cav, w))


class TestValidation:
    def test_spec_fields_must_be_positive(self):
        with pytest.raises(ValueError):
            CavitySpec(omega_c=0.0, q_factor=1.0e7, volume=1.0e-6)
        with pytest.raises(ValueError):
            CavitySpec(omega_c=1.0e7, q_factor=0.0, volume=1.0e-6)
        with pytest.raises(ValueError):
            CavitySpec(omega_c=1.0e7, q_factor=1.0e7, volume=0.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_every_field_and_center_must_be_positive_and_finite(self, bad):
        for fields in (
            dict(omega_c=bad, q_factor=1.0e7, volume=1.0e-6),
            dict(omega_c=np.array([1.0e7, bad]), q_factor=1.0e7, volume=1.0e-6),
            dict(omega_c=1.0e7, q_factor=bad, volume=1.0e-6),
            dict(omega_c=1.0e7, q_factor=1.0e7, volume=bad),
        ):
            with pytest.raises(ValueError, match="positive and finite"):
                CavitySpec(**fields)

    def test_centers_must_be_one_dimensional(self):
        with pytest.raises(ValueError):
            CavitySpec(omega_c=np.full((2, 2), 1.0e7), q_factor=1.0e7, volume=1.0e-6)
        with pytest.raises(ValueError):
            CavitySpec(omega_c=1.0e7, q_factor=np.array([1.0e7]), volume=1.0e-6)
