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

    def test_float_path_equals_array_path_bit_for_bit(self):
        # seeded draws over in-range and overflowing centers, with resonant,
        # far-detuned and (for dos only) non-positive frequencies; one array
        # call per quality factor against one float call per draw, signs too
        rng = np.random.default_rng(2002)
        size = 3000
        for q in 10.0 ** rng.uniform(0.0, 12.0, 8):
            centers = 10.0 ** rng.uniform(0.0, 307.0, size)
            near = centers * (1.0 + rng.uniform(-1.0, 1.0, size) * 10.0 ** rng.uniform(-16.0, 0.0, size))
            anywhere = 10.0 ** rng.uniform(-3.0, 308.0, size)
            negative = -rng.uniform(0.0, 2.0, size) * centers
            w = np.choose(rng.integers(0, 3, size), [near, anywhere, negative])
            sweep = CavitySpec(omega_c=centers, q_factor=float(q), volume=1.0e-6)
            points = [CavitySpec(omega_c=c, q_factor=float(q), volume=1.0e-6) for c in centers.tolist()]
            values = [dos(cav, x) for cav, x in zip(points, w.tolist())]
            assert all(type(v) is float for v in values)
            np.testing.assert_array_equal(np.array(values).view(np.uint64), dos(sweep, w).view(np.uint64))
            up = w > 0.0
            slopes = [dos_derivative(cav, x) for cav, x, keep in zip(points, w.tolist(), up) if keep]
            assert all(type(v) is float for v in slopes)
            np.testing.assert_array_equal(
                np.array(slopes).view(np.uint64),
                dos_derivative(CavitySpec(centers[up], float(q), 1.0e-6), w[up]).view(np.uint64),
            )
            assert not np.isnan(values).any() and not np.isnan(slopes).any()

    def test_numpy_scalars_and_0d_arrays_give_floats(self, cavity):
        w = 1.0e7 * (1.0 + 3.0e-7)
        want = (dos(cavity, w), dos_derivative(cavity, w))
        for center in (1.0e7, np.float64(1.0e7), np.array(1.0e7), 10_000_000):
            cav = CavitySpec(omega_c=center, q_factor=np.float64(1.0e7), volume=1.0e-6)
            for x in (w, np.float64(w), np.array(w)):
                got = (dos(cav, x), dos_derivative(cav, x))
                assert got == want and all(type(v) is float for v in got)

    @pytest.mark.parametrize("w", [math.inf, math.nan])
    def test_non_finite_frequency(self, cavity, w):
        # dos is 0 there, as for w <= 0; the slope is undefined and raises
        assert dos(cavity, w) == 0.0
        assert dos(cavity, np.array([w, 1.0e7]))[0] == 0.0
        # a frequency whose detuning overflows stays silent, as for floats
        far = CavitySpec(omega_c=1.0e308, q_factor=1.0e7, volume=1.0e-6)
        assert dos(far, np.array([-1.0e308]))[0] == dos(far, -1.0e308) == 0.0
        for x in (w, np.array([1.0e7, w])):
            with pytest.raises(ValueError, match="finite"):
                dos_derivative(cavity, x)

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


class TestIntInputs:
    @pytest.mark.parametrize(
        "center, q, w",
        [(5_000_000_000, 10**7, 10**7), (10**7, 10**7, 10**7 + 3), (10**7 + 1, 3, 9_999_999),
         (2**60 + 1, 7, 2**60 + 3)],
    )
    def test_ints_give_the_bits_of_their_floats(self, center, q, w):
        # ints took the numpy branch, which imports numpy, for these bits
        floats = CavitySpec(float(center), float(q), 1.0e-7)
        want = (dos(floats, float(w)).hex(), dos_derivative(floats, float(w)).hex())
        for spec in (CavitySpec(center, q, 1.0e-7), CavitySpec(float(center), q, 1.0e-7), floats):
            for x in (w, float(w)):
                got = dos(spec, x), dos_derivative(spec, x)
                assert all(type(v) is float for v in got)
                assert (got[0].hex(), got[1].hex()) == want

    def test_an_int_past_the_float_range_is_a_value_error(self, cavity):
        for name in ("omega_c", "q_factor", "volume"):
            fields = dict(dict(omega_c=1.0e7, q_factor=1.0e7, volume=1.0e-6), **{name: 10**400})
            with pytest.raises(ValueError, match=f"^{name} must be a number, got {10**400}$"):
                CavitySpec(**fields)
        for function in (dos, dos_derivative):
            with pytest.raises(ValueError, match=f"^frequency must be a number, got {10**400}$"):
                function(cavity, 10**400)


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

    def test_linewidth_must_be_positive_and_finite(self):
        # a zero half width divided 0 by 0 on resonance, and an infinite one
        # divided inf by inf in the scaled form: both were NaN
        bad = ((5e-324, 10.0), (np.array([1.0e7, 5e-324]), 10.0), (1e308, 0.5), (np.array([1.0e7, 1e308]), 0.5))
        for center, q in bad:
            with pytest.raises(ValueError, match="linewidth"):
                CavitySpec(omega_c=center, q_factor=q, volume=1.0e-6)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(omega_c=1.0e7), None),
            (dict(omega_c=10_000_000), None),
            (dict(omega_c=np.float64(1.0e7)), None),
            (dict(omega_c=np.array(1.0e7)), None),
            (dict(omega_c=np.array([1.0e7, 2.0e7])), None),
            (dict(omega_c=0.0), "omega_c must be positive and finite, got 0.0"),
            (dict(q_factor=0), "q_factor must be positive and finite, got 0.0"),
            (dict(volume=-1.0e-6), "volume must be positive and finite, got -1e-06"),
            (dict(omega_c=math.nan), "omega_c must be positive and finite, got nan"),
            (dict(q_factor=math.inf), "q_factor must be positive and finite, got inf"),
            (dict(volume=-math.inf), "volume must be positive and finite, got -inf"),
            (
                dict(omega_c=np.full((2, 2), 1.0e7)),
                "omega_c must be positive and finite, got "
                "[[10000000. 10000000.]\n [10000000. 10000000.]]",
            ),
            (dict(q_factor=np.array([1.0e7])), "q_factor must be a number, got array([10000000.])"),
            (
                dict(omega_c=5e-324, q_factor=10.0),
                "linewidth omega_c / q_factor must be positive and finite, got 0.0",
            ),
            (
                dict(omega_c=1e308, q_factor=0.5),
                "linewidth omega_c / q_factor must be positive and finite, got inf",
            ),
            (
                dict(omega_c=np.float64(1e308), q_factor=0.5),
                "linewidth omega_c / q_factor must be positive and finite, got inf",
            ),
            (
                dict(omega_c=np.array([1.0e7, 1e308]), q_factor=0.5),
                "linewidth omega_c / q_factor must be positive and finite, got [20000000.       inf]",
            ),
            # arrays of bools or text were read by numpy as numbers
            (dict(omega_c=np.array([True])), "omega_c must be positive and finite, got [ True]"),
            (dict(omega_c=np.array(["1e7"])), "omega_c must be positive and finite, got ['1e7']"),
            (dict(omega_c=np.array([10_000_000])), None),
        ],
    )
    def test_floats_and_arrays_are_judged_alike(self, fields, message):
        # scalars are read as floats and compared directly, an array of
        # centers goes through numpy; the messages are literals
        fields = dict(dict(omega_c=1.0e7, q_factor=1.0e7, volume=1.0e-6), **fields)
        if message is None:
            CavitySpec(**fields)
            return
        with pytest.raises(ValueError) as caught:
            CavitySpec(**fields)
        assert str(caught.value) == message

    def test_centers_must_be_one_dimensional(self):
        with pytest.raises(ValueError):
            CavitySpec(omega_c=np.full((2, 2), 1.0e7), q_factor=1.0e7, volume=1.0e-6)
        with pytest.raises(ValueError):
            CavitySpec(omega_c=1.0e7, q_factor=np.array([1.0e7]), volume=1.0e-6)

    @pytest.mark.parametrize(
        "frequency",
        [np.array([True, False]), np.array(["5e9"]), np.array(True), [True], (1.0e7, "5e9")],
        ids=["bool-array", "text-array", "bool-0d", "bool-list", "text-tuple"],
    )
    def test_frequency_arrays_of_bools_or_text_are_refused(self, cavity, frequency):
        # numpy read them as numbers: dos(cavity, np.array([True])) was the
        # dos at 1.0, and np.array(["5e9"]) the dos at 5e9
        sweep = CavitySpec(omega_c=np.array([1.0e7, 2.0e7]), q_factor=1.0e7, volume=1.0e-6)
        for spec in (cavity, sweep):
            for function in (dos, dos_derivative):
                with pytest.raises(ValueError) as caught:
                    function(spec, frequency)
                assert str(caught.value) == f"frequency must be a number, got {frequency!r}"

    def test_int_frequency_arrays_give_the_bits_of_their_floats(self, cavity):
        w = np.array([9_999_990, 10_000_000, 10_000_007])
        want = [f(cavity, w.astype(float)).tobytes() for f in (dos, dos_derivative)]
        for kind in (np.int64, np.int32, np.uint32):
            got = [f(cavity, w.astype(kind)) for f in (dos, dos_derivative)]
            assert [g.dtype for g in got] == [np.float64] * 2
            assert [g.tobytes() for g in got] == want
