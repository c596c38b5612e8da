"""Phase engines: eigenpath construction, path functional, integral, quasi-cycle."""

import itertools
import math
import random
import sys
import warnings
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import pytest

from oracles import eigenpath_from_closed_form, eigensystem, elementary_kernel, gp_tong
from rotodyne import _kernel
from rotodyne._scenario import _evolution
from rotodyne import (
    DEFAULT_DIPOLE,
    AtomParams,
    CavitySpec,
    EvolutionParams,
    NumericsError,
    TrajectoryParams,
    case1_rates,
    case2_rates,
    gp_case1,
    gp_case2,
    gp_exact_integral,
    gp_quasi_cycle,
    gp_split,
    gp_tong_closed_form,
    initial_state,
    lab_rates_general,
    preset,
    scenario_gp,
)

FAST = (
    TrajectoryParams(radius=1.0e-6, omega=5.0e9),
    AtomParams(omega0=1.0e7, dipole=DEFAULT_DIPOLE, theta0=math.pi / 2),
    CavitySpec(omega_c=5.01e9, q_factor=1.0e7, volume=1.0e-7),
)
SLOW = (
    TrajectoryParams(radius=1.0e-3, omega=1.0e5),
    AtomParams(omega0=1.0e7, dipole=DEFAULT_DIPOLE, theta0=math.pi / 2),
    CavitySpec(omega_c=1.01e7, q_factor=1.0e7, volume=1.0e-3),
)

# every random-input loop below draws from random.Random(SEED); a failing
# case reports SEED, its index in the loop and its inputs
SEED = 20261019


def unitary_reference(n, theta):
    return -math.pi * n * (1.0 - math.cos(theta))


def fields_except_engine(res):
    fields = asdict(res)
    del fields["engine"]
    return fields


def cycles_time(p, n):
    return n * math.tau / p.omega_eff


class TestEigensystem:
    def test_generic_states_match_hermitian_eigensolver(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            r = rng.normal(size=3)
            r *= rng.uniform(0.05, 0.98) / np.linalg.norm(r)
            rho = 0.5 * np.array(
                [[1.0 + r[2], r[0] - 1j * r[1]], [r[0] + 1j * r[1], 1.0 - r[2]]]
            )
            p_plus, p_minus, angle, azimuth = eigensystem(rho)
            eigs, vecs = np.linalg.eigh(rho)
            assert p_minus == pytest.approx(eigs[0], abs=1e-12)
            assert p_plus == pytest.approx(eigs[1], abs=1e-12)
            half = angle / 2.0
            mine = np.array([math.cos(half), math.sin(half) * np.exp(1j * azimuth)])
            assert abs(np.vdot(vecs[:, 1], mine)) == pytest.approx(1.0, abs=1e-9)

    def test_diagonal_state_sits_on_the_pole(self):
        p_plus, p_minus, angle, azimuth = eigensystem(np.diag([0.75, 0.25]).astype(complex))
        assert (p_plus, p_minus) == (0.75, 0.25)
        assert angle == 0.0
        assert azimuth == 0.0

    def test_pure_state_angle_is_preparation_angle(self):
        for theta in (0.0, 0.4, math.pi / 2, 2.8, math.pi):
            p_plus, p_minus, angle, _ = eigensystem(initial_state(theta))
            assert p_plus == pytest.approx(1.0, abs=1e-12)
            assert p_minus == pytest.approx(0.0, abs=1e-12)
            assert angle == pytest.approx(theta, abs=1e-7)

    def test_maximally_mixed_state_rejected(self):
        with pytest.raises(NumericsError):
            eigensystem(0.5 * np.eye(2, dtype=complex))

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            eigensystem(np.eye(3, dtype=complex))


class TestEigenPath:
    def test_path_starts_at_preparation_angle(self):
        p = EvolutionParams(0.02, 0.01, 10.0, 1.1)
        path = eigenpath_from_closed_form(p, cycles_time(p, 3))
        assert path.bloch_angle[0] == pytest.approx(1.1, abs=1e-12)
        assert path.p_plus[0] == pytest.approx(1.0, abs=1e-14)

    def test_dominant_weight_stays_dominant(self):
        p = EvolutionParams(0.05, 0.02, 10.0, 2.0)
        path = eigenpath_from_closed_form(p, cycles_time(p, 5))
        assert np.all(path.p_plus >= 0.5)
        assert np.all(path.p_plus <= 1.0 + 1e-12)

    def test_angle_continuous_along_path(self):
        p = EvolutionParams(0.05, 0.04, 10.0, 2.6)
        path = eigenpath_from_closed_form(p, cycles_time(p, 8))
        assert np.abs(np.diff(path.bloch_angle)).max() < math.pi / 2

    def test_rejects_horizons_that_cannot_materialize(self):
        p = EvolutionParams(1e-9, 0.0, 10.0, 1.3)
        with pytest.raises(ValueError):
            eigenpath_from_closed_form(p, cycles_time(p, 10**7))

    def test_rejects_negative_horizon_and_sparse_sampling(self):
        p = EvolutionParams(0.02, 0.01, 10.0, 1.3)
        with pytest.raises(ValueError):
            eigenpath_from_closed_form(p, -1.0)
        with pytest.raises(ValueError):
            eigenpath_from_closed_form(p, 1.0, samples_per_cycle=3)


class TestTongFunctional:
    def test_unitary_limit_reproduces_solid_angle(self):
        for n, theta in ((1, math.pi / 2), (3, 0.8), (2, 2.5)):
            p = EvolutionParams(0.0, 0.0, 50.0, theta)
            got = gp_tong_closed_form(p, cycles_time(p, n))
            want = unitary_reference(n, theta)
            assert got.total == pytest.approx(want, abs=1e-9 * max(1.0, abs(want)))

    def test_open_path_endpoint_term_is_unitary(self):
        # at a fractional cycle count a decay-free path has no non-unitary
        # part; the dense polygon of adjacent overlaps is exact only at
        # theta0 = pi/2, where each overlap's arg is half the azimuth step
        for theta in (0.8, math.pi / 2, 2.5):
            p = EvolutionParams(0.0, 0.0, 50.0, theta)
            assert abs(gp_tong_closed_form(p, cycles_time(p, 3.4)).nonunitary_part) <= 1e-12
        p = EvolutionParams(0.0, 0.0, 50.0, math.pi / 2)
        dense = gp_tong(eigenpath_from_closed_form(p, cycles_time(p, 3.4)))
        assert abs(dense.nonunitary_part) <= 1e-12

    def test_pole_trajectory_accumulates_nothing(self):
        p = EvolutionParams(0.0, 0.0, 50.0, 0.0)
        assert gp_tong_closed_form(p, cycles_time(p, 4)).total == 0.0

    def test_gauge_invariance_under_smooth_rephasing(self):
        p = EvolutionParams(0.03, 0.02, 10.0, 1.9)
        path = eigenpath_from_closed_form(p, cycles_time(p, 4))
        reference = gp_tong(path)
        for drift, offset in ((1.7, 0.4), (-2.0, 1.1)):
            chi = offset + drift * path.times / path.times[-1]
            rotated = replace(path, vectors=path.vectors * np.exp(1j * chi)[:, None])
            regauged = gp_tong(rotated)
            assert regauged.total == pytest.approx(reference.total, abs=1e-9)
            assert regauged.principal_value == pytest.approx(reference.principal_value, abs=1e-9)

    def test_matches_exact_integral_on_damped_paths(self):
        rng = np.random.default_rng(22)
        for _ in range(15):
            theta = rng.uniform(0.3, math.pi - 0.3)
            a = 10.0 ** rng.uniform(-6.0, -4.0)
            p = EvolutionParams(a, a * rng.uniform(0.0, 1.0), 10.0, theta)
            horizon = cycles_time(p, int(rng.integers(2, 300)))
            got = gp_tong_closed_form(p, horizon)
            want = gp_exact_integral(p, horizon)
            assert got.total == pytest.approx(want.total, rel=1e-6)

    def test_slow_orbit_megacycle_example(self):
        # slow-rotation rate coefficients, one million orbit cycles
        rs = case2_rates(*SLOW)
        p = EvolutionParams.from_rates(rs, math.pi / 2, 1.0e7)
        horizon = 1.0e6 * math.tau / 1.0e7
        got = gp_tong_closed_form(p, horizon)
        want = gp_exact_integral(p, horizon)
        assert got.total == pytest.approx(want.total, rel=1e-6)

    def test_raw_path_functional_tracks_the_refined_value(self):
        # the adjacent-overlap product form is second order in the sampling
        p = EvolutionParams(1.0e-4, 0.6e-4, 10.0, 2.1)
        horizon = cycles_time(p, 3)
        coarse = gp_tong(eigenpath_from_closed_form(p, horizon, samples_per_cycle=512))
        fine = gp_tong(eigenpath_from_closed_form(p, horizon, samples_per_cycle=4096))
        reference = gp_exact_integral(p, horizon).total
        assert fine.total == pytest.approx(reference, rel=1e-6)
        err_coarse = abs(coarse.total - reference)
        err_fine = abs(fine.total - reference)
        assert err_fine < err_coarse / 16.0  # at least quadratic shrinkage

    def test_accumulation_spans_chunk_boundaries_seamlessly(self):
        p = EvolutionParams(1.0e-7, 0.5e-7, 1.0, 2.0)
        for n in (15624, 15634):
            got = gp_tong_closed_form(p, cycles_time(p, n))
            want = gp_exact_integral(p, cycles_time(p, n))
            assert got.total == pytest.approx(want.total, rel=1e-9)

    def test_envelope_grid_is_independent_of_cycle_count(self):
        # the regime examples take the kernel's series at both counts
        for traj, atom, cavity, rate_fn in (FAST + (case1_rates,), SLOW + (case2_rates,)):
            p = EvolutionParams.from_rates(rate_fn(traj, atom, cavity), atom.theta0, atom.omega0)
            short = gp_tong_closed_form(p, cycles_time(p, 10**3))
            long = gp_tong_closed_form(p, cycles_time(p, 10**7))
            assert long.diagnostics["series_terms"] == short.diagnostics["series_terms"] > 0
            assert long.diagnostics["samples"] == short.diagnostics["samples"] == 0
            want = gp_exact_integral(p, cycles_time(p, 10**7))
            assert long.total == pytest.approx(want.total, rel=1e-9)
        # past the series' radius, and saturated at both counts: one panel set
        p = EvolutionParams(0.2, 0.1, 10.0, 1.0)
        short = gp_tong_closed_form(p, cycles_time(p, 10**3))
        long = gp_tong_closed_form(p, cycles_time(p, 10**7))
        assert long.diagnostics["samples"] == short.diagnostics["samples"] > 0
        want = gp_exact_integral(p, cycles_time(p, 10**7))
        assert long.total == pytest.approx(want.total, rel=1e-9)

    def test_matches_dense_adjacent_overlap_form(self):
        # a fractional cycle count keeps the endpoint overlap term nonzero;
        # 4 a T = 0.17 takes the kernel's series, 0.43 its checked panels
        for a, b, path in ((0.02, 0.012, "series_terms"), (0.05, 0.03, "refinements")):
            p = EvolutionParams(a, b, 10.0, 1.9)
            horizon = cycles_time(p, 3.4)
            dense = gp_tong(eigenpath_from_closed_form(p, horizon, samples_per_cycle=4096))
            got = gp_tong_closed_form(p, horizon)
            assert got.total == pytest.approx(dense.total, rel=1e-6)
            assert got.n_cycles == pytest.approx(dense.n_cycles, rel=1e-12)
            assert got.diagnostics[path] >= 1

    @pytest.mark.parametrize("name", ["case1", "case2"])
    def test_nonunitary_part_matches_quasi_cycle_at_presets(self, name):
        # the expansion parameter bounds the relative distance between the
        # exact non-unitary part and its leading order
        scn = preset(name)
        for n in (100, 1000, 10**5, scn.n_default):
            quasi = scenario_gp(scn, n, "quasi-cycle")
            assert quasi.diagnostics["pi_n_a_over_omega0"] <= 1e-12
            got = scenario_gp(scn, n, "tong")
            # abs=0: pytest.approx otherwise passes anything within 1e-12
            assert got.nonunitary_part == pytest.approx(quasi.nonunitary_part, rel=1e-12, abs=0)
            assert got.total == got.unitary_part + got.nonunitary_part
            # every preset point takes the series; the panel counts are
            # checked past its radius, in TestKernelSeries
            assert got.diagnostics["series_terms"] > 0
            assert got.diagnostics["samples"] == got.diagnostics["panels"] == 0
            assert got.diagnostics["abserr"] <= 1e-10 * abs(got.nonunitary_part)

    def test_nonunitary_part_matches_exact_integral_on_c02_draws(self):
        rng = np.random.default_rng(7707)
        for _ in range(50):
            n = int(rng.integers(3, 61))
            a = 10.0 ** rng.uniform(-7.0, -3.1) / (math.pi * n)
            theta = rng.uniform(0.15, math.pi - 0.15)
            p = EvolutionParams(a, a * rng.uniform(-1.0, 1.0), 1.0, theta)
            got = gp_tong_closed_form(p, cycles_time(p, n))
            want = gp_exact_integral(p, cycles_time(p, n))
            assert got.nonunitary_part == pytest.approx(want.nonunitary_part, rel=1e-12, abs=0)

    def test_diagnostics_describe_the_kernel_only(self):
        # the closed form samples no path, so it reports no sampling resolution
        for p in (EvolutionParams(0.0, 0.0, 50.0, 1.0), EvolutionParams(0.02, 0.012, 10.0, 1.9)):
            got = gp_tong_closed_form(p, cycles_time(p, 3.4))
            assert set(got.diagnostics) == {
                "abserr", "endpoint_amplitude", "panels", "refinements", "samples", "series_terms"
            }

    def test_infinite_sweep_raises_before_the_kernel(self):
        _kernel._phase_kernel.cache_clear()
        with pytest.raises(NumericsError, match="not finite"):
            gp_tong_closed_form(EvolutionParams(1e-3, 5e-4, 10.0, 1.0), 1e308)
        assert _kernel._phase_kernel.cache_info().misses == 0

    @pytest.mark.parametrize("b", [0.0, 3e307, -1e308])
    def test_overflowing_four_a_gives_finite_parts(self, b):
        # 4 a = inf at a = 1e308: the exponent 4 (a T) is 0 at T = 0, where
        # (4 a) T was inf * 0 = nan
        p = EvolutionParams(1e308, b, 1.0, 1.0)
        assert gp_tong_closed_form(p, 0.0).total == 0.0
        for horizon in (1e-300, 1.0, 1e10):
            if b == 0.0:  # relaxes at once to the maximally mixed state
                with pytest.raises(NumericsError, match="degenerate state"):
                    gp_tong_closed_form(p, horizon)
                continue
            res = gp_tong_closed_form(p, horizon)
            assert math.isfinite(res.total) and math.isfinite(res.nonunitary_part)

    def test_degenerate_endpoint_raises(self):
        # b = 0 drives the state to the maximally mixed one, where the
        # eigenbasis is undefined: Bloch length sin(theta0) e^{-2 a T}
        p = EvolutionParams(1.0, 0.0, 10.0, 1.0)
        with pytest.raises(NumericsError, match="degenerate state"):
            gp_tong_closed_form(p, 20.0)
        # on the axis at the knee, e = 1 with b = a: g = R = 0 exactly
        p = EvolutionParams(1.0, 1.0, 10.0, 0.0)
        with pytest.raises(NumericsError, match="degenerate state"):
            gp_tong_closed_form(p, math.log(2.0) / 4.0)

    def test_dense_polygon_error_is_flagged(self):
        # the adjacent-overlap polygon is second order in the azimuth step
        # except at theta0 = pi/2; on a decay-free path its whole
        # non-unitary part is that error, which the Richardson estimate finds
        p = EvolutionParams(0.0, 0.0, 50.0, 0.7)
        got = gp_tong(eigenpath_from_closed_form(p, cycles_time(p, 3)))
        assert got.diagnostics["abserr"] == pytest.approx(abs(got.nonunitary_part), rel=1e-3)
        assert "polygon error estimate" in got.validity
        p = EvolutionParams(0.0, 0.0, 50.0, math.pi / 2)
        assert gp_tong(eigenpath_from_closed_form(p, cycles_time(p, 3))).validity == "ok"

    def test_vanishing_endpoint_overlap_is_flagged(self):
        # at half-integer n with theta0 = pi/2 the endpoint eigenvectors are
        # nearly orthogonal and the arg of their overlap is rounding noise
        for name in ("case1", "case2"):
            scn = preset(name)
            flagged = scenario_gp(scn, 12345.5, "tong")
            assert flagged.diagnostics["endpoint_amplitude"] < 1e-6
            assert "endpoint amplitude" in flagged.validity
            for n in (12345.4999, 12345):
                res = scenario_gp(scn, n, "tong")
                assert res.diagnostics["endpoint_amplitude"] > 1e-6
                assert res.validity == "ok"

    def test_undersampled_path_rejected(self):
        p = EvolutionParams(0.0, 0.0, 50.0, math.pi / 2)
        path = eigenpath_from_closed_form(p, cycles_time(p, 2), samples_per_cycle=4)
        with pytest.raises(NumericsError):
            gp_tong(path)

    def test_mixed_start_rejected(self):
        p = EvolutionParams(0.05, 0.02, 10.0, 1.0)
        path = eigenpath_from_closed_form(p, cycles_time(p, 2))
        tampered = replace(path, p_plus=path.p_plus * 0.9)
        with pytest.raises(ValueError):
            gp_tong(tampered)

    def test_short_paths_rejected(self):
        p = EvolutionParams(0.05, 0.02, 10.0, 1.0)
        path = eigenpath_from_closed_form(p, cycles_time(p, 2))
        stub = replace(
            path,
            times=path.times[:1],
            p_plus=path.p_plus[:1],
            bloch_angle=path.bloch_angle[:1],
            azimuth=path.azimuth[:1],
            vectors=path.vectors[:1],
        )
        with pytest.raises(ValueError):
            gp_tong(stub)


class TestExactIntegral:
    def test_unitary_limit_is_closed_form(self):
        for theta in (0.0, 0.7, math.pi / 2, 2.8, math.pi):
            p = EvolutionParams(0.0, 0.0, 50.0, theta)
            got = gp_exact_integral(p, cycles_time(p, 5))
            want = unitary_reference(5, theta)
            assert got.total == pytest.approx(want, abs=1e-9 * max(1.0, abs(want)))

    def test_on_axis_excited_state_waits_for_the_knee(self):
        # theta = 0: integrand is 0 until the population balance flips
        p = EvolutionParams(0.5, 0.3, 20.0, 0.0)
        knee = math.log(1.0 + 0.5 / 0.3) / 2.0
        before = gp_exact_integral(p, 0.9 * knee)
        after = gp_exact_integral(p, knee + 2.0)
        assert before.total == 0.0
        assert after.total == pytest.approx(-20.0 * 2.0, rel=1e-12)

    def test_on_axis_ground_state_sees_constant_integrand(self):
        p = EvolutionParams(0.5, 0.3, 20.0, math.pi)
        assert gp_exact_integral(p, 3.0).total == pytest.approx(-20.0 * 3.0, rel=1e-12)

    def test_saturated_horizon_advances_linearly(self):
        p = EvolutionParams(2.0, 1.0, 50.0, 1.8)
        t1, t2 = 80.0, 90.0  # both far past 4 a t = 300
        g1, g2 = gp_exact_integral(p, t1), gp_exact_integral(p, t2)
        assert g2.total - g1.total == pytest.approx(-50.0 * (t2 - t1), rel=1e-9)

    def test_saturated_inverted_bath_freezes(self):
        p = EvolutionParams(1.0, -0.4, 50.0, 1.8)
        g1, g2 = gp_exact_integral(p, 100.0), gp_exact_integral(p, 120.0)
        assert g2.total == pytest.approx(g1.total, rel=1e-9)

    def test_saturated_symmetric_bath_advances_at_half_rate(self):
        p = EvolutionParams(1.0, 0.0, 50.0, 1.8)
        g1, g2 = gp_exact_integral(p, 100.0), gp_exact_integral(p, 120.0)
        assert g2.total - g1.total == pytest.approx(-0.5 * 50.0 * 20.0, rel=1e-9)

    def test_substitution_branches_join_smoothly(self):
        # 4 a T crosses 1 between the two horizons
        p = EvolutionParams(0.05, 0.03, 30.0, 1.3)
        below = gp_exact_integral(p, 4.9)
        above = gp_exact_integral(p, 5.1)
        mid = gp_exact_integral(p, 5.0)
        assert below.total > mid.total > above.total
        slope = (above.total - below.total) / 0.2
        assert mid.total == pytest.approx(below.total + slope * 0.1, rel=1e-3)

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            gp_exact_integral(EvolutionParams(0.1, 0.0, 10.0, 1.0), -1.0)

    def test_zero_horizon_has_zero_phase(self):
        got = gp_exact_integral(EvolutionParams(0.1, -0.05, 10.0, 1.0), 0.0)
        assert (got.total, got.nonunitary_part, got.diagnostics["panels"]) == (0.0, 0.0, 0)

    def test_matches_high_precision_references_past_relaxation(self):
        # 30-digit mpmath quadratures of the same integrand
        for args, horizon, want in (
            ((0.1, -0.05, 1.0, 2.0), 1000.0, -2.20543513735568),
            ((0.001, -0.0009, 1.0, 3.0), 1.0e5, -186.144343600364),
            ((0.2, -0.2, 1.0, 2.9), 6.0 * math.pi, -0.857325290499116),
        ):
            got = gp_exact_integral(EvolutionParams(*args), horizon)
            assert got.total == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("name", ["case1", "case2"])
    def test_nonunitary_part_matches_quasi_cycle_at_presets(self, name):
        # the expansion parameter bounds the relative distance between the
        # exact non-unitary part and its leading order
        scn = preset(name)
        for n in (100, 1000, 10**5, scn.n_default):
            quasi = scenario_gp(scn, n, "quasi-cycle")
            assert quasi.diagnostics["pi_n_a_over_omega0"] <= 1e-12
            got = scenario_gp(scn, n, "exact-integral")
            # abs=0: pytest.approx otherwise passes anything within 1e-12
            assert got.nonunitary_part == pytest.approx(quasi.nonunitary_part, rel=1e-12, abs=0)
            assert got.total == got.unitary_part + got.nonunitary_part
            # the series here; panels >= 2 is checked past its radius
            assert got.diagnostics["series_terms"] > 0 == got.diagnostics["panels"]
            assert got.diagnostics["abserr"] <= 1e-10 * abs(got.nonunitary_part)

    def test_unitary_part_keeps_tiny_initial_angles(self):
        # 1 - cos(4e-9) rounds to 0; the total must still carry the unitary
        # part -omega T sin^2(theta0/2), which here outweighs the non-unitary
        # one and sets the sign. 60-digit mpmath quadrature of the integrand.
        got = gp_exact_integral(EvolutionParams(1e-3, -0.83e-3, 10.0, 4e-9), 3000.0)
        total, unitary = -1.204810358245578396023297691240331079205e-14, -1.2e-13
        assert got.total == pytest.approx(total, rel=1e-9, abs=0)
        assert got.unitary_part == pytest.approx(unitary, rel=1e-15, abs=0)

    def test_graded_panels_resolve_a_sharp_knee(self):
        # theta0 = pi - 1e-6 pumped toward |e>: the Bloch vector swings past
        # the equator within about sin(theta0) / (4 a |b/a|) of the knee at
        # tau = 2.7465; 50-digit mpmath quadrature of the same integrand.
        # Uniform panels of 4 a tau <= 1/2 keep only 9 of these digits.
        p = EvolutionParams(0.1, -0.05, 1.0, math.pi - 1e-6)
        got = gp_exact_integral(p, 10.0)
        assert got.nonunitary_part == pytest.approx(7.253469278327691042, rel=1e-13)
        assert got.total == pytest.approx(-2.746530721669808958, rel=1e-13)

    def test_unconverged_panels_raise(self, monkeypatch):
        # one panel across the sharp knee above cannot pass the halving
        # check within MAX_HALVINGS halvings; the memo may hold that input's
        # converged kernel from the test above
        _kernel._phase_kernel.cache_clear()
        monkeypatch.setattr(
            _kernel, "_kernel_panels", lambda x_end, x_k, delta: [(0.0, x_end)]
        )
        with pytest.raises(NumericsError, match="did not converge"):
            gp_exact_integral(EvolutionParams(0.1, -0.05, 1.0, math.pi - 1e-6), 10.0)

    def test_infinite_sweep_raises_before_the_kernel(self):
        _kernel._phase_kernel.cache_clear()
        with pytest.raises(NumericsError, match="not finite"):
            gp_exact_integral(EvolutionParams(1e-3, 5e-4, 10.0, 1.0), 1e308)
        assert _kernel._phase_kernel.cache_info().misses == 0

    @pytest.mark.parametrize("b", [0.0, 3e307, -1e308])
    def test_overflowing_four_a_gives_finite_parts(self, b):
        # 4 a = inf at a = 1e308: the exponent 4 (a T) is 0 at T = 0, where
        # (4 a) T was inf * 0 = nan
        p = EvolutionParams(1e308, b, 1.0, 1.0)
        res = gp_exact_integral(p, 0.0)
        assert (res.total, res.diagnostics["four_a_t"]) == (0.0, 0.0)
        for horizon in (1e-300, 1.0, 1e10):
            res = gp_exact_integral(p, horizon)
            assert math.isfinite(res.total) and math.isfinite(res.nonunitary_part)


F64 = np.float64


def kernel_bits(values):
    """Types and reprs of a kernel tuple or result: repr tells -0.0 from 0.0."""
    return [(type(v), repr(v)) for v in values]


class TestKernelMemo:
    def test_engines_on_one_path_integrate_once(self, monkeypatch):
        calls = []

        def counted(name):
            kernel = getattr(_kernel, name)

            def call(*args):
                calls.append(name)
                return kernel(*args)

            return call

        for name in ("_kernel_series", "_nonunitary_kernel"):
            monkeypatch.setattr(_kernel, name, counted(name))
        p = EvolutionParams(0.1, -0.05, 1.0, 2.0)
        # 4 a T = 400 is past the series' radius, where the panels take over
        for horizon, taken, count in (
            (1000.0, ["_kernel_series", "_nonunitary_kernel"], "panels"),
            (1e-3, ["_kernel_series"], "series_terms"),
        ):
            calls.clear()
            _kernel._phase_kernel.cache_clear()
            tong = gp_tong_closed_form(p, horizon)
            exact = gp_exact_integral(p, horizon)
            assert calls == taken
            assert tong.diagnostics[count] == exact.diagnostics[count] > 0

    @pytest.mark.parametrize(
        "first, second",
        [
            pytest.param(
                (EvolutionParams(0.1, 0.0, 1.0, 1.0), 3.0),
                (EvolutionParams(0.1, -0.0, 1.0, 1.0), 3.0),
                id="b=+-0",
            ),
            pytest.param(
                (EvolutionParams(0.1, -0.05, 1.0, 1.0), 0.0),
                (EvolutionParams(0.1, -0.05, 1.0, 1.0), -0.0),
                id="T=+-0",
            ),
            pytest.param(
                (EvolutionParams(0.5, 0.3, 20.0, 0.0), 0.0),
                (EvolutionParams(0.5, 0.3, 20.0, 0.0), -0.0),
                id="T=+-0-on-axis",
            ),
            pytest.param(
                (EvolutionParams(0.5, 0.3, 20.0, 0.0), 3.0),
                (EvolutionParams(F64(0.5), F64(0.3), 20.0, F64(0.0)), F64(3.0)),
                id="numpy-on-axis",
            ),
            pytest.param(
                (EvolutionParams(0.5, 0.3, 20.0, 1e-200), 3.0),
                (EvolutionParams(0.5, 0.3, 20.0, 1e-200), F64(3.0)),
                id="numpy-horizon-on-axis",
            ),
            pytest.param(
                (EvolutionParams(2.0, 1.0, 50.0, 1.8), 80.0),
                (EvolutionParams(F64(2.0), 1.0, 50.0, 1.8), 80.0),
                id="numpy-saturated",
            ),
            pytest.param(
                (EvolutionParams(0.1, -0.05, 1.0, 2.0), 1000.0),
                (EvolutionParams(0.1, -0.05, 1.0, 2.0), F64(1000.0)),
                id="numpy-horizon",
            ),
        ],
    )
    def test_hit_equals_cold_evaluation(self, first, second):
        def kernel_and_engines(key):
            # each engine below hits the kernel its predecessor stored
            return (
                kernel_bits(_kernel._phase_kernel(*key)),
                kernel_bits(asdict(gp_exact_integral(*key)).values()),
                kernel_bits(asdict(gp_tong_closed_form(*key)).values()),
            )

        for warm, key in ((first, second), (second, first)):
            assert warm == key
            _kernel._phase_kernel.cache_clear()
            cold = kernel_and_engines(key)
            _kernel._phase_kernel.cache_clear()
            _kernel._phase_kernel(*warm)
            assert kernel_and_engines(key) == cold
            assert _kernel._phase_kernel.cache_info()[:2] == (3, 1)  # (hits, misses)

    def test_numpy_scalar_generator_runs_on_floats(self, monkeypatch):
        # float64 fields took every panel node through numpy scalar
        # arithmetic, at twice the float twin's cost, for the same bits
        ratios, geometry = [], _kernel._decay_geometry
        monkeypatch.setattr(
            _kernel,
            "_decay_geometry",
            lambda e, ratio, *shape: ratios.append(type(ratio)) or geometry(e, ratio, *shape),
        )
        twin = (EvolutionParams(0.25, 0.1, 1.0, 1.0), 10.0)  # 4 a T = 10: past the series
        key = (EvolutionParams(F64(0.25), F64(0.1), F64(1.0), F64(1.0)), F64(10.0))
        _kernel._phase_kernel.cache_clear()
        kernel = _kernel._phase_kernel(*key)
        assert kernel[2] > 0 and set(ratios) == {float}
        assert kernel_bits(kernel) == kernel_bits(_kernel._phase_kernel.__wrapped__(*twin))
        ratios.clear()
        tong = gp_tong_closed_form(*key)  # the kernel is a memo hit; the endpoint is not
        assert ratios == [float]
        assert float(tong.nonunitary_part).hex() == gp_tong_closed_form(*twin).nonunitary_part.hex()

    def test_numpy_scalar_generator_gives_float_fields(self):
        # omega, theta0 and T in float64 took the sweep, the phases, abserr
        # and four_a_t through numpy scalar arithmetic into the result
        twin = (EvolutionParams(0.25, 0.1, 1.0, 1.0), 10.0)
        key = (EvolutionParams(*map(F64, (0.25, 0.1, 1.0, 1.0))), F64(10.0))
        fields = ("total", "unitary_part", "nonunitary_part", "n_cycles")
        cases = ((gp_tong_closed_form, ("abserr",)), (gp_exact_integral, ("abserr", "four_a_t")))
        for engine, diagnostics in cases:
            got, want = (
                [getattr(res, name) for name in fields] + [res.diagnostics[d] for d in diagnostics]
                for res in (engine(*key), engine(*twin))
            )
            assert set(map(type, got)) == {float}, (engine, got)
            assert kernel_bits(got) == kernel_bits(want), engine

    def test_errors_are_not_kept(self, monkeypatch):
        _kernel._phase_kernel.cache_clear()
        monkeypatch.setattr(
            _kernel, "_kernel_panels", lambda x_end, x_k, delta: [(0.0, x_end)]
        )
        p = EvolutionParams(0.1, -0.05, 1.0, math.pi - 1e-6)
        for _ in range(2):
            with pytest.raises(NumericsError, match="did not converge"):
                gp_exact_integral(p, 10.0)
        assert _kernel._phase_kernel.cache_info()[1:] == (2, _kernel.KERNEL_CACHE_SIZE, 0)


# K (s) of both presets at n = 5, 100, n_default and n_max, and of the first
# 12 draws of the c02 test above (seed 7707), exact for the float inputs:
# the elementary antiderivative in 140-digit mpmath, which mpmath quadrature
# matched to 45 digits
PRESET_KERNELS = {
    ("case1", 5): "5.04512280102424752234e-22",
    ("case1", 100): "2.018049120409699226578e-19",
    ("case1", 10**5): "2.018049120409698202791e-13",
    ("case1", 10**6): "2.018049120409698737665e-11",
    ("case2", 5): "1.322132621539432720468e-25",
    ("case2", 100): "5.288530486157731452227e-23",
    ("case2", 10**5): "5.288530486157728769276e-17",
    ("case2", 10**7): "5.288530486157730170981e-13",
    ("case2", 10**8): "5.288530486157728974859e-11",
}
C02_KERNELS = (
    "-1.468456723800241311317e-3",
    "2.040885849231265403127e-5",
    "2.693671546660268495606e-3",
    "9.376942632046688637109e-5",
    "-3.553494079341014632279e-5",
    "1.125153670988915281843e-2",
    "-6.563932817897234090041e-5",
    "-1.433271453104147026699e-4",
    "-7.829099115166289711255e-5",
    "4.880131279106901433044e-5",
    "7.686881060718477894352e-4",
    "1.252059367513216135572e-4",
)


def series_cases():
    """theta0, b/a and an x_end = 4 a T inside the series' radius, where it
    may still fall back on the panels: theta0 at the poles' c = +-0.999999,
    the presets' fl(pi/2) or uniform, b/a at -1, 0, 1 or uniform, each half
    the time, and log10 x_end uniform. Every special value and range end of
    theta0, with b/a at each of its own, +-0.0 and the subnormals, at both
    ends of log10 x_end come first, then 200 seeded draws."""
    pole = math.acos(0.999999)
    thetas, ratios = (pole, math.pi - pole, math.pi / 2), (-1.0, 0.0, 1.0)
    # from 1e-150, so that sin^2 theta0 stays normal: the on-axis closed form has no series
    low, top = 1e-150, math.log10(math.log(math.sqrt(2.0)))
    cases = [
        (theta, ratio, 10.0 ** y)
        for theta in (*thetas, low, math.pi)
        for ratio in (*ratios, -0.0, 5e-324, -5e-324)
        for y in (-12.0, top)
    ]
    rng = random.Random(SEED)
    for _ in range(200):
        theta = rng.choice(thetas) if rng.random() < 0.5 else rng.uniform(low, math.pi)
        ratio = rng.choice(ratios) if rng.random() < 0.5 else rng.uniform(-1.0, 1.0)
        cases.append((theta, ratio, 10.0 ** rng.uniform(-12.0, top)))
    return cases


def series_tolerance(x, ratio, cos_t, sin2):
    """1e-14 of about the integral of |integrand| over [0, x], which both
    paths round against, and no digits below the normal range."""
    grid = (x * i / 64 for i in range(65))
    drops = [_kernel._decay_geometry(math.expm1(y), ratio, cos_t, sin2)[2] for y in grid]
    size = math.fsum(map(abs, drops)) / len(drops)
    return x * (1e-14 * size + sys.float_info.min)


class TestKernelSeries:
    def test_preset_points_take_the_series_within_1e_15_of_references(self):
        for (name, n), want in PRESET_KERNELS.items():
            p, horizon = _evolution(preset(name), n)
            kernel, _, panels, _, terms = _kernel._phase_kernel(p, horizon)
            assert terms > 0 and panels == 0
            exact = Fraction(want)
            assert abs(Fraction(kernel) - exact) <= Fraction(1e-15) * abs(exact)

    def test_c02_draws_take_the_series_within_1e_15_beyond_the_panels(self):
        # where c + 2 b/a nearly cancels, rounding b/a and cos theta0 costs
        # both paths alike, so the series answers for 1e-15 past the panels
        rng = np.random.default_rng(7707)
        for want in C02_KERNELS:
            n = int(rng.integers(3, 61))
            a = 10.0 ** rng.uniform(-7.0, -3.1) / (math.pi * n)
            theta = rng.uniform(0.15, math.pi - 0.15)
            p = EvolutionParams(a, a * rng.uniform(-1.0, 1.0), 1.0, theta)
            horizon = cycles_time(p, n)
            kernel, _, panels, _, terms = _kernel._phase_kernel(p, horizon)
            assert terms > 0 and panels == 0
            panel = _kernel._nonunitary_kernel(
                4.0 * a, p.relaxation_exponent(horizon), p.b_coeff / a,
                math.cos(theta), math.sin(theta) ** 2,
            )[0]
            exact = Fraction(want)
            assert abs(Fraction(kernel) - exact) <= (
                abs(Fraction(panel) - exact) + Fraction(1e-15) * abs(exact)
            )

    @pytest.mark.parametrize("x", [5.0, 10.0, 30.0])
    def test_panels_match_the_elementary_antiderivative_past_the_series(self, x):
        # the antiderivative keeps 7.3e-16 here, the panels a few ulps
        for ratio, theta in itertools.product(
            (-1.0, -0.6, -0.2, 0.35, 0.8, 1.0), (1.1, math.pi / 2, 2.3)
        ):
            p = EvolutionParams(0.25, 0.25 * ratio, 10.0, theta)  # 4 a T = T
            tong, exact = gp_tong_closed_form(p, x), gp_exact_integral(p, x)
            assert tong.diagnostics["samples"] == 24 * tong.diagnostics["panels"] > 0
            assert exact.diagnostics["panels"] >= 2
            assert tong.diagnostics["series_terms"] == exact.diagnostics["series_terms"] == 0
            kernel = _kernel._phase_kernel(p, x)[0]
            assert kernel == pytest.approx(elementary_kernel(p, x), rel=1.5e-15, abs=0)

    def test_series_gives_way_past_its_radius_and_budget(self):
        shape = (0.9, math.cos(1.0), math.sin(1.0) ** 2)
        assert _kernel._kernel_series(1.0, math.sqrt(2.0) - 1.0, *shape) is None
        # inside the radius, but SERIES_TERMS terms do not reach the tolerance
        assert _kernel._kernel_series(1.0, math.expm1(0.34), *shape) is None
        p = EvolutionParams(0.25, 0.25 * 0.9, 10.0, 1.0)
        assert _kernel._phase_kernel(p, 0.3)[2:] == (0, 0, 38)
        assert _kernel._phase_kernel(p, 0.34)[2:] == (2, 1, 0)

    def test_series_matches_the_panels_and_joins_them_continuously(self):
        kernel = _kernel._phase_kernel.__wrapped__
        joined = set()  # the bits of each (theta0, b/a) whose handover is checked
        for index, (theta, ratio, x_end) in enumerate(series_cases()):
            case = (SEED, index, theta, ratio, x_end)
            p = EvolutionParams(0.25, 0.25 * ratio, 10.0, theta)  # 4 a T = T
            shape = (ratio, math.cos(theta), math.sin(theta) ** 2)
            series = _kernel._kernel_series(1.0, math.expm1(x_end), *shape)
            if series is not None:
                panels = _kernel._nonunitary_kernel(1.0, x_end, *shape)
                assert abs(series[0] - panels[0]) <= series_tolerance(x_end, *shape), case
            if (theta.hex(), ratio.hex()) in joined:
                continue
            joined.add((theta.hex(), ratio.hex()))
            # bisect for the x where the selection hands over to the panels,
            # which depends on theta0 and b/a alone, not on x_end
            lo, hi = 1e-12, math.log(math.sqrt(2.0))
            assert kernel(p, lo)[4] > 0 == kernel(p, hi)[4], case
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if kernel(p, mid)[4] > 0 else (lo, mid)
            assert abs(kernel(p, hi)[0] - kernel(p, lo)[0]) <= series_tolerance(hi, *shape), case


def geometry_args(theta_kind, theta, ratio_kind, ratio, es):
    """cos theta0, sin^2 theta0, b/a and the e = expm1(4 a tau) of one call:
    theta0 at 0, pi, 1e-6 from either pole, fl(pi/2), subnormal or generic;
    b/a at +-1, +-0.0 or uniform; e at 0, subnormal, log-uniform from 1e-12
    to 0.4, expm1 of a uniform 4 a tau up to SATURATION_EXPONENT, or at the
    knee cos theta0 / ratio, where g is 0 or a rounding away from it."""
    poles = (0.0, math.pi, 1e-6, math.pi - 1e-6, math.pi / 2, 5e-324, 1e-310, theta)
    cos_t = math.cos(poles[theta_kind])
    ratio = (1.0, -1.0, 0.0, -0.0, ratio)[ratio_kind]
    knee = cos_t / ratio if ratio and cos_t / ratio > 0.0 else 0.0
    top = _kernel.SATURATION_EXPONENT
    es = [(0.0, 5e-324, 1e-310, 1e-12 * 4e11 ** u, math.expm1(top * u), knee)[k] for k, u in es]
    return cos_t, math.sin(poles[theta_kind]) ** 2, ratio, es


def geometry_cases():
    """geometry_args' arguments: one case per special theta0 and b/a with
    every kind of e at both ends of its range, then 200 seeded draws."""
    ends = [(k, u) for k in range(6) for u in (0.0, 1.0)]
    cases = [(t, 0.0, r, 0.0, ends) for t in range(7) for r in range(4)]
    rng = random.Random(SEED)
    for _ in range(200):
        theta, ratio = rng.uniform(0.0, math.pi), rng.uniform(-1.0, 1.0)
        es = [(rng.randint(0, 5), rng.random()) for _ in range(rng.randint(1, 8))]
        cases.append((rng.randint(0, 7), theta, rng.randint(0, 4), ratio, es))
    return cases


class TestDecayGeometry:
    def test_float_calls_divide_by_zero_only_at_the_centre(self):
        # every output is a float; R = 0 (theta0 on an axis and g = 0) is the
        # only ZeroDivisionError
        for index, args in enumerate(geometry_cases()):
            cos_t, sin2, ratio, es = geometry_args(*args)
            for e in es:
                try:
                    outputs = _kernel._decay_geometry(e, ratio, cos_t, sin2)
                except ZeroDivisionError:
                    assert sin2 == 0.0 and cos_t - ratio * e == 0.0, (SEED, index, args, e)
                else:
                    assert all(type(v) is float for v in outputs), (SEED, index, args, e)


class TestQuasiCycle:
    def test_unitary_part_is_exact_at_zero_coupling(self):
        p = EvolutionParams(0.0, 0.0, 10.0, 0.9)
        got = gp_quasi_cycle(p, 6.0)
        assert got.total == unitary_reference(6, 0.9)
        assert got.nonunitary_part == 0.0

    def test_unitary_part_keeps_tiny_initial_angles(self):
        # 1 - cos(4e-9) rounds to 0; -2 pi n sin^2(theta/2) does not, and
        # matches exact-integral's unitary part over the same horizon
        p = EvolutionParams(1e-3, -0.83e-3, 10.0, 4e-9)
        got = gp_quasi_cycle(p, 3000.0 * 10.0 / math.tau)
        assert got.unitary_part == pytest.approx(-1.2e-13, rel=1e-15, abs=0)
        exact = gp_exact_integral(p, 3000.0)
        assert got.unitary_part == pytest.approx(exact.unitary_part, rel=1e-15, abs=0)

    def test_correction_scales_quadratically_in_cycle_count(self):
        p = EvolutionParams(1.0e-5, 0.6e-5, 10.0, 1.2)
        small = gp_quasi_cycle(p, 7.0)
        large = gp_quasi_cycle(p, 14.0)
        assert large.nonunitary_part / small.nonunitary_part == 4.0

    def test_correction_vanishes_on_axis(self):
        p0 = EvolutionParams(1.0e-5, 0.6e-5, 10.0, 0.0)
        assert gp_quasi_cycle(p0, 5.0).nonunitary_part == 0.0
        p_pi = EvolutionParams(1.0e-5, 0.6e-5, 10.0, math.pi)
        scale = abs(gp_quasi_cycle(p_pi, 5.0).unitary_part)
        assert abs(gp_quasi_cycle(p_pi, 5.0).nonunitary_part) < 1e-20 * scale

    def test_tracks_exact_integral_in_its_regime(self):
        p = EvolutionParams(2.0e-6, 1.5e-6, 10.0, 1.2)
        n = 40
        eps = math.pi * n * p.a_coeff / p.omega_eff
        quasi = gp_quasi_cycle(p, n)
        exact = gp_exact_integral(p, cycles_time(p, n))
        assert quasi.total == pytest.approx(exact.total, rel=10.0 * eps + 1e-9)

    def test_expansion_parameter_reported_and_warned(self):
        p = EvolutionParams(1.0e-8, 0.5e-8, 10.0, 1.2)
        ok = gp_quasi_cycle(p, 10.0)
        assert ok.diagnostics["pi_n_a_over_omega0"] == pytest.approx(
            math.pi * 10.0 * 1.0e-8 / 10.0, rel=1e-15
        )
        assert ok.validity == "ok"
        hot = gp_quasi_cycle(EvolutionParams(0.3, 0.2, 10.0, 1.2), 10.0)
        assert hot.warnings
        assert "0.1" in hot.validity

    def test_cycle_count_that_is_not_whole_is_warned(self):
        # the closed-loop formula does not hold on an open path: at case2,
        # n = 12345.5 gives -38784.532 where tong gives -38787.674
        whole = scenario_gp(preset("case2"), 12345, "case2")
        assert whole.validity == "ok"
        for engine in ("quasi-cycle", "case2"):
            got = scenario_gp(preset("case2"), 12345.5, engine)
            assert "not whole" in got.validity
        p = EvolutionParams(1.0e-8, 0.5e-8, 10.0, 1.2)
        assert gp_quasi_cycle(p, 10.0).validity == "ok"
        assert gp_quasi_cycle(p, 10.25).warnings[0].startswith("cycle count n = 10.25 is not whole")

    @pytest.mark.parametrize("engine", ["quasi-cycle", "case1", "case2"])
    def test_numpy_integer_count_gives_the_python_int_bits(self, engine):
        # n**2 in int64 wraps past n = 3.04e9: case1 at 10**10 gave
        # nonunitary -783.64 with validity ok, where a Python int gives -10090.25
        scn, p = preset("case1"), EvolutionParams(1.0e-5, 0.6e-5, 10.0, 1.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = scenario_gp(scn, np.int64(10**10), engine)
            direct = gp_quasi_cycle(p, np.int64(10**10))
        assert repr(got) == repr(scenario_gp(scn, 10**10, engine))
        assert repr(direct) == repr(gp_quasi_cycle(p, 10**10))

    @pytest.mark.parametrize(
        "n", [np.float64(1e200), 1e200, 10**200], ids=["float64", "float", "int"]
    )
    def test_count_whose_square_overflows_raises(self, n):
        # a float64 square gave nan with validity ok, the others a bare OverflowError
        calls = [
            lambda: gp_quasi_cycle(EvolutionParams(0.0, 0.0, 1.0, 1.0), n),
            lambda: gp_split(case2_rates(*SLOW), n, math.pi / 2, 1.0e7),
            lambda: gp_case1(*FAST, n=n),
            lambda: gp_case2(*SLOW, n=n),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"^n = .* is too large: 2 pi\^2 n\^2 / omega0"):
                call()


class TestSplitEngines:
    def test_split_requires_decomposed_rates(self):
        rates = lab_rates_general(*SLOW)
        with pytest.raises(ValueError):
            gp_split(rates, 10.0, math.pi / 2, 1.0e7)

    @pytest.mark.parametrize(
        "call",
        [
            lambda rs, p: gp_split(rs, math.nan, math.pi / 2, 1.0e7),
            lambda rs, p: gp_split(rs, 10.0, 1.0, math.nan),
            lambda rs, p: gp_quasi_cycle(p, math.nan),
            lambda rs, p: gp_quasi_cycle(p, math.inf),
            lambda rs, p: gp_split(rs, 10.0, 1.0, 0.0),
            lambda rs, p: gp_split(rs, 10.0, 1.0, -1.0e7),
        ],
        ids=["split-n-nan", "split-omega0-nan", "quasi-cycle-n-nan", "quasi-cycle-n-inf",
             "split-omega0-zero", "split-omega0-negative"],
    )
    def test_quasi_cycle_engines_reject_counts_and_gaps_outside_their_range(self, call):
        # each returned nan, inf or a finite wrong phase with validity ok, or
        # divided by zero, before the one check in the quasi-cycle builder
        rs, p = case2_rates(*SLOW), EvolutionParams(1.0e-5, 0.6e-5, 10.0, 1.2)
        with pytest.raises(ValueError, match="positive and finite"):
            call(rs, p)

    @pytest.mark.parametrize("theta", [4.0, -0.5, math.nan])
    def test_split_refuses_an_angle_outside_zero_to_pi(self, theta):
        with pytest.raises(ValueError, match=r"theta must lie in \[0, pi\]"):
            gp_split(case2_rates(*SLOW), 10.0, theta, 1.0e7)

    def test_split_parts_sum_to_nonunitary_total(self):
        rs = case2_rates(*SLOW)
        got = gp_split(rs, 1000.0, math.pi / 2, 1.0e7)
        assert got.inertial_part + got.noninertial_part == pytest.approx(
            got.nonunitary_part, rel=1e-12
        )
        assert got.total == got.unitary_part + got.nonunitary_part

    def test_fast_rotation_engine_matches_split_of_its_rates(self):
        direct = gp_case1(*FAST, n=1.0e5)
        assembled = gp_split(case1_rates(*FAST), 1.0e5, math.pi / 2, 1.0e7)
        assert fields_except_engine(direct) == fields_except_engine(assembled)

    def test_fast_rotation_engine_carries_rate_warnings(self):
        traj, atom, cavity = FAST
        fast_orbit = replace(traj, radius=3000.0 * traj.radius)  # zeta ~ 2.5e-3
        rate_warnings = case1_rates(fast_orbit, atom, cavity).warnings
        assert any("zeta" in w for w in rate_warnings)
        got = gp_case1(fast_orbit, atom, cavity, n=10.0)
        assert set(rate_warnings) <= set(got.warnings)
        assert gp_case1(*FAST, n=10.0).validity == "ok"

    def test_slow_rotation_engine_matches_split_of_its_rates(self):
        direct = gp_case2(*SLOW, n=1.0e7)
        assembled = gp_split(case2_rates(*SLOW), 1.0e7, math.pi / 2, 1.0e7)
        assert fields_except_engine(direct) == fields_except_engine(assembled)

    def test_engine_labels(self):
        assert gp_case1(*FAST, n=10.0).engine == "case1"
        assert gp_case2(*SLOW, n=10.0).engine == "case2"
        p = EvolutionParams(0.0, 0.0, 10.0, 1.0)
        assert gp_quasi_cycle(p, 1.0).engine == "quasi-cycle"
        assert gp_exact_integral(p, 1.0).engine == "exact-integral"
        assert gp_tong_closed_form(p, 1.0).engine == "tong"


def contract_params(exponents, b_kind, factor, theta_kind, theta):
    """A generator and a horizon from the whole float range: a, omega and T
    log-uniform, b = a times +-1, 0 or a uniform factor, theta0 at 0, pi,
    subnormal, fl(pi/2) or generic."""
    a, omega, horizon = (10.0 ** x for x in exponents)
    b = a * (1.0, -1.0, 0.0, factor)[b_kind]
    theta = (0.0, math.pi, 5e-324, math.pi / 2, theta)[theta_kind]
    return EvolutionParams(a, b, omega, theta), horizon


def contract_ends():
    """contract_params' arguments at the ends of its ranges: every b and
    theta0 kind at the eight corners of the exponent cube and at its centre,
    where each exponent takes +-0.0 and both subnormals in turn (10 ** x is
    1 for each). At the centre also the factor's ends, +-0.0 and subnormals
    against every theta0 kind, and theta0's ends and subnormal against
    every b kind."""
    centre = [
        (0.0, -0.0, 5e-324), (-0.0, 5e-324, -5e-324), (5e-324, -5e-324, 0.0), (-5e-324, 0.0, -0.0)
    ]
    corners = [*centre, *itertools.product((-323.0, 308.0), repeat=3)]
    cases = [(xs, b, 0.5, t, 1.0) for xs in corners for b in range(4) for t in range(5)]
    cases += [
        (centre[0], 3, factor, t, 1.0)
        for factor in (-1.0, 1.0, 0.0, -0.0, 5e-324, -5e-324)
        for t in range(5)
    ]
    cases += [(centre[0], b, 0.5, 4, theta) for b in range(4) for theta in (0.0, math.pi, 5e-324)]
    return cases


def contract_draws(rng, count):
    """count draws of contract_params' arguments: each exponent uniform in
    [-323, 308], each kind uniform, the factor in [-1, 1], theta0 in [0, pi]."""
    return [
        (
            [rng.uniform(-323.0, 308.0) for _ in range(3)],
            rng.randint(0, 3),
            rng.uniform(-1.0, 1.0),
            rng.randint(0, 4),
            rng.uniform(0.0, math.pi),
        )
        for _ in range(count)
    ]


def kernel_cases():
    """(log10 a, log10 x, theta0, b/a) with a log-uniform, 4 a and T = x / (4 a)
    finite, x = 4 a T log-uniform in [5, 300] (past about 354 the oracle's u^2
    overflows), and theta0 and b/a uniform where the oracle holds, b/a half
    the time at 1, -1 or 0. The example below comes first, then every range
    end crossed, log10 a and b/a also at +-0.0 and the subnormals, then 500
    seeded draws."""
    log_as, log_xs = (-306.0, 307.0), (math.log10(5.0), math.log10(300.0))
    thetas, ratios, zeros = (0.8, math.pi - 0.8), (1.0, -1.0, 0.0), (0.0, -0.0, 5e-324, -5e-324)
    cases = [
        # a tiny b/a puts the knee far past x: 712 half-unit panels across a flat
        # stretch, whose sum was 8.6 eps T off with a gap of 0; now 16 panels grow there
        (0.0, 2.25, 1.0625, 4.8882470176654375e-295),
    ]
    cases += itertools.product((*log_as, *zeros), log_xs, thetas, (1.0, -1.0, *zeros))
    rng = random.Random(SEED)
    for _ in range(500):
        log_a, log_x, theta = (rng.uniform(*ends) for ends in (log_as, log_xs, thetas))
        ratio = rng.choice(ratios) if rng.random() < 0.5 else rng.uniform(-1.0, 1.0)
        cases.append((log_a, log_x, theta, ratio))
    return cases


class TestEngineContract:
    def test_engines_return_finite_parts_or_say_why_not(self):
        # each engine returns finite parts, attaches a warning, or raises
        # ValueError or NumericsError; no numpy warning, no other exception.
        # The quasi-cycle engine takes the whole cycles that cover T.
        examples = [
            # kernels of about 2 T past the float range, off and on the axis: both
            # engines returned an infinite non-unitary part with validity ok
            (EvolutionParams(8.6e108, 8.6e108, 6e-20, 0.1432), 1e308),
            (EvolutionParams(5.07e-198, 4.73e-198, 1e-323, 0.0), 1e308),
        ]
        args = contract_ends() + contract_draws(random.Random(SEED), 500)
        reached = dict.fromkeys(["tong", "exact-integral", "quasi-cycle"], 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for index, (p, horizon) in enumerate(examples + [contract_params(*a) for a in args]):
                cycles = p.omega_eff * horizon / math.tau
                n = max(1, math.ceil(cycles)) if cycles < math.inf else cycles
                calls = (
                    lambda: gp_tong_closed_form(p, horizon),
                    lambda: gp_exact_integral(p, horizon),
                    lambda: gp_quasi_cycle(p, n),
                )
                for call in calls:
                    try:
                        res = call()
                    except (ValueError, NumericsError):
                        continue
                    reached[res.engine] += 1
                    parts = (res.total, res.unitary_part, res.nonunitary_part)
                    finite = all(map(math.isfinite, parts))
                    assert finite or res.warnings, (SEED, index, p, horizon, res)
        # how often each engine reached the assertion on the 502 inputs of the
        # derandomized hypothesis property this loop replaced
        floors = {"tong": 404, "exact-integral": 474, "quasi-cycle": 398}
        assert all(reached[engine] >= floor for engine, floor in floors.items()), reached

    def test_kernel_matches_the_elementary_antiderivative(self):
        # absolute, on the scale of the antiderivative's terms (4 a K ~ c x):
        # at theta0 near pi/2 with b = 0 K nearly vanishes, and there the
        # oracle's own cancellation leaves a relative gap of about 5e-14
        for index, (log_a, log_x, theta, ratio) in enumerate(kernel_cases()):
            a = 10.0 ** log_a
            p = EvolutionParams(a, a * ratio, 1.0, theta)
            horizon = 10.0 ** log_x / (4.0 * a)
            kernel = _kernel._phase_kernel(p, horizon)[0]
            gap = abs(kernel - elementary_kernel(p, horizon))
            assert gap <= 8.0 * sys.float_info.epsilon * horizon, (SEED, index, p, horizon)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf])
    def test_non_finite_horizon_is_bad_input(self, horizon):
        # bad input (ValueError) as in the quasi-cycle engines, not a
        # numerical failure: no omega T is formed from it
        p = EvolutionParams(1e-3, 5e-4, 10.0, 1.0)
        message = f"^total_time must be non-negative and finite, got {horizon}$"
        for engine in (gp_tong_closed_form, gp_exact_integral):
            with pytest.raises(ValueError, match=message):
                engine(p, horizon)

    def test_panel_sum_past_the_float_range_raises(self):
        # T within a factor of 2 of the float maximum, 4 a T = 6 on the panels:
        # each panel's share of the kernel is finite, their sum is not
        p = EvolutionParams(1e-308, 1e-308, 1.0, 0.45)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for engine in (gp_tong_closed_form, gp_exact_integral):
                with pytest.raises(NumericsError, match="past the float range"):
                    engine(p, 1.5e308)

    def test_numeric_engines_agree_on_whole_cycles(self):
        # on T = 2 pi k / omega tong's endpoint arg is left only by the
        # rounding of omega T, at most |sin omega T| / endpoint_amplitude.
        # log10 k is uniform in [0, 12]; contract_ends() runs at both of its
        # ends (a subnormal log10 k gives k = 1, as 0 does)
        rng = random.Random(SEED)
        cases = [(args, y) for args in contract_ends() for y in (0.0, 12.0)]
        cases += [(args, rng.uniform(0.0, 12.0)) for args in contract_draws(rng, 500)]
        reached = 0
        for index, (args, log_cycles) in enumerate(cases):
            p = contract_params(*args)[0]
            horizon = math.tau * round(10.0 ** log_cycles) / p.omega_eff
            try:
                tong, exact = gp_tong_closed_form(p, horizon), gp_exact_integral(p, horizon)
            except (ValueError, NumericsError):
                continue
            if tong.validity != "ok" or exact.validity != "ok":
                continue
            reached += 1
            abserr = (tong.diagnostics["abserr"], exact.diagnostics["abserr"])
            bound = max(1e-12 * abs(exact.nonunitary_part), *abserr)
            endpoint = abs(math.sin(p.omega_eff * horizon)) / tong.diagnostics["endpoint_amplitude"]
            gap = abs(tong.nonunitary_part - exact.nonunitary_part)
            assert gap <= bound + endpoint, (SEED, index, p, horizon)
        # the 500 inputs of the derandomized hypothesis property this loop
        # replaced reached the assertion 307 times
        assert reached >= 307, reached
