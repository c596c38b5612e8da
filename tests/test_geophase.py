"""Phase engines: eigenpath construction, path functional, integral, quasi-cycle."""

import math
from dataclasses import replace

import numpy as np
import pytest

from rotodyne import (
    DEFAULT_DIPOLE,
    AtomParams,
    CavitySpec,
    EigenPath,
    EvolutionParams,
    NumericsError,
    TrajectoryParams,
    case1_rates,
    case2_rates,
    eigenpath_from_closed_form,
    eigensystem,
    gp_case1,
    gp_case2,
    gp_exact_integral,
    gp_quasi_cycle,
    gp_split,
    gp_tong,
    gp_tong_closed_form,
    initial_state,
    lab_rates_general,
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


def unitary_reference(n, theta):
    return -math.pi * n * (1.0 - math.cos(theta))


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

    def test_connection_is_purely_imaginary(self):
        p = EvolutionParams(0.02, 0.01, 10.0, 1.3)
        path = eigenpath_from_closed_form(p, cycles_time(p, 2))
        assert np.abs(path.phases.real).max() == 0.0

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
            got = gp_tong_closed_form(p, cycles_time(p, n), refine_rel_tol=1e-13)
            want = unitary_reference(n, theta)
            assert got.total == pytest.approx(want, abs=1e-9 * max(1.0, abs(want)))

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
        for traj, atom, cavity, rate_fn in (FAST + (case1_rates,), SLOW + (case2_rates,)):
            p = EvolutionParams.from_rates(rate_fn(traj, atom, cavity), atom.theta0, atom.omega0)
            short = gp_tong_closed_form(p, cycles_time(p, 10**3))
            long = gp_tong_closed_form(p, cycles_time(p, 10**7))
            assert long.diagnostics["samples"] == short.diagnostics["samples"]
            want = gp_exact_integral(p, cycles_time(p, 10**7))
            assert long.total == pytest.approx(want.total, rel=1e-9)

    def test_matches_dense_adjacent_overlap_form(self):
        # a fractional cycle count keeps the endpoint overlap term nonzero
        p = EvolutionParams(0.02, 0.012, 10.0, 1.9)
        horizon = cycles_time(p, 3.4)
        dense = gp_tong(eigenpath_from_closed_form(p, horizon, samples_per_cycle=4096))
        got = gp_tong_closed_form(p, horizon)
        assert got.total == pytest.approx(dense.total, rel=1e-6)
        assert got.n_cycles == pytest.approx(dense.n_cycles, rel=1e-12)
        assert got.diagnostics["refinements"] >= 1

    def test_undersampled_path_rejected(self):
        p = EvolutionParams(0.0, 0.0, 50.0, math.pi / 2)
        path = eigenpath_from_closed_form(p, cycles_time(p, 2), samples_per_cycle=4)
        with pytest.raises(NumericsError):
            gp_tong(path)

    def test_undersampled_closed_form_request_rejected(self):
        p = EvolutionParams(0.0, 0.0, 50.0, math.pi / 2)
        with pytest.raises(NumericsError):
            gp_tong_closed_form(p, cycles_time(p, 5), samples_per_cycle=8)
        with pytest.raises(ValueError):
            gp_tong_closed_form(p, cycles_time(p, 5), samples_per_cycle=3)

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
            phases=path.phases[:1],
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


class TestQuasiCycle:
    def test_unitary_part_is_exact_at_zero_coupling(self):
        p = EvolutionParams(0.0, 0.0, 10.0, 0.9)
        got = gp_quasi_cycle(p, 6.0)
        assert got.total == unitary_reference(6, 0.9)
        assert got.nonunitary_part == 0.0

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


class TestSplitEngines:
    def test_split_requires_decomposed_rates(self):
        rates = lab_rates_general(*SLOW)
        with pytest.raises(ValueError):
            gp_split(rates, 10.0, math.pi / 2, 1.0e7)

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
        assert direct.noninertial_part == pytest.approx(assembled.noninertial_part, rel=1e-14)
        assert direct.inertial_part == pytest.approx(assembled.inertial_part, rel=1e-14)
        assert direct.total == pytest.approx(assembled.total, rel=1e-14)

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
        assert direct.noninertial_part == pytest.approx(assembled.noninertial_part, rel=1e-14)
        assert direct.inertial_part == pytest.approx(assembled.inertial_part, rel=1e-14)

    def test_engine_labels(self):
        assert gp_case1(*FAST, n=10.0).engine == "case1"
        assert gp_case2(*SLOW, n=10.0).engine == "case2"
        p = EvolutionParams(0.0, 0.0, 10.0, 1.0)
        assert gp_quasi_cycle(p, 1.0).engine == "quasi-cycle"
        assert gp_exact_integral(p, 1.0).engine == "exact-integral"
        assert gp_tong_closed_form(p, 1.0).engine == "tong"
