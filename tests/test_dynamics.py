"""Closed-form state evolution against direct integration of the generator."""

import cmath
import math

import numpy as np
import pytest

from rotodyne import (
    EvolutionParams,
    check_density_matrix,
    closed_form_bloch,
    closed_form_rho,
    evolve_ode,
    initial_state,
    lindblad_rhs,
    trace_distance,
)


def draw_params(rng):
    theta = rng.uniform(0.0, math.pi)
    a = 10.0 ** rng.uniform(-3.0, 0.0)
    b = a * rng.uniform(0.0, 1.0)
    omega = 10.0 ** rng.uniform(0.0, 2.0)
    return EvolutionParams(a_coeff=a, b_coeff=b, omega_eff=omega, theta0=theta)


class TestClosedForm:
    def test_initial_condition_is_projector(self):
        p = EvolutionParams(0.3, 0.2, 5.0, 1.1)
        np.testing.assert_allclose(closed_form_rho(p, 0.0), initial_state(1.1), atol=1e-15)

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            p = draw_params(rng)
            tau = rng.uniform(0.0, 3.0 / (4.0 * p.a_coeff))
            rho = closed_form_rho(p, tau)
            assert abs(np.trace(rho) - 1.0) < 1e-10
            np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
            check_density_matrix(rho)

    def test_bloch_and_matrix_forms_agree(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            p = draw_params(rng)
            tau = rng.uniform(0.0, 2.0 / (4.0 * p.a_coeff))
            r1, r2, r3 = (float(v) for v in closed_form_bloch(p, tau))
            rho = closed_form_rho(p, tau)
            assert 2.0 * rho[0, 1].real == pytest.approx(r1, abs=1e-14)
            assert 2.0 * rho[1, 0].imag == pytest.approx(r2, abs=1e-14)
            assert (rho[0, 0] - rho[1, 1]).real == pytest.approx(r3, abs=1e-14)

    def test_coherence_decays_at_half_the_population_rate(self):
        # |rho_01| = sin(theta)/2 * exp(-2 a tau), independent of b
        theta, tau = 0.9, 0.7
        for b in (0.0, 0.2, 0.5):
            p = EvolutionParams(0.5, b, 3.0, theta)
            rho = closed_form_rho(p, tau)
            want = 0.5 * math.sin(theta) * math.exp(-2.0 * 0.5 * tau)
            assert abs(rho[0, 1]) == pytest.approx(want, rel=1e-14)

    def test_coherence_rotates_at_effective_frequency(self):
        p = EvolutionParams(0.1, 0.05, 7.0, 1.2)
        tau = 0.33
        phase = closed_form_rho(p, tau)[0, 1] / closed_form_rho(p, 0.0)[0, 1]
        want = cmath.exp(-1j * 7.0 * tau) * math.exp(-2.0 * 0.1 * tau)
        assert phase == pytest.approx(want, rel=1e-13)

    def test_unitary_branch_precesses_without_decay(self):
        p = EvolutionParams(0.0, 0.0, 5.0, 1.2)
        rho = closed_form_rho(p, 10.0)
        assert rho[0, 0].real == pytest.approx(math.cos(0.6) ** 2, rel=1e-14)
        assert abs(rho[0, 1]) == pytest.approx(0.5 * math.sin(1.2), rel=1e-14)

    def test_excited_fraction_relaxes_to_pump_balance(self):
        # stationary excited population (a - b) / (2 a)
        p = EvolutionParams(0.5, 0.3, 3.0, 0.0)
        rho = closed_form_rho(p, 100.0)
        assert rho[0, 0].real == pytest.approx((0.5 - 0.3) / 1.0, rel=1e-12)
        pure_decay = EvolutionParams(0.5, 0.5, 3.0, 0.0)
        assert closed_form_rho(pure_decay, 100.0)[1, 1].real == pytest.approx(1.0, rel=1e-12)


class TestOdeCrossCheck:
    def test_closed_form_matches_integrated_generator(self):
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(40):
            p = draw_params(rng)
            horizon = rng.uniform(0.1, 3.0) / (4.0 * p.a_coeff)
            traj = evolve_ode(p, horizon, rtol=1e-12)
            dist = trace_distance(closed_form_rho(p, horizon), traj.states[-1])
            worst = max(worst, dist)
        # omega T and 4 a T both past 600, where scaling and squaring is weakest
        p = EvolutionParams(a_coeff=0.2, b_coeff=-0.08, omega_eff=1.0, theta0=2.0)
        traj = evolve_ode(p, 800.0, rtol=1e-12)
        for t, rho in zip(traj.times, traj.states):
            worst = max(worst, trace_distance(closed_form_rho(p, float(t)), rho))
        assert worst < 1e-9

    def test_sampled_trajectory_hits_requested_times(self):
        p = EvolutionParams(0.3, 0.2, 5.0, 1.1)
        times = np.linspace(0.0, 2.0, 9)
        traj = evolve_ode(p, 2.0, t_eval=times)
        np.testing.assert_allclose(traj.times, times)
        for t, rho in zip(traj.times, traj.states):
            assert trace_distance(closed_form_rho(p, float(t)), rho) < 1e-9

    def test_generator_preserves_trace_and_hermiticity(self):
        p = EvolutionParams(0.3, 0.2, 5.0, 1.1)
        rhs = lindblad_rhs(initial_state(1.1), p)
        assert abs(np.trace(rhs)) < 1e-15
        np.testing.assert_allclose(rhs, rhs.conj().T, atol=1e-15)


class TestStateChecks:
    def test_trace_distance_basics(self):
        e, g = initial_state(0.0), initial_state(math.pi)
        assert trace_distance(e, e) == pytest.approx(0.0, abs=1e-15)
        assert trace_distance(e, g) == pytest.approx(1.0, rel=1e-12)

    def test_check_density_matrix_flags_bad_states(self):
        with pytest.raises(ValueError):
            check_density_matrix(np.diag([0.7, 0.7]).astype(complex))
        with pytest.raises(ValueError):
            check_density_matrix(np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex))
        with pytest.raises(ValueError):
            check_density_matrix(np.diag([1.2, -0.2]).astype(complex))

    def test_positivity_survives_long_evolution(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            p = draw_params(rng)
            rho = closed_form_rho(p, rng.uniform(0.0, 400.0))
            eigs = np.linalg.eigvalsh(rho)
            assert eigs.min() > -1e-10


class TestValidation:
    def test_params_require_contractive_coefficients(self):
        with pytest.raises(ValueError):
            EvolutionParams(a_coeff=1.0, b_coeff=1.5, omega_eff=1.0, theta0=0.5)
        with pytest.raises(ValueError):
            EvolutionParams(a_coeff=0.0, b_coeff=0.5, omega_eff=1.0, theta0=0.5)
        with pytest.raises(ValueError):
            EvolutionParams(a_coeff=-1.0, b_coeff=0.0, omega_eff=1.0, theta0=0.5)

    def test_initial_state_requires_polar_angle(self):
        with pytest.raises(ValueError):
            initial_state(-0.1)
        with pytest.raises(ValueError):
            initial_state(3.2)
