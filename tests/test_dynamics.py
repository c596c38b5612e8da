"""Closed-form state evolution against direct integration of the generator."""

import cmath
import itertools
import math
import random

import numpy as np
import pytest

from rotodyne import dynamics
from rotodyne import (
    EvolutionParams,
    NumericsError,
    closed_form_rho,
    evolve_ode,
    initial_state,
    lindblad_rhs,
    trace_distance,
)

from oracles import check_density_matrix, closed_form_bloch


def draw_params(rng):
    theta = rng.uniform(0.0, math.pi)
    a = 10.0 ** rng.uniform(-3.0, 0.0)
    b = a * rng.uniform(0.0, 1.0)
    omega = 10.0 ** rng.uniform(0.0, 2.0)
    return EvolutionParams(a_coeff=a, b_coeff=b, omega_eff=omega, theta0=theta)


EPS = np.finfo(float).eps
# every random-input loop below draws from random.Random(SEED); a failing
# case reports SEED, its index in the loop and its inputs
SEED = 20261019


def closed_form_args(log_a, ratio, theta, log_omega, x):
    """(params, tau) with a = 10 ** log_a, or 0 for None, b = a ratio,
    omega = 10 ** log_omega and 4 a tau = x (tau = x for a = 0)."""
    a = 0.0 if log_a is None else 10.0**log_a
    return EvolutionParams(a, a * ratio, 10.0**log_omega, theta), (x / (4.0 * a) if a else x)


def closed_form_cases():
    """closed_form_args' arguments: a = 0 or log-uniform, b = +-a or between,
    theta0 on a pole or generic, each choice half the time, and 4 a tau up
    to past where e^{-4 a tau} underflows. The ends of every range, +-0.0
    and the subnormals where a range holds them come first: every a, b/a
    and theta0 crossed, and omega and 4 a tau taking theirs in turn, so
    that each a meets each pair of them. Then 200 seeded draws."""
    zeros = (0.0, -0.0, 5e-324, -5e-324)
    firsts = itertools.product(
        (None, -6.0, 2.0, *zeros), (-1.0, 1.0, *zeros), (0.0, math.pi, 5e-324)
    )
    # 18 pairs, as many as the b/a and theta0 pairs that each a runs through
    lasts = itertools.product((-2.0, 4.0, *zeros), (0.0, 5e-324, 760.0))
    cases = [(*first, *last) for first, last in zip(firsts, itertools.cycle(lasts))]
    rng = random.Random(SEED)
    for _ in range(200):
        log_a = None if rng.random() < 0.5 else rng.uniform(-6.0, 2.0)
        ratio = rng.choice((-1.0, 1.0)) if rng.random() < 0.5 else rng.uniform(-1.0, 1.0)
        theta = rng.choice((0.0, math.pi)) if rng.random() < 0.5 else rng.uniform(0.0, math.pi)
        x = rng.uniform(0.0, 760.0)  # e^{-x} is 0 past about 745
        cases.append((log_a, ratio, theta, rng.uniform(-2.0, 4.0), x))
    return cases


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

    def test_scalar_form_is_the_array_bloch_form_to_a_few_ulps(self):
        # closed_form_rho runs on floats and closed_form_bloch on arrays:
        # rho = (I + r . sigma) / 2 on the unit scale of a state's entries
        for index, args in enumerate(closed_form_cases()):
            case = (SEED, index, args)
            p, tau = closed_form_args(*args)
            r1, r2, r3 = (float(v) for v in closed_form_bloch(p, tau))
            want = 0.5 * np.array([[1.0 + r3, r1 - 1j * r2], [r1 + 1j * r2, 1.0 - r3]])
            rho = closed_form_rho(p, tau)
            np.testing.assert_allclose(rho, want, rtol=0.0, atol=2.0 * EPS, err_msg=str(case))
            assert abs(rho[0, 1] - want[0, 1]) <= 4.0 * EPS * abs(want[0, 1]), case

    def test_overflowing_four_a_relaxes_at_once(self):
        # 4 a = inf at a = 1e308: tau = 0 keeps the initial state, not
        # inf * 0 = nan, and any tau > 0 lands on the stationary state
        p = EvolutionParams(1e308, 3e307, 1.0, 1.0)
        np.testing.assert_allclose(closed_form_rho(p, 0.0), initial_state(1.0), rtol=1e-15)
        np.testing.assert_allclose(closed_form_rho(p, 1.0), np.diag([0.35, 0.65]), rtol=1e-15)
        r1, r2, r3 = closed_form_bloch(p, [0.0, 1.0])
        np.testing.assert_allclose(r3, [math.cos(1.0), -0.3], rtol=1e-15)
        assert r1[1] == r2[1] == 0.0

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
        # omega T = 800 and 4 a T = 640, checked at every sample: a long
        # horizon that runs the eigen-sum from the pure start to full relaxation
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

    def test_propagator_matches_scipy_expm(self):
        # scipy is a test dependency only, an independent reference here
        from scipy.linalg import expm

        rng = np.random.default_rng(20260814)
        worst = 0.0
        for _ in range(100):
            theta = rng.uniform(0.0, math.pi)
            a = 10.0 ** rng.uniform(-3.0, 0.0)
            b = a * rng.uniform(-1.0, 1.0)
            p = EvolutionParams(a, b, 10.0 ** rng.uniform(0.0, 2.0), theta)
            steps = np.array([0.0, 1.0 / 200.0, 1.0]) * rng.uniform(0.1, 5.0)
            got = evolve_ode(p, steps[-1], t_eval=steps).states.reshape(-1, 4)
            rho0 = initial_state(theta).reshape(4)
            want = np.array([expm(t * dynamics._superoperator(p)) @ rho0 for t in steps])
            worst = max(worst, float(np.abs(got - want).max()))
        assert worst < 1e-12

    def test_long_horizon_keeps_the_c01_gate(self):
        # omega T = 1e8 rad of precession at almost no decay (4 a T = 0.04)
        p = EvolutionParams(a_coeff=1e-6, b_coeff=0.0, omega_eff=1e4, theta0=1.0)
        traj = evolve_ode(p, 1e4)
        for t, rho in zip(traj.times, traj.states):
            assert trace_distance(closed_form_rho(p, float(t)), rho) < 1e-9

    @pytest.mark.parametrize("a, horizon", [(1.0, 1e8), (1e-3, 1e10)])
    def test_far_past_relaxation_keeps_the_c01_gate(self, a, horizon):
        # 4 a T = 4e8 and 4e7: an unpinned stationary eigenvalue of about
        # 4a * 1.7e-16 drifts the state by that times T
        p = EvolutionParams(a_coeff=a, b_coeff=0.3 * a, omega_eff=1.0, theta0=1.0)
        traj = evolve_ode(p, horizon)
        for t, rho in zip(traj.times, traj.states):
            assert trace_distance(closed_form_rho(p, float(t)), rho) < 1e-9

    def test_generator_parts_preserve_the_trace_exactly(self):
        # vec(I) is a left null vector of H, A and B to the last bit, which
        # evolve_ode's zero-eigenvalue pin needs
        trace_row = np.eye(2).reshape(4)
        for part in dynamics._generator_parts():
            assert np.all(trace_row @ part == 0)

    def test_superoperator_is_the_probed_generator(self):
        rng = np.random.default_rng(21)
        units = np.eye(4, dtype=complex).reshape(4, 2, 2)
        for _ in range(50):
            a = 10.0 ** rng.uniform(-6.0, 1.0)
            p = EvolutionParams(a, a * rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-3.0, 4.0), 0.5)
            probed = np.stack([lindblad_rhs(u, p).reshape(4) for u in units], axis=1)
            gap = np.abs(dynamics._superoperator(p) - probed).max()
            assert gap <= 1e-15 * np.abs(probed).max()

    def test_defective_generator_raises(self, monkeypatch):
        # a generator past the float range fails the eigendecomposition, and
        # a phase omega * t past it makes e^{lam t} non-finite
        with pytest.raises(NumericsError, match="generator eigendecomposition failed"):
            evolve_ode(EvolutionParams(1e308, 0.0, 1.0, 1.0), 1.0)
        with pytest.raises(NumericsError, match="produced non-finite states"):
            evolve_ode(EvolutionParams(1e-3, 0.0, 1e308, 1.0), 10.0)
        jordan = np.diag([-1.0, -1.0, -2.0, 0.0]).astype(complex)
        jordan[0, 1] = 1.0
        monkeypatch.setattr(dynamics, "_superoperator", lambda p: jordan)
        with pytest.raises(NumericsError):
            evolve_ode(EvolutionParams(0.3, 0.2, 5.0, 1.1), 1.0)

    def test_sample_grid_edge_cases(self):
        p = EvolutionParams(0.3, 0.2, 5.0, 1.1)
        assert evolve_ode(p, 1.0, t_eval=np.array([])).states.shape == (0, 2, 2)
        twice = evolve_ode(p, 1.0, t_eval=np.array([0.5, 0.5, 1.0])).states
        assert np.array_equal(twice[0], twice[1])
        assert trace_distance(closed_form_rho(p, 0.5), twice[0]) < 1e-12
        unitary = EvolutionParams(0.0, 0.0, 5.0, 1.1)
        traj = evolve_ode(unitary, 20.0)
        for t, rho in zip(traj.times, traj.states):
            np.testing.assert_allclose(rho, closed_form_rho(unitary, float(t)), rtol=0.0, atol=1e-12)

    def test_generator_broadcasts_over_a_stack(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            p = EvolutionParams(0.3, rng.uniform(-0.3, 0.3), 5.0, 1.1)
            stack = rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2))
            each = np.array([lindblad_rhs(rho, p) for rho in stack])
            assert np.array_equal(lindblad_rhs(stack, p), each)

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
        with pytest.raises(ValueError, match=r"expected a 2x2 matrix, got shape \(3, 3\)"):
            check_density_matrix(np.eye(3) / 3.0)

    def test_positivity_survives_long_evolution(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            p = draw_params(rng)
            rho = closed_form_rho(p, rng.uniform(0.0, 400.0))
            eigs = np.linalg.eigvalsh(rho)
            assert eigs.min() > -1e-10


class TestValidation:
    @pytest.mark.parametrize("rtol", [1e-14, 1e-5, math.nan])
    def test_ode_rtol_outside_its_range_is_refused(self, rtol):
        p = EvolutionParams(a_coeff=0.01, b_coeff=0.004, omega_eff=10.0, theta0=1.0)
        with pytest.raises(ValueError, match=r"rtol must lie in \[1e-13, 1e-6\]"):
            evolve_ode(p, 1.0, rtol=rtol)

    def test_params_require_contractive_coefficients(self):
        with pytest.raises(ValueError):
            EvolutionParams(a_coeff=1.0, b_coeff=1.5, omega_eff=1.0, theta0=0.5)
        with pytest.raises(ValueError):
            EvolutionParams(a_coeff=0.0, b_coeff=0.5, omega_eff=1.0, theta0=0.5)
        with pytest.raises(ValueError):
            EvolutionParams(a_coeff=-1.0, b_coeff=0.0, omega_eff=1.0, theta0=0.5)

    @pytest.mark.parametrize(
        "a, b, omega",
        [(1.0, math.nan, 1.0), (math.inf, 0.0, 1.0), (1.0, 0.5, math.inf)],
        ids=["b-nan", "a-inf", "omega-inf"],
    )
    def test_params_require_finite_values(self, a, b, omega):
        with pytest.raises(ValueError, match="finite|exceed"):
            EvolutionParams(a_coeff=a, b_coeff=b, omega_eff=omega, theta0=1.0)

    @pytest.mark.parametrize("theta0", [-1e-300, math.nextafter(math.pi, 4.0), math.nan])
    def test_params_require_theta_in_range(self, theta0):
        with pytest.raises(ValueError, match=r"theta0 must lie in \[0, pi\]"):
            EvolutionParams(a_coeff=1.0, b_coeff=0.5, omega_eff=1.0, theta0=theta0)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -1.0])
    def test_closed_forms_reject_bad_times(self, tau):
        for p in (EvolutionParams(0.3, 0.2, 5.0, 1.1), EvolutionParams(0.0, 0.0, 1.0, 1.0)):
            with pytest.raises(ValueError, match="non-negative and finite"):
                closed_form_rho(p, tau)
            with pytest.raises(ValueError, match="non-negative and finite"):
                closed_form_bloch(p, [0.0, tau])

    @pytest.mark.parametrize("t_final", [math.nan, math.inf, -1.0])
    def test_ode_rejects_bad_horizon(self, t_final):
        with pytest.raises(ValueError, match="t_final must be non-negative and finite"):
            evolve_ode(EvolutionParams(0.3, 0.2, 5.0, 1.1), t_final)

    @pytest.mark.parametrize(
        "t_eval",
        [
            [math.nan],
            [0.0, math.nan, 1.0],
            [0.0, math.inf],
            [-0.1, 0.5],
            [0.5, 1.5],
            [0.5, 0.2],
            [[0.0, 0.5]],
        ],
        ids=["nan", "inner-nan", "inf", "negative", "past-end", "unsorted", "2-d"],
    )
    def test_ode_rejects_bad_sample_times(self, t_eval):
        with pytest.raises(ValueError, match="t_eval must be"):
            evolve_ode(EvolutionParams(0.3, 0.2, 5.0, 1.1), 1.0, t_eval=np.array(t_eval))

    @pytest.mark.parametrize(
        "t_eval",
        [
            np.array([False, True]),
            ["0", "1"],
            np.array(["0", "1"]),
            np.array([0.0, 1.0], dtype=object),
            np.array([0.0, 1.0j]),
        ],
        ids=["bools", "text-list", "text", "object", "complex"],
    )
    def test_ode_refuses_sample_times_of_no_real_dtype(self, t_eval):
        """Bools and text were read as the times [0, 1]; only float, int and
        unsigned dtypes are times."""
        with pytest.raises(ValueError, match="t_eval must be a number"):
            evolve_ode(EvolutionParams(0.3, 0.2, 5.0, 1.1), 1.0, t_eval=t_eval)

    def test_ode_sample_times_keep_their_float_bits(self):
        p, times = EvolutionParams(0.3, 0.2, 5.0, 1.1), np.array([0.0, 0.1, 0.7, 1.0])
        assert evolve_ode(p, 1.0, t_eval=times).times is times
        for kind in (np.int64, np.uint32, np.float32):
            got = evolve_ode(p, 1.0, t_eval=np.array([0, 1], dtype=kind))
            want = evolve_ode(p, 1.0, t_eval=np.array([0.0, 1.0]))
            assert got.times.dtype == float and got.states.tobytes() == want.states.tobytes()

    def test_initial_state_requires_polar_angle(self):
        with pytest.raises(ValueError):
            initial_state(-0.1)
        with pytest.raises(ValueError):
            initial_state(3.2)
