"""Open-system geometric phase of the precessing, decaying two-level state.

Engines
-------
``gp_tong``
    Kinematic mixed-state functional evaluated on a sampled path of the
    larger-eigenvalue eigenvector: phase of the endpoint overlap minus
    the accumulated connection integral. Works on any EigenPath; the
    helper ``gp_tong_closed_form`` evaluates the same functional on the
    analytic state, sampling only the relaxation envelope, so its cost
    does not grow with the cycle count.

``gp_exact_integral``
    Adaptive quadrature of the closed-form phase integrand; valid for
    any horizon, not just integer quasi-cycles.

``gp_quasi_cycle``
    Leading-order closed form for n quasi-cycles: the pure-precession
    solid-angle term plus a correction linear in the dissipator pair.

``gp_case1`` / ``gp_case2``
    Regime-expanded quasi-cycle corrections written directly in terms of
    the cavity density of states, split into inertial and non-inertial
    contributions.

All phases are reported as continuous (unwrapped) accumulations with the
principal value in [-pi, pi] recorded alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .cavity import CavitySpec, dos, dos_derivative
from .dynamics import EvolutionParams, closed_form_bloch
from .errors import NumericsError
from .kinematics import AtomParams, TrajectoryParams, derive_kinematics
from .rates import RateSet, _general_warnings, case2_rates, vacuum_coupling

__all__ = [
    "EigenPath",
    "GPResult",
    "eigensystem",
    "eigenpath_from_closed_form",
    "gp_tong",
    "gp_tong_closed_form",
    "gp_exact_integral",
    "gp_quasi_cycle",
    "gp_case1",
    "gp_case2",
    "gp_split",
]

DEGENERACY_FLOOR = 1e-14
MIN_ADJACENT_OVERLAP = 0.99
# largest dense path we are willing to materialize
MAX_DENSE_SAMPLES = 2_000_000
# per-cycle resolution the closed-form path functional certifies
SAMPLES_PER_CYCLE = 32
# initial Simpson grid of the relaxation envelope, before doubling
MIN_ENVELOPE_SEGMENTS = 32
ENVELOPE_SEGMENTS_PER_RELAXATION = 8
MAX_REFINEMENTS = 8
# e^{4 a tau} saturates the phase integrand long before overflow
SATURATION_EXPONENT = 300.0


@dataclass(frozen=True)
class GPResult:
    """One geometric-phase evaluation.

    ``total`` is the unwrapped phase (rad); ``principal_value`` its
    representative in [-pi, pi]. ``unitary_part`` is the pure-precession
    reference for the same horizon and initial angle, ``nonunitary_part``
    the remainder. The inertial/non-inertial decomposition is present
    only for engines that know the rate split. ``diagnostics`` carries
    validity numbers (quasi-cycle expansion parameters, sampling data).
    """

    engine: str
    n_cycles: float
    total: float
    unitary_part: float
    nonunitary_part: float
    principal_value: float
    inertial_part: float | None = None
    noninertial_part: float | None = None
    warnings: tuple[str, ...] = ()
    diagnostics: dict = field(default_factory=dict)

    @property
    def validity(self) -> str:
        return "ok" if not self.warnings else ";".join(self.warnings)


@dataclass(frozen=True)
class EigenPath:
    """Sampled path of the dominant spectral branch of rho(tau).

    bloch_angle is the polar angle of the eigenvector measured from the
    |e> pole, so the weight on |e> is cos(bloch_angle/2) and a pure
    initial superposition at angle theta0 starts the path at exactly
    theta0; azimuth is the unwrapped
    relative phase between the |g> and |e> components; ``phases`` is the
    cumulative connection accumulated from adjacent-sample overlap args
    (purely imaginary, converges to the integral of <phi|d/dtau|phi>);
    ``vectors`` are explicit eigenvector samples in the gauge with a
    real non-negative |e> component.
    """

    times: np.ndarray
    p_plus: np.ndarray
    bloch_angle: np.ndarray
    azimuth: np.ndarray
    phases: np.ndarray
    vectors: np.ndarray


def _principal(value: float) -> float:
    return math.remainder(value, math.tau)


def eigensystem(rho: np.ndarray) -> tuple[float, float, float, float]:
    """Spectral data (p_plus, p_minus, bloch_angle, azimuth) of a 2x2 state.

    Uses closed-form Bloch expressions with the numerically stable
    two-argument arctangent for the polar angle. Raises NumericsError
    when the state is degenerate (Bloch length <= 1e-14), where the
    eigenbasis is undefined.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {rho.shape}")
    herm = 0.5 * (rho + rho.conj().T)
    r1 = 2.0 * herm[0, 1].real
    r2 = 2.0 * herm[1, 0].imag
    r3 = (herm[0, 0] - herm[1, 1]).real
    lam = math.hypot(math.hypot(r1, r2), r3)
    if lam <= DEGENERACY_FLOOR:
        raise NumericsError(
            f"degenerate state: Bloch length {lam:.2e} <= {DEGENERACY_FLOOR:g}"
        )
    p_plus = (1.0 + lam) / 2.0
    p_minus = (1.0 - lam) / 2.0
    bloch_angle = 2.0 * math.atan2(math.sqrt(max(lam - r3, 0.0)), math.sqrt(lam + r3))
    azimuth = math.atan2(r2, r1)
    return p_plus, p_minus, bloch_angle, azimuth


def _path_fields(p: EvolutionParams, taus: np.ndarray):
    """Vectorized spectral fields along the closed-form trajectory."""
    r1, r2, r3 = closed_form_bloch(p, taus)
    r_perp = np.hypot(r1, r2)
    lam = np.hypot(r_perp, r3)
    if float(lam.min()) <= DEGENERACY_FLOOR:
        raise NumericsError("trajectory passes through a degenerate state")
    p_plus = (1.0 + lam) / 2.0
    bloch_angle = 2.0 * np.arctan2(np.sqrt(np.maximum(lam - r3, 0.0)), np.sqrt(lam + r3))
    azimuth = np.unwrap(np.arctan2(r2, r1))
    return p_plus, bloch_angle, azimuth


def _canonical_products(bloch_angle: np.ndarray, azimuth: np.ndarray) -> np.ndarray:
    """<phi_i|phi_{i+1}> for adjacent canonical-gauge samples, without
    materializing the vectors."""
    half = bloch_angle / 2.0
    s, c = np.sin(half), np.cos(half)
    dpsi = np.diff(azimuth)
    re = c[:-1] * c[1:] + s[:-1] * s[1:] * np.cos(dpsi)
    im = s[:-1] * s[1:] * np.sin(dpsi)
    return re + 1j * im


def eigenpath_from_closed_form(
    p: EvolutionParams, total_time: float, samples_per_cycle: int = 256
) -> EigenPath:
    """Materialize the dominant-branch eigenpath of the analytic state.

    The connection increment over each segment is the arg of the
    adjacent-sample eigenvector overlap, second-order accurate in the
    segment length for smooth paths.
    """
    if total_time < 0.0:
        raise ValueError(f"total_time must be non-negative, got {total_time}")
    if samples_per_cycle < 4:
        raise ValueError("need at least 4 samples per cycle to unwrap the azimuth")
    cycles = p.omega_eff * total_time / math.tau
    segments = max(int(math.ceil(cycles * samples_per_cycle)), 32)
    if segments + 1 > MAX_DENSE_SAMPLES:
        raise ValueError(
            f"dense path of {segments + 1} samples exceeds {MAX_DENSE_SAMPLES}; "
            "use gp_tong_closed_form, whose cost does not grow with the horizon"
        )
    taus = np.linspace(0.0, total_time, segments + 1)
    p_plus, bloch_angle, azimuth = _path_fields(p, taus)
    increments = np.angle(_canonical_products(bloch_angle, azimuth))
    phases = 1j * np.concatenate(([0.0], np.cumsum(increments)))
    half = bloch_angle / 2.0
    vectors = np.stack(
        [np.cos(half), np.sin(half) * np.exp(1j * azimuth)], axis=1
    ).astype(complex)
    return EigenPath(
        times=taus,
        p_plus=p_plus,
        bloch_angle=bloch_angle,
        azimuth=azimuth,
        phases=phases,
        vectors=vectors,
    )


def gp_tong(path: EigenPath, total_time: float | None = None) -> GPResult:
    """Mixed-state geometric phase from a sampled eigenpath.

    The result is arg of sqrt(p_plus(0) p_plus(T)) times the endpoint
    eigenvector overlap times exp(-connection integral), reported as a
    continuous accumulation. Both pieces are computed from the stored
    eigenvector samples, so a smooth rephasing of the vectors cancels
    between the overlap and the connection and the phase is unchanged.
    Requires a pure initial state and adjacent samples overlapping by at
    least 0.99 in magnitude (else the path cannot resolve the winding).
    """
    if path.times.size < 2:
        raise ValueError("path must contain at least two samples")
    if total_time is None:
        total_time = float(path.times[-1])
    p_minus0 = 1.0 - float(path.p_plus[0])
    if p_minus0 > 1e-12:
        raise ValueError(
            f"path must start from a pure state, got subdominant weight {p_minus0:.3e}"
        )
    vectors = np.asarray(path.vectors, dtype=complex)
    products = np.sum(vectors[:-1].conj() * vectors[1:], axis=1)
    min_overlap = float(np.abs(products).min())
    if min_overlap < MIN_ADJACENT_OVERLAP:
        raise NumericsError(
            f"insufficient sampling: adjacent eigenvector overlap {min_overlap:.4f} "
            f"below {MIN_ADJACENT_OVERLAP}"
        )
    connection = float(np.sum(np.angle(products)))
    overlap = complex(np.vdot(vectors[0], vectors[-1]))
    amplitude = math.sqrt(float(path.p_plus[0]) * float(path.p_plus[-1])) * abs(overlap)
    total = float(np.angle(overlap)) - connection

    # pure-precession reference at the initial superposition angle
    cos_theta0 = math.cos(float(path.bloch_angle[0]))
    n_cycles = (float(path.azimuth[-1]) - float(path.azimuth[0])) / math.tau
    unitary = -math.pi * n_cycles * (1.0 - cos_theta0)
    return GPResult(
        engine="tong",
        n_cycles=n_cycles,
        total=total,
        unitary_part=unitary,
        nonunitary_part=total - unitary,
        principal_value=_principal(total),
        diagnostics={
            "min_adjacent_overlap": min_overlap,
            "endpoint_amplitude": amplitude,
            "samples": int(path.times.size),
        },
    )


def _saturated_integrand(ratio: float) -> float:
    """Limit of the phase integrand 1 - cos(angle) far beyond relaxation:
    the state settles toward |g> (b/a > 0), |e> (b/a < 0) or, for b = 0,
    the maximally mixed state."""
    if ratio > 0.0:
        return 2.0
    if ratio < 0.0:
        return 0.0
    return 1.0


def _envelope_connection(p: EvolutionParams, t_quad: float, segments: int):
    """Composite Simpson of sin^2(angle/2) over [0, t_quad] on an even
    number of panels; returns the integral and the sampled angles."""
    taus = np.linspace(0.0, t_quad, segments + 1)
    _, bloch_angle, _ = _path_fields(p, taus)
    s2 = np.square(np.sin(bloch_angle / 2.0))
    simpson = s2[0] + s2[-1] + 4.0 * s2[1::2].sum() + 2.0 * s2[2:-1:2].sum()
    return (t_quad / segments / 3.0) * float(simpson), bloch_angle


def gp_tong_closed_form(
    p: EvolutionParams,
    total_time: float,
    samples_per_cycle: int = SAMPLES_PER_CYCLE,
    refine_rel_tol: float = 1e-9,
) -> GPResult:
    """Evaluate the path functional on the analytic trajectory.

    In the canonical gauge of the analytic state the azimuth advances at
    exactly omega_eff, so the endpoint overlap is known in closed form
    and the connection integrand omega * sin^2(angle/2) varies only on
    the relaxation envelope (timescale 1/4a). The connection is
    therefore composite Simpson on an envelope grid sized by 4 a T, never
    by the cycle count; past SATURATION_EXPONENT the saturated remainder
    is added analytically. The grid is doubled until the phase moves by
    less than ``refine_rel_tol`` relative. ``samples_per_cycle`` is the
    per-cycle resolution the adjacent-overlap check certifies: adjacent
    canonical eigenvectors a cycle fraction 1/samples_per_cycle apart
    overlap by |cos^2(angle/2) + sin^2(angle/2) e^{2 pi i / samples_per_cycle}|.
    On-axis paths (sin theta0 = 0) never leave the pole and have zero
    connection.
    """
    if total_time < 0.0:
        raise ValueError(f"total_time must be non-negative, got {total_time}")
    if samples_per_cycle < 4:
        raise ValueError("need at least 4 samples per cycle to unwrap the azimuth")
    a4 = 4.0 * p.a_coeff
    t_quad, tail = total_time, 0.0
    if a4 * total_time > SATURATION_EXPONENT:
        t_quad = SATURATION_EXPONENT / a4
        # sin^2(angle/2) = (1 - cos(angle)) / 2
        tail = _saturated_integrand(p.b_coeff / p.a_coeff) / 2.0 * (total_time - t_quad)
    # Simpson needs an even panel count
    pairs = math.ceil(ENVELOPE_SEGMENTS_PER_RELAXATION * a4 * t_quad / 2.0)
    segments = max(MIN_ENVELOPE_SEGMENTS, 2 * pairs)
    on_axis = math.sin(p.theta0) == 0.0
    _, ends, _ = _path_fields(p, np.array([0.0, total_time]))
    half0, half1 = ends[0] / 2.0, ends[1] / 2.0
    sweep = p.omega_eff * total_time
    overlap = math.cos(half0) * math.cos(half1) + math.sin(half0) * math.sin(half1) * complex(
        math.cos(sweep), math.sin(sweep)
    )
    endpoint_arg = math.atan2(overlap.imag, overlap.real)

    def total_at(segments):
        integral, bloch_angle = _envelope_connection(p, t_quad, segments)
        connection = 0.0 if on_axis else p.omega_eff * (integral + tail)
        return endpoint_arg - connection, bloch_angle

    total, bloch_angle = total_at(segments)
    refinements = 0
    while True:
        segments *= 2
        refinements += 1
        refined, bloch_angle = total_at(segments)
        gap = abs(refined - total)
        total = refined
        if gap <= refine_rel_tol * max(abs(total), 1e-30):
            break
        if refinements >= MAX_REFINEMENTS:
            raise NumericsError(
                f"path functional did not converge: last refinement moved the "
                f"phase by {gap:.3e} at {segments + 1} envelope samples"
            )
    s2 = np.square(np.sin(bloch_angle / 2.0))
    step = math.tau / samples_per_cycle
    min_overlap = float(np.sqrt(1.0 - 2.0 * s2 * (1.0 - s2) * (1.0 - math.cos(step))).min())
    if min_overlap < MIN_ADJACENT_OVERLAP:
        raise NumericsError(
            f"insufficient sampling: adjacent eigenvector overlap {min_overlap:.4f} "
            f"below {MIN_ADJACENT_OVERLAP}"
        )
    n_cycles = sweep / math.tau
    unitary = -math.pi * n_cycles * (1.0 - math.cos(ends[0]))
    return GPResult(
        engine="tong",
        n_cycles=n_cycles,
        total=total,
        unitary_part=unitary,
        nonunitary_part=total - unitary,
        principal_value=_principal(total),
        diagnostics={
            "min_adjacent_overlap": min_overlap,
            "refinements": refinements,
            "samples": segments + 1,
            "samples_per_cycle": samples_per_cycle,
        },
    )


def _exact_integrand_tau(tau: float, a4: float, ratio: float, cos_t: float, sin2: float):
    e4 = math.exp(a4 * tau)
    g = ratio - ratio * e4 + cos_t
    return 1.0 - g / math.sqrt(e4 * sin2 + g * g)


def _exact_integrand_u(u: float, ratio: float, cos_t: float, sin2: float, a4: float):
    g = ratio - ratio * u + cos_t
    return (1.0 - g / math.sqrt(u * sin2 + g * g)) / (a4 * u)


def _quad_checked(func, lo, hi, args, points=None) -> float:
    value, err, info, *rest = quad(
        func,
        lo,
        hi,
        args=args,
        epsabs=1e-300,
        epsrel=1e-10,
        limit=1000,
        points=points,
        full_output=True,
    )
    if rest:
        raise NumericsError(f"phase quadrature did not converge: {rest[0]}")
    return float(value)


def gp_exact_integral(
    p: EvolutionParams, total_time: float, n_cycles: float | None = None
) -> GPResult:
    """Geometric phase from adaptive quadrature of the closed-form integrand.

    Valid for any horizon. The integration variable switches to
    u = e^{4 a tau} once 4 a T exceeds 1; horizons far beyond relaxation
    use the saturated integrand value analytically for the remainder.
    On-axis initial states (sin theta = 0) are evaluated in closed form.
    """
    if total_time < 0.0:
        raise ValueError(f"total_time must be non-negative, got {total_time}")
    omega = p.omega_eff
    theta = p.theta0
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    sin2 = sin_t * sin_t
    a4 = 4.0 * p.a_coeff
    ratio = p.b_coeff / p.a_coeff if p.a_coeff > 0.0 else 0.0

    # g = ratio (1 - e^{4 a tau}) + cos theta crosses zero at most once
    u_knee = 1.0 + cos_t / ratio if ratio != 0.0 else math.inf

    if p.a_coeff == 0.0:
        integral = (1.0 - cos_t) * total_time
    elif sin_t == 0.0:
        # piecewise-constant integrand 1 - sign(g)
        tau_c = math.log(u_knee) / a4 if 1.0 < u_knee < math.inf else None
        if cos_t > 0.0:  # excited: g starts positive, may drop (ratio > 0)
            integral = 2.0 * max(0.0, total_time - tau_c) if tau_c is not None else 0.0
        else:  # ground: g starts negative, may rise (ratio < 0)
            integral = 2.0 * (min(total_time, tau_c) if tau_c is not None else total_time)
    else:
        horizon = a4 * total_time
        tail = 0.0
        t_quad = total_time
        if horizon > SATURATION_EXPONENT:
            t_quad = SATURATION_EXPONENT / a4
            tail = _saturated_integrand(ratio) * (total_time - t_quad)
            horizon = SATURATION_EXPONENT
        if horizon <= 1.0:
            points = None
            if 1.0 < u_knee < math.inf:
                tau_c = math.log(u_knee) / a4
                if 0.0 < tau_c < t_quad:
                    points = [tau_c]
            integral = _quad_checked(
                _exact_integrand_tau, 0.0, t_quad, (a4, ratio, cos_t, sin2), points
            ) + tail
        else:
            u_top = math.exp(horizon)
            points = [u_knee] if 1.0 < u_knee < u_top else None
            integral = _quad_checked(
                _exact_integrand_u, 1.0, u_top, (ratio, cos_t, sin2, a4), points
            ) + tail

    total = -(omega / 2.0) * integral
    if n_cycles is None:
        n_cycles = omega * total_time / math.tau
    unitary = -(omega * total_time / 2.0) * (1.0 - cos_t)
    return GPResult(
        engine="exact-integral",
        n_cycles=n_cycles,
        total=total,
        unitary_part=unitary,
        nonunitary_part=total - unitary,
        principal_value=_principal(total),
        diagnostics={"four_a_t": a4 * total_time},
    )


def _quasi_cycle_diagnostics(a_coeff: float, omega0: float, n: float):
    expansion = math.pi * n * a_coeff / omega0
    strict = 8.0 * math.pi * n * a_coeff / omega0
    warnings = ()
    if expansion >= 0.1:
        warnings = (
            f"quasi-cycle expansion parameter pi*n*a/omega0 = {expansion:.3e} >= 0.1",
        )
    return expansion, strict, warnings


def gp_quasi_cycle(p: EvolutionParams, n: float) -> GPResult:
    """Leading-order phase after n quasi-cycles (T = 2 pi n / omega_eff).

    total = -pi n (1 - cos theta)
            - (2 pi^2 n^2 / omega_eff) (2 b + a cos theta) sin^2 theta.
    Valid while pi n a / omega_eff stays small; the flag is stored in the
    diagnostics and a warning is attached past 0.1.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    theta = p.theta0
    unitary = -math.pi * n * (1.0 - math.cos(theta))
    correction = (
        -(2.0 * math.pi ** 2 * n ** 2 / p.omega_eff)
        * (2.0 * p.b_coeff + p.a_coeff * math.cos(theta))
        * math.sin(theta) ** 2
    )
    expansion, strict, warnings = _quasi_cycle_diagnostics(p.a_coeff, p.omega_eff, n)
    total = unitary + correction
    return GPResult(
        engine="quasi-cycle",
        n_cycles=float(n),
        total=total,
        unitary_part=unitary,
        nonunitary_part=correction,
        principal_value=_principal(total),
        warnings=warnings,
        diagnostics={
            "pi_n_a_over_omega0": expansion,
            "relaxation_bound_8pi_n_a_over_omega0": strict,
        },
    )


def gp_split(rates: RateSet, n: float, theta: float, omega0: float) -> GPResult:
    """Quasi-cycle phase with the non-unitary correction decomposed into
    inertial and non-inertial parts (linearity of the correction in the
    rate pair makes the decomposition exact).

    Requires a RateSet whose split fields are populated.
    """
    if rates.gamma_down_inertial is None or rates.gamma_down_ni is None:
        raise ValueError("RateSet carries no inertial/non-inertial decomposition")
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    gu_ni = rates.gamma_up_ni if rates.gamma_up_ni is not None else rates.gamma_up
    gu_in = rates.gamma_up - gu_ni
    prefactor = -(2.0 * math.pi ** 2 * n ** 2 / omega0) * math.sin(theta) ** 2

    def correction(gd: float, gu: float) -> float:
        a = (gd + gu) / 4.0
        b = (gd - gu) / 4.0
        return prefactor * (2.0 * b + a * math.cos(theta))

    inertial = correction(rates.gamma_down_inertial, gu_in)
    noninertial = correction(rates.gamma_down_ni, gu_ni)
    nonunitary = inertial + noninertial
    unitary = -math.pi * n * (1.0 - math.cos(theta))
    expansion, strict, warnings = _quasi_cycle_diagnostics(rates.a_coeff, omega0, n)
    total = unitary + nonunitary
    return GPResult(
        engine="quasi-cycle",
        n_cycles=float(n),
        total=total,
        unitary_part=unitary,
        nonunitary_part=nonunitary,
        principal_value=_principal(total),
        inertial_part=inertial,
        noninertial_part=noninertial,
        warnings=warnings + rates.warnings,
        diagnostics={
            "pi_n_a_over_omega0": expansion,
            "relaxation_bound_8pi_n_a_over_omega0": strict,
        },
    )


def gp_case1(
    traj: TrajectoryParams, atom: AtomParams, cavity: CavitySpec, n: float
) -> GPResult:
    """Fast-rotation quasi-cycle phase written directly in cavity terms.

    The non-unitary correction groups the carrier and upper sideband
    with weight (2 + cos theta) and the lower sideband with weight
    -(2 - cos theta); the inertial part keeps only the unexpanded
    carrier term.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    kin = derive_kinematics(traj, atom)
    eta = vacuum_coupling(atom, cavity)
    omega0 = atom.omega0
    theta = atom.theta0
    zeta_rot = kin.zeta
    cos_t = math.cos(theta)
    sin2 = math.sin(theta) ** 2
    scale = -(2.0 * math.pi ** 2 * n ** 2 / omega0) * (eta / 4.0) * sin2

    carrier = dos(cavity, omega0) * omega0
    slope = -(zeta_rot / 2.0) * omega0 ** 2 * dos_derivative(cavity, omega0)
    upper = 0.45 * zeta_rot * kin.omega_plus * dos(cavity, kin.omega_plus)
    lower = 0.45 * zeta_rot * max(kin.omega_minus, 0.0) * dos(cavity, kin.omega_minus)

    inertial = scale * carrier * (2.0 + cos_t)
    noninertial = scale * (
        slope * (2.0 + cos_t) + upper * (2.0 + cos_t) - lower * (2.0 - cos_t)
    )
    nonunitary = inertial + noninertial
    unitary = -math.pi * n * (1.0 - cos_t)
    a_coeff = (eta / 4.0) * (carrier + slope + upper + lower)
    expansion, strict, warnings = _quasi_cycle_diagnostics(a_coeff, omega0, n)
    warn = list(warnings + _general_warnings(kin))
    if traj.omega < 10.0 * kin.omega0_bar:
        warn.append("fast-rotation regime strained: omega < 10 * omega0_bar")
    total = unitary + nonunitary
    return GPResult(
        engine="case1",
        n_cycles=float(n),
        total=total,
        unitary_part=unitary,
        nonunitary_part=nonunitary,
        principal_value=_principal(total),
        inertial_part=inertial,
        noninertial_part=noninertial,
        warnings=tuple(warn),
        diagnostics={
            "pi_n_a_over_omega0": expansion,
            "relaxation_bound_8pi_n_a_over_omega0": strict,
        },
    )


def gp_case2(
    traj: TrajectoryParams, atom: AtomParams, cavity: CavitySpec, n: float
) -> GPResult:
    """Slow-rotation quasi-cycle phase.

    With no upward channel the correction collapses to
    -(pi^2 n^2 / 2 omega0) * gamma_down * (2 + cos theta) sin^2 theta,
    evaluated per rate term to keep the inertial/non-inertial split.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    rates = case2_rates(traj, atom, cavity)
    omega0 = atom.omega0
    theta = atom.theta0
    scale = (
        -(math.pi ** 2 * n ** 2 / (2.0 * omega0))
        * (2.0 + math.cos(theta))
        * math.sin(theta) ** 2
    )
    inertial = scale * rates.gamma_down_inertial
    noninertial = scale * rates.gamma_down_ni
    nonunitary = inertial + noninertial
    unitary = -math.pi * n * (1.0 - math.cos(theta))
    expansion, strict, warnings = _quasi_cycle_diagnostics(rates.a_coeff, omega0, n)
    total = unitary + nonunitary
    return GPResult(
        engine="case2",
        n_cycles=float(n),
        total=total,
        unitary_part=unitary,
        nonunitary_part=nonunitary,
        principal_value=_principal(total),
        inertial_part=inertial,
        noninertial_part=noninertial,
        warnings=warnings + rates.warnings,
        diagnostics={
            "pi_n_a_over_omega0": expansion,
            "relaxation_bound_8pi_n_a_over_omega0": strict,
        },
    )
