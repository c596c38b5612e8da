"""Test-only references for the phase engines.

``gp_tong`` is the dense eigenpath evaluation of the Tong et al.
mixed-state functional (PRL 93, 080405, 2004), the independent check on
``gp_tong_closed_form``. It samples the larger-eigenvalue eigenvector of
the analytic state along the whole horizon and takes the phase of the
endpoint overlap minus the accumulated connection, with a Richardson
estimate of its polygon error. Its cost grows with the cycle count, so it
serves the tests only; the package evaluates the same functional in
closed form. ``unitary_open_path`` is the pure precession's path
functional over an open azimuth sweep: the unitary part of both.

``elementary_kernel`` is the non-unitary kernel from its elementary
antiderivative, in stdlib floats: the reference for the relaxed tail.

``exact_general_rates`` is the ``general`` family's rates in ``decimal``
arithmetic on the exact values of the float inputs, at a precision
derived from those inputs and confirmed by a second pass 20 digits
higher, and ``exact_rates`` the same for any family.

``closed_form_bloch`` is the closed-form state of
``rotodyne.dynamics.closed_form_rho`` as Bloch components over an array of
times, in numpy: the eigenpath above samples it, and the tests hold the
package's float form to it. ``check_density_matrix`` is the tests' check
that a 2x2 matrix is a state.
"""

from __future__ import annotations

import decimal
import functools
import math
from dataclasses import dataclass

import numpy as np

from rotodyne.cavity import CavitySpec
from rotodyne.constants import SPEED_OF_LIGHT
from rotodyne.errors import NumericsError
from rotodyne.geophase import GPResult, _endpoint_warnings, _require_eigenbasis
from rotodyne.kinematics import AtomParams, TrajectoryParams
from rotodyne.rates import EvolutionParams, vacuum_coupling

MIN_ADJACENT_OVERLAP = 0.99
# largest dense path we are willing to materialize
MAX_DENSE_SAMPLES = 2_000_000
# what check_density_matrix accepts: max |rho - rho^dag|, |tr rho - 1| and
# the lowest eigenvalue
HERM_TOL = 1e-12
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-10


def closed_form_bloch(p: EvolutionParams, tau):
    """Bloch components (r1, r2, r3) of the closed-form state, vectorized:
    e^{-4 a tau} and the pumping term ((b-a)/2a)(e^{-4 a tau} - 1) as
    ``rotodyne.dynamics._decay_factors`` forms them, on arrays."""
    tau = np.asarray(tau, dtype=float)
    if not ((tau >= 0.0) & (tau < math.inf)).all():
        raise ValueError("tau must be non-negative and finite")
    if p.a_coeff == 0.0:
        # |b| <= a forces b = 0: pure precession
        zero = 0.0 * tau
        e4, pump = zero + 1.0, zero
    else:
        with np.errstate(over="ignore"):  # a 4 a tau past the float range decays to 0
            x = -p.relaxation_exponent(tau)
        # halving the ratio, not doubling a, keeps an a near the float maximum finite
        e4, pump = np.exp(x), (0.5 * ((p.b_coeff - p.a_coeff) / p.a_coeff)) * np.expm1(x)
    cos_t, sin_t = math.cos(p.theta0), math.sin(p.theta0)
    # r3 = 2 rho11 - 1 keeps the population and inversion forms consistent
    r3 = e4 * cos_t + (e4 - 1.0) + 2.0 * pump
    r_perp = np.sqrt(e4) * sin_t
    phase = p.omega_eff * tau
    return r_perp * np.cos(phase), r_perp * np.sin(phase), r3


def check_density_matrix(rho: np.ndarray) -> None:
    """Raise ValueError unless rho is Hermitian, unit trace and positive
    within HERM_TOL, TRACE_TOL and EIG_FLOOR."""
    rho = np.asarray(rho)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {rho.shape}")
    herm_gap = float(np.max(np.abs(rho - rho.conj().T)))
    if herm_gap > HERM_TOL:
        raise ValueError(f"not Hermitian: max |rho - rho^dag| = {herm_gap:.3e}")
    trace_gap = abs(complex(np.trace(rho)) - 1.0)
    if trace_gap > TRACE_TOL:
        raise ValueError(f"trace deviates from 1 by {trace_gap:.3e}")
    low = float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))))
    if low < EIG_FLOOR:
        raise ValueError(f"negative eigenvalue {low:.3e} below floor {EIG_FLOOR:.3e}")


@dataclass(frozen=True)
class EigenPath:
    """Sampled path of the dominant spectral branch of rho(tau).

    bloch_angle is the polar angle of the eigenvector measured from the
    |e> pole, so the weight on |e> is cos(bloch_angle/2) and a pure
    initial superposition at angle theta0 starts the path at exactly
    theta0; azimuth is the unwrapped
    relative phase between the |g> and |e> components; ``vectors`` are
    explicit eigenvector samples in the gauge with a real non-negative
    |e> component, from which ``gp_tong`` computes the connection.
    """

    times: np.ndarray
    p_plus: np.ndarray
    bloch_angle: np.ndarray
    azimuth: np.ndarray
    vectors: np.ndarray


def _bloch_spectrum(r1, r2, r3):
    """Dominant eigenvalue, its eigenvector's polar angle from the |e> pole,
    and the azimuth atan2(r2, r1) for Bloch components given as scalars
    or arrays. The polar angle uses the numerically stable two-argument
    arctangent. Raises NumericsError where the Bloch length is <= 1e-14,
    where the eigenbasis is undefined.
    """
    lam = np.hypot(np.hypot(r1, r2), r3)
    _require_eigenbasis(float(np.min(lam)))
    p_plus = (1.0 + lam) / 2.0
    bloch_angle = 2.0 * np.arctan2(np.sqrt(np.maximum(lam - r3, 0.0)), np.sqrt(lam + r3))
    return p_plus, bloch_angle, np.arctan2(r2, r1)


def eigensystem(rho: np.ndarray) -> tuple[float, float, float, float]:
    """Spectral data (p_plus, p_minus, bloch_angle, azimuth) of a 2x2 state.

    Raises NumericsError when the state is degenerate (Bloch length
    <= 1e-14), where the eigenbasis is undefined.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {rho.shape}")
    herm = 0.5 * (rho + rho.conj().T)
    p_plus, bloch_angle, azimuth = _bloch_spectrum(
        2.0 * herm[0, 1].real, 2.0 * herm[1, 0].imag, (herm[0, 0] - herm[1, 1]).real
    )
    return float(p_plus), float(1.0 - p_plus), float(bloch_angle), float(azimuth)


def eigenpath_from_closed_form(
    p: EvolutionParams, total_time: float, samples_per_cycle: int = 256
) -> EigenPath:
    """Materialize the dominant-branch eigenpath of the analytic state,
    sampled at ``samples_per_cycle`` points per precession cycle."""
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
    p_plus, bloch_angle, azimuth = _bloch_spectrum(*closed_form_bloch(p, taus))
    azimuth = np.unwrap(azimuth)
    half = bloch_angle / 2.0
    vectors = np.stack(
        [np.cos(half), np.sin(half) * np.exp(1j * azimuth)], axis=1
    ).astype(complex)
    return EigenPath(
        times=taus,
        p_plus=p_plus,
        bloch_angle=bloch_angle,
        azimuth=azimuth,
        vectors=vectors,
    )


def unitary_open_path(theta0: float, sweep: float) -> float:
    """Path functional of the pure precession at polar angle ``theta0``
    over an azimuth ``sweep``: arg(cos^2(theta0/2) + sin^2(theta0/2)
    e^{i sweep}) - sweep sin^2(theta0/2). For whole cycles this is the
    solid-angle phase -pi n (1 - cos theta0)."""
    c2, s2 = math.cos(theta0 / 2.0) ** 2, math.sin(theta0 / 2.0) ** 2
    return math.atan2(s2 * math.sin(sweep), c2 + s2 * math.cos(sweep)) - sweep * s2


def gp_tong(path: EigenPath) -> GPResult:
    """Mixed-state geometric phase from a sampled eigenpath.

    The result is arg of sqrt(p_plus(0) p_plus(T)) times the endpoint
    eigenvector overlap times exp(-connection integral), reported as a
    continuous accumulation. Both pieces are computed from the stored
    eigenvector samples, so a smooth rephasing of the vectors cancels
    between the overlap and the connection and the phase is unchanged.
    Requires a pure initial state and adjacent samples overlapping by at
    least 0.99 in magnitude (else the path cannot resolve the winding).
    The sum of adjacent-overlap args is a polygon whose error is second
    order in the step (zero only at theta0 = pi/2); ``abserr`` is its
    Richardson estimate from the same sum on every other sample, flagged
    in ``validity`` where it exceeds a tenth of the non-unitary part and
    rounding (1e-12 max(1, |total|)).
    """
    if path.times.size < 2:
        raise ValueError("path must contain at least two samples")
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
    # the polygon on every other sample, keeping the last
    halved = vectors[::2] if len(vectors) % 2 else np.concatenate([vectors[::2], vectors[-1:]])
    coarse = float(np.sum(np.angle(np.sum(halved[:-1].conj() * halved[1:], axis=1))))
    abserr = abs(connection - coarse) / 3.0
    overlap = complex(np.vdot(vectors[0], vectors[-1]))
    amplitude = math.sqrt(float(path.p_plus[0]) * float(path.p_plus[-1])) * abs(overlap)
    total = float(np.angle(overlap)) - connection

    sweep = float(path.azimuth[-1]) - float(path.azimuth[0])
    unitary = unitary_open_path(float(path.bloch_angle[0]), sweep)
    nonunitary = total - unitary
    warnings = _endpoint_warnings(amplitude)
    if abserr > 0.1 * abs(nonunitary) and abserr > 1e-12 * max(1.0, abs(total)):
        warnings += (
            f"polygon error estimate {abserr:.3e} rad exceeds a tenth of the "
            "non-unitary part: sample the path more densely",
        )
    return GPResult(
        engine="tong",
        n_cycles=sweep / math.tau,
        total=total,
        unitary_part=unitary,
        nonunitary_part=nonunitary,
        warnings=warnings,
        diagnostics={
            "abserr": abserr,
            "min_adjacent_overlap": min_overlap,
            "endpoint_amplitude": amplitude,
            "samples": int(path.times.size),
        },
    )


def elementary_kernel(p: EvolutionParams, total_time: float) -> float:
    """K = integral over [0, T] of cos theta0 - cos(angle), the kernel of
    the numeric engines, from its antiderivative in u = e^{4 a tau}. With c
    = cos theta0, r = b / a, alpha = c + r, B = 1 - alpha^2 - r^2, R(u) =
    sqrt(alpha^2 + B u + r^2 u^2), x = 4 a T and U = e^x:

        4 a K = c x + sgn(alpha) ln(P1(U) / (U P1(1))) + sgn(r) ln(P2(U) / P2(1)),
        P1(u) = 2 alpha^2 + B u + 2 |alpha| R(u),  P2(u) = 2 |r| R(u) + 2 r^2 u + B.

    Two levels of cancellation cost it about eps / x^2 in floats, and c x
    nearly cancels the logs near the poles, so it is a reference for x >= 5
    and theta0 in [0.8, pi - 0.8] only: there it keeps 7.3e-16 relative to
    50-digit quadrature, and 1.4e-14 at theta0 = 0.2."""
    c = math.cos(p.theta0)
    r = p.b_coeff / p.a_coeff
    alpha = c + r
    big_b = 1.0 - alpha * alpha - r * r
    x = p.relaxation_exponent(total_time)
    u = math.exp(x)

    def p1_p2(u, root):
        return (
            2.0 * alpha * alpha + big_b * u + 2.0 * abs(alpha) * root,
            2.0 * abs(r) * root + 2.0 * r * r * u + big_b,
        )

    p1, p2 = p1_p2(u, math.sqrt(alpha * alpha + big_b * u + r * r * u * u))
    p1_start, p2_start = p1_p2(1.0, 1.0)  # R(1) = 1
    total = c * x
    if alpha:
        total += math.copysign(1.0, alpha) * math.log(p1 / (u * p1_start))
    if r:
        total += math.copysign(1.0, r) * math.log(p2 / p2_start)
    return total / (4.0 * p.a_coeff)


def oracle_digits(traj: TrajectoryParams, atom: AtomParams, cavity: CavitySpec) -> int:
    """The working precision of the rate transcriptions: 60 digits plus the
    ones their inputs can cancel, log10 Q for a detuning resolved within
    the half width, -log10 zeta for 1 - zeta and |log10(omega_c / omega0)|
    for a cavity far from the gap, each where it is positive. zeta is read
    from the logarithms, so one that underflows in floats counts too."""
    digits = 60.0 + max(math.log10(cavity.q_factor), 0.0)
    digits += abs(math.log10(cavity.omega_c) - math.log10(atom.omega0))
    if traj.omega and traj.radius:
        log_zeta = 2.0 * (math.log10(traj.omega) + math.log10(traj.radius) - math.log10(SPEED_OF_LIGHT))
        digits += max(-log_zeta, 0.0)
    return math.ceil(digits)


def _agreed(transcription, traj, atom, cavity) -> dict[str, decimal.Decimal]:
    """``transcription`` at ``oracle_digits`` and 20 digits above: the
    second pass, once each of its values agrees with the first to 20
    digits (a rate that is 0 in one pass must be 0 in both)."""
    digits = oracle_digits(traj, atom, cavity)
    first = transcription(traj, atom, cavity, digits)
    second = transcription(traj, atom, cavity, digits + 20)
    for key, value in second.items():
        gap = abs(first[key] - value)
        assert gap <= abs(value).scaleb(-20), (key, digits, first[key], value)
    return second


def exact_general_rates(
    traj: TrajectoryParams, atom: AtomParams, cavity: CavitySpec
) -> dict[str, decimal.Decimal]:
    """``general_rates`` by field name, a transcription of ``rates._lab`` and
    ``rates._general`` in ``decimal`` on the exact values of the float
    inputs (the constants 1/4, 1/5 and 2/5 exact), at ``oracle_digits``
    (``_agreed``). Eta is the float ``vacuum_coupling`` returns: a common
    factor of every rate, so that no digit of pi is needed. The
    non-inertial rate is the difference of the two rates, which the
    package sums term by term instead."""
    return _agreed(_general_transcription, traj, atom, cavity)


def _general_transcription(traj, atom, cavity, digits):
    with decimal.localcontext() as context:
        context.prec = digits
        dec = decimal.Decimal
        radius, omega, omega0 = dec(traj.radius), dec(traj.omega), dec(atom.omega0)
        center, light = dec(cavity.omega_c), dec(SPEED_OF_LIGHT)
        half_width = center / dec(cavity.q_factor)
        eta = dec(vacuum_coupling(atom, cavity))

        def zeta_of(frequency):
            return (frequency * radius / light) ** 2

        def weighted_dos(frequency):  # dos(frequency) * frequency
            if frequency <= 0:
                return dec(0)
            return half_width * frequency / (half_width ** 2 + (frequency - center) ** 2)

        zeta = zeta_of(omega)
        root = (1 - zeta).sqrt()
        omega0_bar = omega0 * root

        def sideband(frequency):
            if omega <= 0 or frequency <= 0:
                return dec(0)
            return (zeta / 4 + zeta_of(frequency) / 5) * weighted_dos(frequency)

        carrier = (1 - zeta_of(omega0_bar) * 2 / 5) * weighted_dos(omega0_bar)
        lab_down = carrier + sideband(omega0_bar + omega) + sideband(omega0_bar - omega)
        down = eta * lab_down / root
        inertial = eta * weighted_dos(omega0)
        return {
            "gamma_down": down,
            "gamma_down_inertial": inertial,
            "gamma_down_ni": down - inertial,
            "gamma_up": eta * sideband(omega - omega0_bar) / root,
        }


def exact_rates(
    traj: TrajectoryParams, atom: AtomParams, cavity: CavitySpec, family: str
) -> dict[str, decimal.Decimal]:
    """The rates of ``family`` by field name: ``exact_general_rates`` for
    ``general``, and for ``case1`` and ``case2`` a transcription of
    ``rates._case1`` and ``rates._case2`` made the same way (``_agreed``
    digits, the exact values of the float inputs, the constants 9/10, 9/20,
    1/4, 2/5 and 1/2 exact, eta the float ``vacuum_coupling`` returns).
    Each non-inertial rate is the package's sum of terms, not a
    difference."""
    if family == "general":
        return exact_general_rates(traj, atom, cavity)
    return _agreed(functools.partial(_case_transcription, family), traj, atom, cavity)


def _case_transcription(family, traj, atom, cavity, digits):
    with decimal.localcontext() as context:
        context.prec = digits
        dec = decimal.Decimal
        radius, omega, omega0 = dec(traj.radius), dec(traj.omega), dec(atom.omega0)
        center, light = dec(cavity.omega_c), dec(SPEED_OF_LIGHT)
        half_width = center / dec(cavity.q_factor)
        eta = dec(vacuum_coupling(atom, cavity))

        def zeta_of(frequency):
            return (frequency * radius / light) ** 2

        def weighted_dos(frequency):  # dos(frequency) * frequency, 0 where frequency <= 0
            if frequency <= 0:
                return dec(0)
            return half_width * frequency / (half_width ** 2 + (frequency - center) ** 2)

        detuning = omega0 - center
        # -omega0**2 * dos_derivative(omega0)
        slope = omega0 ** 2 * 2 * half_width * detuning / (half_width ** 2 + detuning ** 2) ** 2
        zeta = zeta_of(omega)
        omega0_bar = omega0 * (1 - zeta).sqrt()
        inertial = eta * weighted_dos(omega0)
        if family == "case1":
            upper, lower = omega + omega0_bar, omega - omega0_bar
            noninertial = eta * zeta / 2 * (slope + dec("0.9") * weighted_dos(upper))
            gamma_up = eta * dec("0.45") * zeta * weighted_dos(lower)
        else:
            upper, lower = omega0_bar + omega, omega0_bar - omega
            sidebands = zeta / 4 * (weighted_dos(upper) + weighted_dos(lower))
            recoil = -dec("0.4") * (1 + zeta / 2) * (
                zeta_of(omega0_bar) * weighted_dos(omega0_bar)
                - (zeta_of(upper) * weighted_dos(upper) + zeta_of(lower) * weighted_dos(lower)) / 2
            )
            noninertial = eta * (zeta / 2 * slope + sidebands + recoil)
            gamma_up = dec(0)
        return {
            "gamma_down": inertial + noninertial,
            "gamma_down_inertial": inertial,
            "gamma_down_ni": noninertial,
            "gamma_up": gamma_up,
        }
