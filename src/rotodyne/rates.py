"""Cavity-modified emission/absorption rates of the rotating emitter.

Three rate engines share one structure:

``lab_rates_general``
    Resonance-condition (delta-sifted) evaluation, valid for any rotation
    frequency. The downward channel collects a carrier term at the
    redshifted gap plus two rotational sidebands; the upward channel can
    only collect the ``omega - omega0_bar`` sideband. Every sifted
    frequency must be positive to contribute (no negative-frequency
    density of states).

``case1_rates`` (fast rotation, omega >> omega0_bar)
    First order in zeta(omega), co-moving frame. The carrier is expanded
    around the unshifted gap through the dos derivative; only the upper
    sideband survives in the downward channel.

``case2_rates`` (slow rotation, omega << omega0_bar)
    First order in zeta(omega), co-moving frame, with both sidebands and
    the recoil bracket kept at their exact sideband frequencies.

Coefficient conventions: a_coeff = (gd + gu)/4, b_coeff = (gd - gu)/4,
ratio = b/a. The inertial part of the downward rate is the zero-rotation
limit eta * dos(omega0) * omega0; the non-inertial part is the remainder.
Regime violations set warnings, they never raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cavity import CavitySpec, _float_if_scalar, dos, dos_derivative
from .constants import HBAR, VACUUM_PERMITTIVITY
from .kinematics import AtomParams, KinematicDerived, TrajectoryParams, derive_kinematics, zeta_of

__all__ = [
    "RateSet",
    "vacuum_coupling",
    "kossakowski",
    "lab_rates_general",
    "comoving_rates",
    "general_rates",
    "case1_rates",
    "case2_rates",
    "noninertial_split",
]

# First-order-in-zeta engines lose accuracy once the rim speed grows;
# warn (never raise) past this point.
ZETA_WARN_THRESHOLD = 1e-3
# Scale separation required before the case1/case2 truncations are trusted.
REGIME_SEPARATION = 10.0


@dataclass(frozen=True)
class RateSet:
    """Decay/excitation rates (1/s) and dissipator coefficients.

    ``gamma_down_inertial``/``gamma_down_ni``/``gamma_up_ni`` are None
    until a split is performed (the closed-form regime engines fill them
    directly). ``frame`` is "lab" or "comoving"; ``family`` names the
    producing engine so that splits cannot mix formulas. With an array
    ``omega_c`` each rate field is an array over it, or a float valid at
    every entry; ``eta`` and ``warnings`` never depend on ``omega_c``.
    """

    gamma_down: float
    gamma_up: float
    a_coeff: float
    b_coeff: float
    ratio: float
    eta: float
    frame: str
    family: str
    gamma_down_inertial: float | None = None
    gamma_down_ni: float | None = None
    gamma_up_ni: float | None = None
    warnings: tuple[str, ...] = ()

    @property
    def validity(self) -> str:
        return "ok" if not self.warnings else ";".join(self.warnings)


def vacuum_coupling(atom: AtomParams, cavity: CavitySpec) -> float:
    """Coupling strength eta = dipole**2 / (3 pi hbar eps0 V).

    Units are such that eta * dos * frequency is a rate in 1/s.
    """
    return atom.dipole ** 2 / (3.0 * math.pi * HBAR * VACUUM_PERMITTIVITY * cavity.volume)


def kossakowski(a_coeff: float, b_coeff: float) -> np.ndarray:
    """3x3 dissipator coefficient matrix for (a, b).

    Hermitian, positive semidefinite with eigenvalues {a + b, a - b, 0};
    raises ValueError when |b| > a (unphysical rate pair).
    """
    if not a_coeff >= 0.0:
        raise ValueError(f"a_coeff must be non-negative, got {a_coeff}")
    if abs(b_coeff) > a_coeff:
        raise ValueError(
            f"|b_coeff| = {abs(b_coeff)} exceeds a_coeff = {a_coeff}; matrix not PSD"
        )
    return np.array(
        [
            [a_coeff, -1j * b_coeff, 0.0],
            [1j * b_coeff, a_coeff, 0.0],
            [0.0, 0.0, 0.0],
        ],
        dtype=complex,
    )


def _coeffs(gamma_down, gamma_up):
    # division by 4 is exact in binary floating point, so a, b inherit
    # the additivity of the rates bit-for-bit
    a = (gamma_down + gamma_up) / 4.0
    b = (gamma_down - gamma_up) / 4.0
    ratio = np.divide(b, a, out=np.zeros_like(a), where=a > 0.0)
    return a, b, _float_if_scalar(ratio)


def _general_warnings(kin: KinematicDerived) -> tuple[str, ...]:
    if kin.zeta > ZETA_WARN_THRESHOLD:
        return (f"zeta(omega)={kin.zeta:.3e} above {ZETA_WARN_THRESHOLD:g}",)
    return ()


def lab_rates_general(
    traj: TrajectoryParams, atom: AtomParams, cavity: CavitySpec
) -> RateSet:
    """Lab-frame rates from the resonance-condition evaluation.

    Each sideband enters with weight zeta(omega)/4 + zeta(w_sifted)/5 and
    only if its sifted frequency is positive; the carrier enters with the
    recoil factor 1 - (2/5) zeta(omega0_bar). Sidebands exist only for
    omega > 0: a non-rotating emitter at fixed radius keeps the carrier
    term alone, recoil factor included.
    """
    kin = derive_kinematics(traj, atom)
    eta = vacuum_coupling(atom, cavity)
    radius = traj.radius
    zeta_rot = kin.zeta

    def sideband(freq: float) -> float:
        if traj.omega <= 0.0 or freq <= 0.0:
            return 0.0
        weight = zeta_rot / 4.0 + zeta_of(freq, radius) / 5.0
        return weight * dos(cavity, freq) * freq

    obar = kin.omega0_bar
    carrier = (1.0 - 0.4 * zeta_of(obar, radius)) * dos(cavity, obar) * obar
    gamma_down = eta * (carrier + sideband(obar + traj.omega) + sideband(obar - traj.omega))
    gamma_up = eta * sideband(traj.omega - obar)
    a, b, ratio = _coeffs(gamma_down, gamma_up)
    return RateSet(
        gamma_down=gamma_down,
        gamma_up=gamma_up,
        a_coeff=a,
        b_coeff=b,
        ratio=ratio,
        eta=eta,
        frame="lab",
        family="general",
        warnings=_general_warnings(kin),
    )


def comoving_rates(rates: RateSet, kin: KinematicDerived) -> RateSet:
    """Rescale a lab-frame RateSet to the co-moving frame (every channel
    multiplied by the Lorentz gamma of the orbit)."""
    if rates.frame != "lab":
        raise ValueError(f"expected lab-frame rates, got frame={rates.frame!r}")
    g = kin.lorentz_gamma
    gamma_down = g * rates.gamma_down
    gamma_up = g * rates.gamma_up
    a, b, ratio = _coeffs(gamma_down, gamma_up)
    scale = lambda v: None if v is None else g * v
    return replace(
        rates,
        gamma_down=gamma_down,
        gamma_up=gamma_up,
        a_coeff=a,
        b_coeff=b,
        ratio=ratio,
        frame="comoving",
        gamma_down_inertial=scale(rates.gamma_down_inertial),
        gamma_down_ni=scale(rates.gamma_down_ni),
        gamma_up_ni=scale(rates.gamma_up_ni),
    )


def general_rates(
    traj: TrajectoryParams, atom: AtomParams, cavity: CavitySpec
) -> RateSet:
    """Co-moving rates from the resonance-condition engine, split against
    the static reference.

    The inertial part of the downward channel is eta * dos(omega0) *
    omega0; the carrier redshift, the recoil factor, both sidebands and
    the frame factor all land in the non-inertial remainder. The upward
    channel is entirely non-inertial.
    """
    kin = derive_kinematics(traj, atom)
    com = comoving_rates(lab_rates_general(traj, atom, cavity), kin)
    gd_inertial = com.eta * dos(cavity, atom.omega0) * atom.omega0
    return replace(
        com,
        gamma_down_inertial=gd_inertial,
        gamma_down_ni=com.gamma_down - gd_inertial,
        gamma_up_ni=com.gamma_up,
    )


def case1_rates(
    traj: TrajectoryParams, atom: AtomParams, cavity: CavitySpec
) -> RateSet:
    """Co-moving rates in the fast-rotation regime, first order in zeta.

    Downward channel: inertial part eta * dos(omega0) * omega0 plus the
    non-inertial remainder (dos-derivative carrier correction and the
    upper sideband). Upward channel: the lower sideband only, entirely
    non-inertial.
    """
    kin = derive_kinematics(traj, atom)
    eta = vacuum_coupling(atom, cavity)
    omega0 = atom.omega0
    zeta_rot = kin.zeta

    gd_inertial = eta * dos(cavity, omega0) * omega0
    gd_ni = eta * (zeta_rot / 2.0) * (
        -omega0 ** 2 * dos_derivative(cavity, omega0)
        + 0.9 * kin.omega_plus * dos(cavity, kin.omega_plus)
    )
    gamma_down = gd_inertial + gd_ni
    gamma_up = eta * 0.45 * zeta_rot * dos(cavity, kin.omega_minus) * max(kin.omega_minus, 0.0)
    a, b, ratio = _coeffs(gamma_down, gamma_up)

    warnings = list(_general_warnings(kin))
    if traj.omega < REGIME_SEPARATION * kin.omega0_bar:
        warnings.append("fast-rotation regime strained: omega < 10 * omega0_bar")
    return RateSet(
        gamma_down=gamma_down,
        gamma_up=gamma_up,
        a_coeff=a,
        b_coeff=b,
        ratio=ratio,
        eta=eta,
        frame="comoving",
        family="case1",
        gamma_down_inertial=gd_inertial,
        gamma_down_ni=gd_ni,
        gamma_up_ni=gamma_up,
        warnings=tuple(warnings),
    )


def case2_rates(
    traj: TrajectoryParams, atom: AtomParams, cavity: CavitySpec
) -> RateSet:
    """Co-moving rates in the slow-rotation regime, first order in zeta.

    Six downward terms: carrier, dos-derivative correction, the two
    velocity sidebands at omega0_bar +/- omega, and the recoil bracket
    (carrier recoil minus half the sideband recoils). No upward channel.
    The recoil bracket vanishes identically at omega = 0, so the
    zero-rotation limit is exactly the inertial rate.
    """
    kin = derive_kinematics(traj, atom)
    eta = vacuum_coupling(atom, cavity)
    omega0 = atom.omega0
    radius = traj.radius
    zeta_rot = kin.zeta
    obar, up, lo = kin.omega0_bar, kin.obar_plus, kin.obar_minus

    carrier = dos(cavity, omega0) * omega0
    slope = -(zeta_rot / 2.0) * omega0 ** 2 * dos_derivative(cavity, omega0)
    sidebands = (zeta_rot / 4.0) * (
        dos(cavity, up) * up + dos(cavity, lo) * max(lo, 0.0)
    )
    recoil = -0.4 * (1.0 + zeta_rot / 2.0) * (
        zeta_of(obar, radius) * dos(cavity, obar) * obar
        - 0.5
        * (
            zeta_of(up, radius) * dos(cavity, up) * up
            + zeta_of(lo, radius) * dos(cavity, lo) * max(lo, 0.0)
        )
    )

    gd_inertial = eta * carrier
    gd_ni = eta * (slope + sidebands + recoil)
    gamma_down = gd_inertial + gd_ni
    gamma_up = 0.0
    a, b, ratio = _coeffs(gamma_down, gamma_up)

    warnings = list(_general_warnings(kin))
    if traj.omega > kin.omega0_bar / REGIME_SEPARATION:
        warnings.append("slow-rotation regime strained: omega > omega0_bar / 10")
    return RateSet(
        gamma_down=gamma_down,
        gamma_up=gamma_up,
        a_coeff=a,
        b_coeff=b,
        ratio=ratio,
        eta=eta,
        frame="comoving",
        family="case2",
        gamma_down_inertial=gd_inertial,
        gamma_down_ni=gd_ni,
        gamma_up_ni=gamma_up,
        warnings=tuple(warnings),
    )


def noninertial_split(at_omega: RateSet, at_zero: RateSet) -> RateSet:
    """Split ``at_omega`` into inertial + non-inertial parts per channel.

    ``at_zero`` must come from the same formula family, frame and
    coupling, evaluated on the zero-rotation trajectory. The inertial
    part of each channel is its zero-rotation value; the non-inertial
    part is the floating-point-exact remainder.
    """
    if at_omega.family != at_zero.family:
        raise ValueError(
            f"cannot split across families {at_omega.family!r} vs {at_zero.family!r}"
        )
    if at_omega.frame != at_zero.frame:
        raise ValueError(
            f"cannot split across frames {at_omega.frame!r} vs {at_zero.frame!r}"
        )
    if at_omega.eta != at_zero.eta:
        raise ValueError("cannot split across different couplings (atom/cavity differ)")
    gd_inertial = at_zero.gamma_down
    return replace(
        at_omega,
        gamma_down_inertial=gd_inertial,
        gamma_down_ni=at_omega.gamma_down - gd_inertial,
        gamma_up_ni=at_omega.gamma_up - at_zero.gamma_up,
    )
