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

Each family is one formula of (trajectory, atom, cavity, kinematics, eta)
that returns the rates in the order of a sweep table's columns (total
down, inertial, non-inertial, up) and its regime warning or None. All
share one set-up (``_setup``) and one assembly (``_assemble``).

The dissipator pair (a, b) and the ratio b/a derive from the two rates.
The inertial part of the downward rate is the zero-rotation limit
eta * dos(omega0) * omega0; the non-inertial part is the remainder.
Regime violations set warnings, they never raise.
"""

from __future__ import annotations

import math

from ._record import Record
from .cavity import CavitySpec, dos, dos_derivative
from .constants import HBAR, VACUUM_PERMITTIVITY
from .kinematics import AtomParams, KinematicDerived, TrajectoryParams, derive_kinematics, zeta_of

__all__ = [
    "RateSet",
    "vacuum_coupling",
    "kossakowski",
    "lab_rates_general",
    "general_rates",
    "case1_rates",
    "case2_rates",
]

# First-order-in-zeta engines lose accuracy once the rim speed grows;
# warn (never raise) past this point.
ZETA_WARN_THRESHOLD = 1e-3
# Scale separation required before the case1/case2 truncations are trusted.
REGIME_SEPARATION = 10.0


class RateSet(Record):
    """Decay/excitation rates (1/s); the dissipator coefficients and their
    ratio b/a (0 where a = 0) are read-only properties of the two rates.

    ``gamma_down_inertial``/``gamma_down_ni`` are None for the lab-frame
    rates of ``lab_rates_general``; the co-moving engines fill them. The
    upward channel is entirely non-inertial. With an array ``omega_c``
    each rate field is an array over it, or a float valid at every entry;
    ``warnings`` never depend on ``omega_c``.
    """

    gamma_down: float
    gamma_up: float
    gamma_down_inertial: float | None = None
    gamma_down_ni: float | None = None
    warnings: tuple[str, ...] = ()

    @property
    def a_coeff(self):
        return _dissipator_pair(self.gamma_down, self.gamma_up)[0]

    @property
    def b_coeff(self):
        return _dissipator_pair(self.gamma_down, self.gamma_up)[1]

    @property
    def ratio(self):
        a, b = _dissipator_pair(self.gamma_down, self.gamma_up)
        if type(a) is type(b) is float:  # the type test of cavity._operands
            return b / a if a > 0.0 else 0.0
        import numpy as np
        value = np.divide(b, a, out=np.zeros_like(a), where=a > 0.0)
        return float(value) if value.ndim == 0 else value

    @property
    def validity(self) -> str:
        return "ok" if not self.warnings else ";".join(self.warnings)


def _dissipator_pair(gamma_down, gamma_up):
    """(a, b) = ((gd + gu)/4, (gd - gu)/4). Division by 4 is exact in binary
    floating point, so a and b inherit the additivity of the rates."""
    return (gamma_down + gamma_up) / 4.0, (gamma_down - gamma_up) / 4.0


def vacuum_coupling(atom: AtomParams, cavity: CavitySpec) -> float:
    """Coupling strength eta = dipole**2 / (3 pi hbar eps0 V).

    Units are such that eta * dos * frequency is a rate in 1/s. Raises
    ValueError unless eta is positive and finite: a dipole or a volume far
    enough out leaves the float range.
    """
    try:
        eta = atom.dipole ** 2 / (3.0 * math.pi * HBAR * VACUUM_PERMITTIVITY * cavity.volume)
    except (OverflowError, ZeroDivisionError):  # dipole**2 overflows or the denominator underflows
        eta = math.inf
    if not 0.0 < eta < math.inf:
        raise ValueError(
            f"coupling eta = dipole**2 / (3 pi hbar eps0 volume) must be positive and finite, "
            f"got {eta} from dipole = {atom.dipole} and volume = {cavity.volume}"
        )
    return eta


def kossakowski(a_coeff: float, b_coeff: float) -> np.ndarray:
    """3x3 dissipator coefficient matrix for (a, b).

    Hermitian, positive semidefinite with eigenvalues {a + b, a - b, 0};
    raises ValueError when a is not finite or |b| > a (unphysical rate
    pair), which includes a NaN b.
    """
    if not 0.0 <= a_coeff < math.inf:
        raise ValueError(f"a_coeff must be non-negative and finite, got {a_coeff}")
    if not abs(b_coeff) <= a_coeff:
        raise ValueError(
            f"|b_coeff| must not exceed a_coeff = {a_coeff}, got {b_coeff}; matrix not PSD"
        )
    import numpy as np
    return np.array(
        [
            [a_coeff, -1j * b_coeff, 0.0],
            [1j * b_coeff, a_coeff, 0.0],
            [0.0, 0.0, 0.0],
        ],
        dtype=complex,
    )


def _square(value: float, name: str) -> float:
    """value**2; ValueError naming the value when it is past the float range."""
    try:
        return value ** 2
    except OverflowError:
        raise ValueError(
            f"{name} = {value!r} is too large: its square is past the float range"
        ) from None


def _setup(traj: TrajectoryParams, atom: AtomParams, cavity: CavitySpec):
    """(kinematics, eta): the set-up of every family, in that order, so that
    a bad orbit is reported before a bad coupling. Eta reads only the mode
    volume, so a cavity sweep forms both once."""
    return derive_kinematics(traj, atom), vacuum_coupling(atom, cavity)


def _assemble(kin: KinematicDerived, rates: tuple) -> RateSet:
    """The RateSet of a formula's rates, with the rim-speed warning first
    and the family's regime warning second."""
    down, inertial, noninertial, up, regime = rates
    warnings = (regime,) if regime else ()
    if kin.zeta > ZETA_WARN_THRESHOLD:
        warnings = (f"zeta(omega)={kin.zeta:.3e} above {ZETA_WARN_THRESHOLD:g}", *warnings)
    return RateSet(down, up, inertial, noninertial, warnings)


def _rates(formula, traj: TrajectoryParams, atom: AtomParams, cavity: CavitySpec) -> RateSet:
    """The RateSet of ``formula`` after the shared set-up."""
    kin, eta = _setup(traj, atom, cavity)
    return _assemble(kin, formula(traj, atom, cavity, kin, eta))


def lab_rates_general(traj: TrajectoryParams, atom: AtomParams, cavity: CavitySpec) -> RateSet:
    """Lab-frame rates from the resonance-condition evaluation.

    Each sideband enters with weight zeta(omega)/4 + zeta(w_sifted)/5 and
    only if its sifted frequency is positive; the carrier enters with the
    recoil factor 1 - (2/5) zeta(omega0_bar). Sidebands exist only for
    omega > 0: a non-rotating emitter at fixed radius keeps the carrier
    term alone, recoil factor included.
    """
    return _rates(_lab, traj, atom, cavity)


def _lab(traj, atom, cavity, kin, eta):
    radius = traj.radius
    zeta_rot = kin.zeta

    def sideband(freq: float) -> float:
        if traj.omega <= 0.0 or freq <= 0.0:
            return 0.0
        weight = zeta_rot / 4.0 + zeta_of(freq, radius) / 5.0
        return weight * dos(cavity, freq) * freq

    obar = kin.omega0_bar
    carrier = (1.0 - 0.4 * zeta_of(obar, radius)) * dos(cavity, obar) * obar
    gamma_down = eta * (carrier + sideband(kin.obar_plus) + sideband(kin.obar_minus))
    return gamma_down, None, None, eta * sideband(kin.omega_minus), None


def general_rates(traj: TrajectoryParams, atom: AtomParams, cavity: CavitySpec) -> RateSet:
    """Co-moving rates from the resonance-condition engine, split against
    the static reference.

    Both lab-frame channels are multiplied by the Lorentz gamma of the
    orbit. The inertial part of the downward channel is eta * dos(omega0)
    * omega0; the carrier redshift, the recoil factor, both sidebands and
    the frame factor all land in the non-inertial remainder. The upward
    channel is entirely non-inertial.
    """
    return _rates(_general, traj, atom, cavity)


def _general(traj, atom, cavity, kin, eta):
    lab_down, _, _, lab_up, _ = _lab(traj, atom, cavity, kin, eta)
    gamma_down = kin.lorentz_gamma * lab_down
    gd_inertial = eta * dos(cavity, atom.omega0) * atom.omega0
    return gamma_down, gd_inertial, gamma_down - gd_inertial, kin.lorentz_gamma * lab_up, None


def case1_rates(traj: TrajectoryParams, atom: AtomParams, cavity: CavitySpec) -> RateSet:
    """Co-moving rates in the fast-rotation regime, first order in zeta.

    Downward channel: inertial part eta * dos(omega0) * omega0 plus the
    non-inertial remainder (dos-derivative carrier correction and the
    upper sideband). Upward channel: the lower sideband only, entirely
    non-inertial.
    """
    return _rates(_case1, traj, atom, cavity)


def _case1(traj, atom, cavity, kin, eta):
    omega0 = atom.omega0
    zeta_rot = kin.zeta

    gd_inertial = eta * dos(cavity, omega0) * omega0
    gd_ni = eta * (zeta_rot / 2.0) * (
        -_square(omega0, "omega0") * dos_derivative(cavity, omega0)
        + 0.9 * kin.omega_plus * dos(cavity, kin.omega_plus)
    )
    gamma_up = eta * 0.45 * zeta_rot * dos(cavity, kin.omega_minus) * max(kin.omega_minus, 0.0)
    strained = traj.omega < REGIME_SEPARATION * kin.omega0_bar
    regime = "fast-rotation regime strained: omega < 10 * omega0_bar" if strained else None
    return gd_inertial + gd_ni, gd_inertial, gd_ni, gamma_up, regime


def case2_rates(traj: TrajectoryParams, atom: AtomParams, cavity: CavitySpec) -> RateSet:
    """Co-moving rates in the slow-rotation regime, first order in zeta.

    Six downward terms: carrier, dos-derivative correction, the two
    velocity sidebands at omega0_bar +/- omega, and the recoil bracket
    (carrier recoil minus half the sideband recoils). No upward channel.
    The recoil bracket vanishes identically at omega = 0, so the
    zero-rotation limit is exactly the inertial rate.
    """
    return _rates(_case2, traj, atom, cavity)


def _case2(traj, atom, cavity, kin, eta):
    omega0 = atom.omega0
    radius = traj.radius
    zeta_rot = kin.zeta
    obar, up, lo = kin.omega0_bar, kin.obar_plus, kin.obar_minus
    dos_up, dos_lo = dos(cavity, up), dos(cavity, lo)

    carrier = dos(cavity, omega0) * omega0
    slope = -(zeta_rot / 2.0) * _square(omega0, "omega0") * dos_derivative(cavity, omega0)
    sidebands = (zeta_rot / 4.0) * (dos_up * up + dos_lo * max(lo, 0.0))
    recoil = -0.4 * (1.0 + zeta_rot / 2.0) * (
        zeta_of(obar, radius) * dos(cavity, obar) * obar
        - 0.5
        * (
            zeta_of(up, radius) * dos_up * up
            + zeta_of(lo, radius) * dos_lo * max(lo, 0.0)
        )
    )

    gd_inertial = eta * carrier
    gd_ni = eta * (slope + sidebands + recoil)
    strained = traj.omega > kin.omega0_bar / REGIME_SEPARATION
    regime = "slow-rotation regime strained: omega > omega0_bar / 10" if strained else None
    return gd_inertial + gd_ni, gd_inertial, gd_ni, 0.0, regime
