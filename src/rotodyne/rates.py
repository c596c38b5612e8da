"""Cavity-modified emission/absorption rates of the rotating emitter.

Three rate engines share one structure:

``lab_rates_general``
    Resonance-condition (delta-sifted) evaluation, valid for any rotation
    frequency. The downward channel collects a carrier term at the
    redshifted gap plus two rotational sidebands; the upward channel can
    only collect the ``omega - omega0_bar`` sideband. Every sifted
    frequency must be positive to contribute (no negative-frequency
    density of states). Every channel, here and in ``general_rates``,
    reads the Lorentzian of ``cavity`` at its exact detuning.

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

The dissipator pair (a, b) and the ratio b/a derive from the two rates,
and ``EvolutionParams`` is the generator they define: that pair, the
precession frequency and the initial angle, which the phase engines and
the closed form of ``dynamics`` read. The inertial part of the downward
rate is the zero-rotation limit eta * dos(omega0) * omega0; the
non-inertial part is the rest, which every family forms as a sum of its
own terms, never as a difference of the two nearly equal rates, save
the general family's past the float range of its terms' closed forms.
Regime violations set warnings, they never raise; a rate that is not
finite raises NumericsError.
"""

from __future__ import annotations

import math

from ._record import Record, _real, _store
from .cavity import CavitySpec, _lorentzian, _operands, dos, dos_derivative
from .constants import HBAR, VACUUM_PERMITTIVITY
from .errors import NumericsError
from .kinematics import AtomParams, KinematicDerived, TrajectoryParams, derive_kinematics, zeta_of

__all__ = [
    "RateSet",
    "EvolutionParams",
    "vacuum_coupling",
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


class EvolutionParams(Record):
    """Generator coefficients: dissipator pair (a, b), effective precession
    frequency (rad/s), and the initial superposition angle (rad)."""

    a_coeff: float
    b_coeff: float
    omega_eff: float
    theta0: float

    def __post_init__(self) -> None:
        _store(self, _real, "a_coeff", "b_coeff", "omega_eff", "theta0")
        if not 0.0 <= self.a_coeff < math.inf:
            raise ValueError(f"a_coeff must be non-negative and finite, got {self.a_coeff}")
        if not abs(self.b_coeff) <= self.a_coeff:
            raise ValueError(
                f"|b_coeff| must not exceed a_coeff = {self.a_coeff}, got {self.b_coeff}"
            )
        if not 0.0 < self.omega_eff < math.inf:
            raise ValueError(f"omega_eff must be positive and finite, got {self.omega_eff}")
        if not 0.0 <= self.theta0 <= math.pi:
            raise ValueError(f"theta0 must lie in [0, pi], got {self.theta0}")

    @classmethod
    def from_rates(cls, rates: RateSet, theta0: float, omega_eff: float) -> EvolutionParams:
        """Build from a RateSet's dissipator pair (a, b). ``omega_eff`` has
        no default and is used as given: no level-shift correction is
        applied here."""
        return cls(*_dissipator_pair(rates.gamma_down, rates.gamma_up), omega_eff, theta0)

    def relaxation_exponent(self, tau):
        """4 a tau, the exponent of the population decay e^{-4 a tau}, for a
        float or an array tau. Formed as 4 (a tau): where 4a overflows, tau
        = 0 still gives 0, not inf * 0 = nan."""
        return 4.0 * (self.a_coeff * tau)


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
    """The RateSet of ``formula`` after the shared set-up. Raises
    NumericsError naming the first rate that is not finite, at its first
    such entry for an array."""
    kin, eta = _setup(traj, atom, cavity)
    rates = formula(traj, atom, cavity, kin, eta)
    names = ("gamma_down", "gamma_down_inertial", "gamma_down_ni", "gamma_up")
    for name, value in zip(names, rates):
        fits = value is None or abs(value) < math.inf  # the test of ``_pick``
        if fits is not True and (fits is False or not fits.all()):
            bad = value if fits is False else value[~fits][0]
            raise NumericsError(f"{name} = {bad} is not finite")
    return _assemble(kin, rates)


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
    lab_down, lab_up, _ = _resonance_rates(traj, atom, cavity, kin, eta)
    return lab_down, None, None, lab_up, None


def general_rates(traj: TrajectoryParams, atom: AtomParams, cavity: CavitySpec) -> RateSet:
    """Co-moving rates from the resonance-condition engine, split against
    the static reference.

    Both lab-frame channels are multiplied by the Lorentz gamma of the
    orbit, and every channel reads the Lorentzian at its exact detuning
    (``_direct_sums``). The inertial part of the downward channel is eta *
    dos(omega0) * omega0; the carrier redshift, the recoil factor, both
    sidebands and the frame factor all land in the non-inertial part, which
    is summed from those terms wherever their closed forms stay in the
    float range, and is the remainder gamma_down - inertial past it. The
    upward channel is entirely non-inertial.
    """
    return _rates(_general, traj, atom, cavity)


def _general(traj, atom, cavity, kin, eta):
    lab_down, lab_up, noninertial = _resonance_rates(traj, atom, cavity, kin, eta)
    gamma = kin.lorentz_gamma
    gamma_down = gamma * lab_down
    gd_inertial = eta * dos(cavity, atom.omega0) * atom.omega0
    gd_ni = _pick(noninertial, lambda: gamma_down - gd_inertial)
    return gamma_down, gd_inertial, gd_ni, gamma * lab_up, None


# The frequencies and half widths (rad/s) up to which every product of the
# closed forms in ``_direct_sums`` stays inside the float range; half widths
# must also reach the lower bound.
_DIRECT_LO, _DIRECT_HI = 1e-30, 1e30


def _resonance_rates(traj, atom, cavity, kin, eta):
    """``_direct_sums`` on floats through ``math``, or on an array omega_c
    through numpy with its warnings off: an entry past the float range is
    either replaced (the non-inertial rate's NaN) or the rounding of a true
    value past it. Float and array omega_c run one sum, so the two give the
    same bits."""
    lib, omega0, center, q = _operands(cavity, atom.omega0)
    if lib is math:
        return _direct_sums(math, center / q, center, omega0, eta, traj, kin)
    with lib.errstate(all="ignore"):
        return _direct_sums(lib, center / q, center, omega0, eta, traj, kin)


def _pick(value, other):
    """``value`` where it is finite, ``other()`` elsewhere: entry by entry
    for an array; ``other`` runs only if needed."""
    fits = abs(value) < math.inf
    if fits is True or fits is not False and fits.all():
        return value
    if fits is False:
        return other()
    import numpy as np
    return np.where(fits, value, other())


def _two_sum(a, b):
    """(a + b, its rounding error): the float sum s and the e with s + e =
    a + b exactly (Knuth's two-sum), on floats or arrays alike."""
    total = a + b
    b_part = total - a
    return total, (a - (total - b_part)) + (b - b_part)


def _detuning(base, base_err, step, shift):
    """base + step + shift + base_err with base + step kept exactly, as a
    float and its rounding error; at half scale, doubled, where base + step
    overflows, since the sum itself lies in the float range."""
    total, step_err = _two_sum(base, step)
    value = ((total + shift) + base_err) + step_err
    return _pick(value, lambda: 2.0 * _detuning(base / 2, base_err / 2, step / 2, shift / 2))


def _direct_sums(lib, hw, center, omega0, eta, traj, kin):
    """(lab_down, lab_up, gamma_down - inertial) of the general family: eta
    times the sums below, with f(w) = dos(w) * w = hw * w / (hw**2 + (w -
    omega_c)**2):

        lab_down = (1 - 2/5 zeta(omega0_bar)) f(omega0_bar)
                   + sum over w+- of (zeta / 4 + zeta(w) / 5) f(w)
        lab_up = (zeta / 4 + zeta(w_lab) / 5) f(w_lab)
        gamma_down - inertial = (gamma - 1) lab_down + f(omega0_bar) - f(omega0)
                   + zeta / 4 (f(w+) + f(w-))
                   + (zeta(w+) f(w+) + zeta(w-) f(w-) - 2 zeta(omega0_bar) f(omega0_bar)) / 5

    at the sidebands w+- = omega0_bar +- omega and the lab lower sideband
    w_lab = omega - omega0_bar, a sideband only where it is positive and
    omega > 0. Every dos is ``cavity._lorentzian`` at the exact detuning,
    taken from omega0's (or omega's) less the redshift, never from a rounded
    frequency: on a steep flank that rounding alone moves f by up to Q ulp.
    f(omega0_bar) - f(omega0) is formed from the redshift (``shift``). With
    both sidebands the recoil terms are a second difference of G(w) = w**2
    f(w) = hw w**3 / D(d), D(d) = hw**2 + d**2, at step omega, which cancels
    as (omega0_bar / omega)**2 in slow rotation; it is formed as

        -2 omega**2 hw (2 d n + m (D(d) + omega**2)) / (D(d) D(d + omega) D(d - omega))

    with m = a d + b, n = a D(d) - 2 d m, a = 3 omega_c**2 - hw**2 and
    b = omega_c (omega_c**2 - 3 hw**2), where zeta(w) = zeta * (w / omega)**2
    lets zeta stand for omega**2 (R / c)**2 (``recoil``). These two closed
    forms stay in the float range only where omega, omega0 and omega_c are
    at most _DIRECT_HI and the half width lies in [_DIRECT_LO, _DIRECT_HI];
    elsewhere, and where they are not finite, the non-inertial rate is NaN
    for the caller to replace. They square through libm's pow, as
    ``cavity._term``, on both libraries."""
    omega, radius, zeta, redshift = traj.omega, traj.radius, kin.zeta, kin.redshift
    obar, upper, lower, lab_lower = kin.omega0_bar, kin.obar_plus, kin.obar_minus, kin.omega_minus
    # the detunings, each within an ulp or so of its own size: omega0 -
    # omega_c and omega - omega_c, and their sums with the steps, are kept
    # exactly, as a float and its rounding error
    d0, err = _two_sum(omega0, -center)
    d = (d0 - redshift) + err
    dos_bar = _lorentzian(hw, d, 1, lib) if obar > 0.0 else 0.0
    dos_up = dos_lo = up = 0.0
    if omega > 0.0:  # a sideband needs an orbit
        d_up, d_lo = _detuning(d0, err, omega, -redshift), _detuning(d0, err, -omega, -redshift)
        dos_up = _lorentzian(hw, d_up, 1, lib)
        if lower > 0.0:
            dos_lo = _lorentzian(hw, d_lo, 1, lib)
    z_bar, z_up, z_lo = (zeta_of(w, radius) for w in (obar, upper, lower))
    if lab_lower > 0.0:
        base, base_err = _two_sum(omega, -center)
        dos_lab = _lorentzian(hw, _detuning(base, base_err, -omega0, redshift), 1, lib)
        up = (zeta / 4.0 + zeta_of(lab_lower, radius) / 5.0) * dos_lab * lab_lower
    down = (1.0 - 0.4 * z_bar) * dos_bar * obar + (zeta / 4.0 + z_up / 5.0) * dos_up * upper
    if lower > 0.0:
        down += (zeta / 4.0 + z_lo / 5.0) * dos_lo * lower
    closed = omega <= _DIRECT_HI and omega0 <= _DIRECT_HI and (
        (hw >= _DIRECT_LO) & (hw <= _DIRECT_HI) & (center <= _DIRECT_HI)
    )
    if closed is False:
        return eta * down, eta * up, math.nan
    pow_ = math.pow if lib is math else lib.float_power
    hw2 = hw * hw  # as cavity._term squares the half width
    f_bar, f_up, f_lo = dos_bar * obar, dos_up * upper, dos_lo * lower
    den = hw2 + pow_(d, 2)
    shift = -hw * redshift * (hw2 - d * (center + omega0) - center * redshift) / (
        den * (hw2 + pow_(d0, 2))
    )
    if omega > 0.0 and lower > 0.0:
        a = 3.0 * pow_(center, 2) - hw2
        m = a * d + center * (pow_(center, 2) - 3.0 * hw2)
        n = a * den - 2.0 * d * m
        recoil = zeta / 5.0 * (-2.0 * hw * (2.0 * d * n + m * (den + pow_(omega, 2)))) / (
            den * (hw2 + pow_(d_up, 2)) * (hw2 + pow_(d_lo, 2))
        )
    else:
        recoil = (z_up * f_up - 2.0 * z_bar * f_bar) / 5.0
    noninertial = kin.gamma_minus_one * down + shift + zeta / 4.0 * (f_up + f_lo) + recoil
    if closed is not True:
        noninertial = lib.where(closed, noninertial, math.nan)
    return eta * down, eta * up, eta * noninertial


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
