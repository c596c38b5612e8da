"""Circular-trajectory kinematics for a rotating two-level emitter.

The emitter moves on a circle of radius ``R`` with angular frequency
``omega`` (lab frame). All relativistic factors used by the rate and
phase modules derive from the single dimensionless combination

    zeta(x) = x**2 * R**2 / c**2,

evaluated either at the rotation frequency (``zeta``, the squared rim
speed over c) or at a field frequency appearing in a resonance condition.
"""

from __future__ import annotations

import math

from ._record import Record, _real, _store
from .constants import SPEED_OF_LIGHT

__all__ = [
    "AtomParams",
    "TrajectoryParams",
    "KinematicDerived",
    "derive_kinematics",
    "zeta_of",
]


class AtomParams(Record):
    """Two-level emitter: gap ``omega0`` (rad/s), dipole norm (C*m), initial
    superposition angle ``theta0`` (rad) of cos(t/2)|e> + sin(t/2)|g>."""

    omega0: float
    dipole: float
    theta0: float

    def __post_init__(self) -> None:
        _store(self, _real, "omega0", "dipole", "theta0")
        if not 0.0 < self.omega0 < math.inf:
            raise ValueError(f"omega0 must be positive and finite, got {self.omega0}")
        if not 0.0 < self.dipole < math.inf:
            raise ValueError(f"dipole must be positive and finite, got {self.dipole}")
        if not 0.0 <= self.theta0 <= math.pi:
            raise ValueError(f"theta0 must lie in [0, pi], got {self.theta0}")


class TrajectoryParams(Record):
    """Circular orbit: radius (m), angular frequency (rad/s), and the orbit
    center in the rotation plane (m, metadata only)."""

    radius: float
    omega: float
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        _store(self, _real, "radius", "omega")
        if not 0.0 <= self.radius < math.inf:
            raise ValueError(f"radius must be non-negative and finite, got {self.radius}")
        if not 0.0 <= self.omega < math.inf:
            raise ValueError(f"omega must be non-negative and finite, got {self.omega}")
        if not (isinstance(self.center, tuple) and len(self.center) == 2):
            raise ValueError(f"center must be a tuple of two coordinates, got {self.center!r}")
        self.__dict__["center"] = tuple(_real(v, "center") for v in self.center)
        if not all(map(math.isfinite, self.center)):
            raise ValueError(f"center must be finite, got {self.center}")

    @property
    def rim_speed(self) -> float:
        return self.omega * self.radius


class KinematicDerived(Record):
    """Derived kinematic quantities for one (trajectory, atom) pair.

    zeta          squared rim speed over c**2, zeta(omega)
    lorentz_gamma (1 - zeta)**-1/2
    omega0_bar    redshifted gap omega0 * sqrt(1 - zeta)
    omega_plus    omega + omega0_bar  (fast-rotation sideband, "+")
    omega_minus   omega - omega0_bar  (fast-rotation sideband, "-")
    obar_plus     omega0_bar + omega  (slow-rotation sideband, "+")
    obar_minus    omega0_bar - omega  (slow-rotation sideband, "-")
    acceleration  centripetal acceleration omega**2 * R, m/s**2
    redshift      omega0 - omega0_bar, as omega0 * zeta / (1 + sqrt(1 - zeta))
    gamma_minus_one  lorentz_gamma - 1, as zeta / (sqrt(1 - zeta) (1 + sqrt(1 - zeta)))

    The last two are formed from zeta, not as differences: a difference of
    the rounded omega0_bar or lorentz_gamma with omega0 or 1 keeps only a
    relative precision of about 1e-16 / zeta.
    """

    zeta: float
    lorentz_gamma: float
    omega0_bar: float
    omega_plus: float
    omega_minus: float
    obar_plus: float
    obar_minus: float
    acceleration: float
    redshift: float
    gamma_minus_one: float


def zeta_of(frequency: float, radius: float) -> float:
    """Recoil/velocity weight zeta(x) = x**2 R**2 / c**2 at frequency x.

    Raises ValueError when zeta is not finite: its square, or the product
    frequency * radius itself, past the float range.
    """
    try:
        zeta = (frequency * radius / SPEED_OF_LIGHT) ** 2
    except OverflowError:
        zeta = math.inf
    if not zeta < math.inf:  # inf ** 2 raises nothing, and inf * 0 is NaN
        raise ValueError(
            f"zeta = (frequency * radius / c)**2 is past the float range "
            f"at frequency = {frequency:g} rad/s and radius = {radius:g} m"
        )
    return zeta


def derive_kinematics(traj: TrajectoryParams, atom: AtomParams) -> KinematicDerived:
    """Compute all derived kinematic quantities.

    Raises ValueError for superluminal rim speed (omega * R >= c).
    """
    if traj.rim_speed >= SPEED_OF_LIGHT:
        raise ValueError(
            f"rim speed omega*R = {traj.rim_speed!r} m/s is not below c"
        )
    zeta = zeta_of(traj.omega, traj.radius)
    root = math.sqrt(1.0 - zeta)
    omega0_bar = atom.omega0 * root
    omega_plus = traj.omega + omega0_bar
    try:
        acceleration = traj.omega ** 2 * traj.radius
    except OverflowError:  # omega**2 is past the float range, omega * (omega * R) may not be
        acceleration = traj.omega * traj.rim_speed
    return KinematicDerived(
        zeta=zeta,
        lorentz_gamma=1.0 / root,
        omega0_bar=omega0_bar,
        omega_plus=omega_plus,
        omega_minus=traj.omega - omega0_bar,
        obar_plus=omega_plus,
        obar_minus=omega0_bar - traj.omega,
        acceleration=acceleration,
        redshift=atom.omega0 * zeta / (1.0 + root),
        gamma_minus_one=zeta / (root * (1.0 + root)),
    )
