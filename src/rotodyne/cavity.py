"""Lorentzian single-mode cavity density of states.

The field mode density seen by the emitter is an unnormalized Lorentzian
centered on the cavity frequency, with half width omega_c / Q:

    dos(w) = (omega_c/Q) / ((omega_c/Q)**2 + (w - omega_c)**2)   for w > 0,
    dos(w) = 0                                                   for w <= 0.

The peak value is Q / omega_c. No negative-frequency support: resonance
conditions that would sift a non-positive frequency contribute nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CavitySpec", "dos", "dos_derivative"]


@dataclass(frozen=True)
class CavitySpec:
    """Cavity mode: center frequency (rad/s; a float, or a 1-d array for one
    mode per entry), quality factor, mode volume (m^3)."""

    omega_c: float | np.ndarray
    q_factor: float
    volume: float

    def __post_init__(self) -> None:
        for name, max_ndim in (("omega_c", 1), ("q_factor", 0), ("volume", 0)):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.ndim > max_ndim or not np.all(np.isfinite(value) & (value > 0.0)):
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")

    @property
    def linewidth(self) -> float | np.ndarray:
        """Half width omega_c / Q, rad/s."""
        return self.omega_c / self.q_factor


def _float_if_scalar(value):
    return float(value) if np.ndim(value) == 0 else value


def dos(cavity: CavitySpec, frequency):
    """Density-of-states weight at ``frequency`` (rad/s; scalar or array).

    ``frequency`` broadcasts against an array ``omega_c``; the result is a
    float when both are scalars. Non-positive frequencies return exactly 0.
    """
    w = np.asarray(frequency, dtype=float)
    hw = cavity.linewidth
    # float_power squares through libm pow for scalars and arrays alike, as
    # numpy's scalar ``x ** 2`` does. An array ``x ** 2`` squares exactly, an ulp
    # off pow for ~0.4 % of inputs, which the cancelling non-inertial remainder
    # amplifies to 1e-7 relative: one rounding for both keeps each table's bytes.
    value = hw / (hw * hw + np.float_power(w - cavity.omega_c, 2))
    return _float_if_scalar(np.where(w > 0.0, value, 0.0))


def dos_derivative(cavity: CavitySpec, frequency):
    """Analytic d(dos)/dw at ``frequency`` (rad/s; scalar or array).

    Broadcasts like ``dos``. The derivative is only defined on the
    physical domain: any non-positive frequency raises ValueError.
    """
    w = np.asarray(frequency, dtype=float)
    if np.any(w <= 0.0):
        raise ValueError("dos_derivative requires strictly positive frequency")
    hw = cavity.linewidth
    detuning = w - cavity.omega_c
    value = -2.0 * hw * detuning / np.float_power(hw * hw + np.float_power(detuning, 2), 2)
    return _float_if_scalar(value)
