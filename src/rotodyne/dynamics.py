"""Reduced two-level dynamics: closed-form propagator and ODE oracle.

The master equation in the rotating emitter's proper time is

    drho/dtau = -i (omega_eff/2) [sigma3, rho] + D[rho],
    D[rho] = (1/2) sum_ij a_ij (2 sigma_j rho sigma_i
                                - sigma_i sigma_j rho - rho sigma_i sigma_j),

with the 3x3 coefficient matrix from :func:`rotodyne.rates.kossakowski`.
``closed_form_rho`` implements the analytic solution for the initial pure
state cos(theta/2)|e> + sin(theta/2)|g>; ``evolve_ode`` propagates the
same generator numerically, by matrix exponential, and exists purely as
an independent cross-check of the closed form. Basis convention: |e> = (1, 0),
sigma3 |e> = +|e>. hbar cancels from the generator, so only angular
frequencies appear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import NumericsError
from .rates import RateSet, kossakowski

__all__ = [
    "EvolutionParams",
    "OdeTrajectory",
    "initial_state",
    "closed_form_rho",
    "closed_form_bloch",
    "lindblad_rhs",
    "evolve_ode",
    "trace_distance",
    "check_density_matrix",
]

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_PAULI = (SIGMA1, SIGMA2, SIGMA3)


@dataclass(frozen=True)
class EvolutionParams:
    """Generator coefficients: dissipator pair (a, b), effective precession
    frequency (rad/s), and the initial superposition angle (rad)."""

    a_coeff: float
    b_coeff: float
    omega_eff: float
    theta0: float

    def __post_init__(self) -> None:
        if not self.a_coeff >= 0.0:
            raise ValueError(f"a_coeff must be non-negative, got {self.a_coeff}")
        if abs(self.b_coeff) > self.a_coeff:
            raise ValueError(
                f"|b_coeff| = {abs(self.b_coeff)} exceeds a_coeff = {self.a_coeff}"
            )
        if not self.omega_eff > 0.0:
            raise ValueError(f"omega_eff must be positive, got {self.omega_eff}")
        if not 0.0 <= self.theta0 <= math.pi:
            raise ValueError(f"theta0 must lie in [0, pi], got {self.theta0}")

    @classmethod
    def from_rates(
        cls, rates: RateSet, theta0: float, omega_eff: float
    ) -> "EvolutionParams":
        """Build from a RateSet; the effective frequency defaults to the bare
        gap at call sites (no level-shift correction is applied here)."""
        return cls(
            a_coeff=rates.a_coeff,
            b_coeff=rates.b_coeff,
            omega_eff=omega_eff,
            theta0=theta0,
        )


def initial_state(theta0: float) -> np.ndarray:
    """Density matrix of the pure state cos(t/2)|e> + sin(t/2)|g>."""
    if not 0.0 <= theta0 <= math.pi:
        raise ValueError(f"theta0 must lie in [0, pi], got {theta0}")
    c, s = math.cos(theta0 / 2.0), math.sin(theta0 / 2.0)
    return np.array([[c * c, c * s], [c * s, s * s]], dtype=complex)


def _decay_factors(p: EvolutionParams, tau):
    """(e^{-4 a tau}, pumping term ((b-a)/2a)(e^{-4 a tau} - 1)) vectorized."""
    tau = np.asarray(tau, dtype=float)
    if p.a_coeff == 0.0:
        # |b| <= a forces b = 0: pure precession
        return np.ones_like(tau), np.zeros_like(tau)
    e4 = np.exp(-4.0 * p.a_coeff * tau)
    pump = ((p.b_coeff - p.a_coeff) / (2.0 * p.a_coeff)) * np.expm1(-4.0 * p.a_coeff * tau)
    return e4, pump


def closed_form_bloch(p: EvolutionParams, tau):
    """Bloch components (r1, r2, r3) of the closed-form state, vectorized."""
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0.0):
        raise ValueError("tau must be non-negative")
    e4, pump = _decay_factors(p, tau)
    cos_t, sin_t = math.cos(p.theta0), math.sin(p.theta0)
    # r3 = 2 rho11 - 1 keeps the population and inversion forms consistent
    r3 = e4 * cos_t + (e4 - 1.0) + 2.0 * pump
    r_perp = np.sqrt(e4) * sin_t
    phase = p.omega_eff * tau
    return r_perp * np.cos(phase), r_perp * np.sin(phase), r3


def closed_form_rho(p: EvolutionParams, tau: float) -> np.ndarray:
    """Analytic density matrix at proper time ``tau``.

    rho11 decays as e^{-4 a tau} toward the stationary population set by
    b/a; the coherence decays as e^{-2 a tau} and precesses at
    omega_eff. For a = 0 the branch is the unitary limit.
    """
    if tau < 0.0:
        raise ValueError(f"tau must be non-negative, got {tau}")
    e4, pump = _decay_factors(p, float(tau))
    rho11 = float(e4) * math.cos(p.theta0 / 2.0) ** 2 + float(pump)
    coh = 0.5 * math.sqrt(float(e4)) * math.sin(p.theta0) * np.exp(-1j * p.omega_eff * tau)
    return np.array([[rho11, coh], [np.conj(coh), 1.0 - rho11]], dtype=complex)


def lindblad_rhs(rho: np.ndarray, p: EvolutionParams) -> np.ndarray:
    """Right-hand side of the master equation for one state (2x2 complex).

    Written as the literal double sum over the coefficient matrix; this
    is the reference generator the ODE oracle propagates.
    """
    rho = np.asarray(rho, dtype=complex)
    out = -0.5j * p.omega_eff * (SIGMA3 @ rho - rho @ SIGMA3)
    a = kossakowski(p.a_coeff, p.b_coeff)
    for i in range(3):
        for j in range(3):
            if a[i, j] == 0.0:
                continue
            si, sj = _PAULI[i], _PAULI[j]
            out = out + 0.5 * a[i, j] * (
                2.0 * sj @ rho @ si - si @ sj @ rho - rho @ si @ sj
            )
    return out


@dataclass(frozen=True)
class OdeTrajectory:
    """Sampled numerical trajectory: times (N,) and states (N, 2, 2)."""

    times: np.ndarray
    states: np.ndarray


def _superoperator(p: EvolutionParams) -> np.ndarray:
    """4x4 matrix of the (complex-linear) generator, built by probing
    lindblad_rhs on the matrix-unit basis."""
    mat = np.empty((4, 4), dtype=complex)
    for k in range(4):
        basis = np.zeros(4, dtype=complex)
        basis[k] = 1.0
        mat[:, k] = lindblad_rhs(basis.reshape(2, 2), p).reshape(4)
    return mat


def evolve_ode(
    p: EvolutionParams,
    t_final: float,
    rtol: float = 1e-10,
    t_eval: np.ndarray | None = None,
) -> OdeTrajectory:
    """Propagate the master equation from initial_state(theta0) to t_final.

    The generator is a constant 4x4 superoperator probed from
    ``lindblad_rhs``, so the propagator over each step between samples
    is its matrix exponential (scaling and squaring), with no reference
    to the closed form. Samples are re-symmetrized, rho <- (rho + rho^dag)/2.
    ``rtol`` must lie in [1e-13, 1e-6]; the propagator is accurate to
    rounding, so it sets no step size. Raises NumericsError if the
    propagated states are not finite.
    """
    if not 1e-13 <= rtol <= 1e-6:
        raise ValueError(f"rtol must lie in [1e-13, 1e-6], got {rtol}")
    if t_final < 0.0:
        raise ValueError(f"t_final must be non-negative, got {t_final}")
    if t_eval is None:
        t_eval = np.linspace(0.0, t_final, 201)
    else:
        t_eval = np.asarray(t_eval, dtype=float)
        if np.any(t_eval < 0.0) or np.any(t_eval > t_final) or np.any(np.diff(t_eval) < 0):
            raise ValueError("t_eval must be sorted within [0, t_final]")

    # a linspace grid has only a few distinct step lengths, so each is
    # exponentiated once and the samples follow by composition
    steps, which = np.unique(np.diff(t_eval, prepend=0.0), return_inverse=True)
    propagators = expm(steps[:, None, None] * _superoperator(p))
    states = np.empty((t_eval.size, 4), dtype=complex)
    rho = initial_state(p.theta0).reshape(4)
    for k, j in enumerate(which):
        rho = propagators[j] @ rho
        states[k] = rho
    states = states.reshape(-1, 2, 2)
    if not np.all(np.isfinite(states)):
        raise NumericsError("master-equation propagation produced non-finite states")
    states = 0.5 * (states + np.conj(np.swapaxes(states, 1, 2)))
    return OdeTrajectory(times=t_eval, states=states)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2) tr |rho - sigma| for Hermitian 2x2 inputs."""
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(rho - sigma))))


def check_density_matrix(
    rho: np.ndarray,
    herm_tol: float = 1e-12,
    trace_tol: float = 1e-10,
    eig_floor: float = -1e-10,
) -> None:
    """Raise ValueError unless rho is Hermitian, unit trace and positive
    within the stated tolerances."""
    rho = np.asarray(rho)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {rho.shape}")
    herm_gap = float(np.max(np.abs(rho - rho.conj().T)))
    if herm_gap > herm_tol:
        raise ValueError(f"not Hermitian: max |rho - rho^dag| = {herm_gap:.3e}")
    trace_gap = abs(complex(np.trace(rho)) - 1.0)
    if trace_gap > trace_tol:
        raise ValueError(f"trace deviates from 1 by {trace_gap:.3e}")
    low = float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))))
    if low < eig_floor:
        raise ValueError(f"negative eigenvalue {low:.3e} below floor {eig_floor:.3e}")
