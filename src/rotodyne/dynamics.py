"""Reduced two-level dynamics: closed-form propagator and ODE oracle.

The master equation in the rotating emitter's proper time is

    drho/dtau = -i (omega_eff/2) [sigma3, rho] + D[rho],
    D[rho] = (1/2) sum_ij a_ij (2 sigma_j rho sigma_i
                                - sigma_i sigma_j rho - rho sigma_i sigma_j),

with the 3x3 coefficient matrix ``kossakowski`` of the generator's
``EvolutionParams`` (``rotodyne.rates``). ``closed_form_rho`` implements
the analytic solution for the initial pure state cos(theta/2)|e> +
sin(theta/2)|g>, evaluated in scalar float arithmetic (``math``) and
packed into one 2x2 array. ``evolve_ode`` exists purely as an
independent cross-check of the closed form: it propagates the generator
that ``lindblad_rhs`` defines, probed once per process as a 4x4
superoperator, by one eigendecomposition per call that gives every
sample time at once. A growth guard raises NumericsError when the
initial state's eigenvector expansion is too large for that eigen-sum to
be accurate to rounding. Times and angles are read by ``_record._real``
and must be non-negative and finite (angles in [0, pi]); anything else,
NaN included, is a ValueError. Each function that takes or builds an
array imports numpy itself, and the Pauli matrices are made on first
use, so importing this module loads no numpy. No module of the package
imports this one: the phase engines read the generator alone. Basis
convention: |e> = (1, 0), sigma3 |e> = +|e>. hbar cancels from the
generator, so only angular frequencies appear.
"""

from __future__ import annotations

import functools
import math

from ._record import Record, _real
from .errors import NumericsError
from .rates import EvolutionParams

__all__ = [
    "OdeTrajectory",
    "initial_state",
    "closed_form_rho",
    "kossakowski",
    "lindblad_rhs",
    "evolve_ode",
    "trace_distance",
]

# what evolve_ode accepts as max(|V| |c|), the size of the initial state's
# eigenvector expansion, which bounds the rounding error of the eigen-sum
# in units of machine epsilon
GROWTH_LIMIT = 1e6


def initial_state(theta0: float) -> np.ndarray:
    """Density matrix of the pure state cos(t/2)|e> + sin(t/2)|g>."""
    theta0 = _real(theta0, "theta0")
    if not 0.0 <= theta0 <= math.pi:
        raise ValueError(f"theta0 must lie in [0, pi], got {theta0}")
    import numpy as np
    c, s = math.cos(theta0 / 2.0), math.sin(theta0 / 2.0)
    return np.array([[c * c, c * s], [c * s, s * s]], dtype=complex)


def _decay_factors(p: EvolutionParams, tau: float) -> tuple[float, float]:
    """(e^{-4 a tau}, pumping term ((b-a)/2a)(e^{-4 a tau} - 1))."""
    if p.a_coeff == 0.0:
        # |b| <= a forces b = 0: pure precession
        return 1.0, 0.0
    x = -p.relaxation_exponent(tau)
    # halving the ratio, not doubling a, keeps an a near the float maximum finite
    return math.exp(x), (0.5 * ((p.b_coeff - p.a_coeff) / p.a_coeff)) * math.expm1(x)


def closed_form_rho(p: EvolutionParams, tau: float) -> np.ndarray:
    """Analytic density matrix at proper time ``tau``, in float arithmetic.

    rho11 decays as e^{-4 a tau} toward the stationary population set by
    b/a; the coherence decays as e^{-2 a tau} and precesses at
    omega_eff. For a = 0 the branch is the unitary limit.
    """
    tau = _real(tau, "tau")
    if not 0.0 <= tau < math.inf:
        raise ValueError(f"tau must be non-negative and finite, got {tau}")
    e4, pump = _decay_factors(p, tau)
    rho11 = e4 * math.cos(p.theta0 / 2.0) ** 2 + pump
    r_perp = 0.5 * math.sqrt(e4) * math.sin(p.theta0)
    phase = p.omega_eff * tau
    re, im = r_perp * math.cos(phase), r_perp * math.sin(phase)
    import numpy as np
    return np.array([[rho11, complex(re, -im)], [complex(re, im), 1.0 - rho11]], dtype=complex)


def kossakowski(a_coeff: float, b_coeff: float) -> np.ndarray:
    """3x3 dissipator coefficient matrix for (a, b).

    Hermitian, positive semidefinite with eigenvalues {a + b, a - b, 0};
    raises ValueError when a is not finite or |b| > a (unphysical rate
    pair), which includes a NaN b. Both are read by ``_record._real``.
    """
    a_coeff, b_coeff = _real(a_coeff, "a_coeff"), _real(b_coeff, "b_coeff")
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


def lindblad_rhs(rho: np.ndarray, p: EvolutionParams) -> np.ndarray:
    """Right-hand side of the master equation for one state (2x2 complex)
    or a stack of states (..., 2, 2).

    Written as the literal double sum over the coefficient matrix; this
    is the reference generator the ODE oracle propagates.
    """
    import numpy as np
    rho = np.asarray(rho, dtype=complex)
    pauli = _pauli()
    out = -0.5j * p.omega_eff * (pauli[2] @ rho - rho @ pauli[2])
    a = kossakowski(p.a_coeff, p.b_coeff)
    for i in range(3):
        for j in range(3):
            if a[i, j] == 0.0:
                continue
            si, sj = pauli[i], pauli[j]
            out = out + 0.5 * a[i, j] * (
                2.0 * sj @ rho @ si - si @ sj @ rho - rho @ si @ sj
            )
    return out


class OdeTrajectory(Record):
    """Sampled numerical trajectory: times (N,) and states (N, 2, 2)."""

    times: np.ndarray
    states: np.ndarray


@functools.cache
def _pauli() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sigma1, sigma2, sigma3), made on first use like ``_generator_parts``."""
    import numpy as np
    rows = ([[0.0, 1.0], [1.0, 0.0]], [[0.0, -1.0j], [1.0j, 0.0]], [[1.0, 0.0], [0.0, -1.0]])
    return tuple(np.array(m, dtype=complex) for m in rows)


@functools.cache
def _generator_parts() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(H, A, B) with generator omega H + a A + b B; column k of each is the
    image of the k-th matrix unit under ``lindblad_rhs``. Their entries are
    small integers times (i, 1, 1), so the probe differences are exact,
    and vec(I) is exactly a left null vector of each: the generator
    preserves the trace, which is what lets ``evolve_ode`` pin its
    stationary eigenvalue to exactly 0. Probed on first use, not at
    import: the first matrix product makes the BLAS library touch about
    0.4 MB, which importers that never propagate would pay."""
    import numpy as np
    units = np.eye(4, dtype=complex).reshape(4, 2, 2)
    h, a, ab = (
        lindblad_rhs(units, EvolutionParams(a_coeff, b_coeff, 1.0, 0.0)).reshape(4, 4).T
        for a_coeff, b_coeff in ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0))
    )
    return h, a - h, ab - a


def _superoperator(p: EvolutionParams) -> np.ndarray:
    """4x4 matrix of the (complex-linear) generator acting on rho.reshape(4)."""
    h, a, b = _generator_parts()
    return p.omega_eff * h + p.a_coeff * a + p.b_coeff * b


def evolve_ode(
    p: EvolutionParams,
    t_final: float,
    rtol: float = 1e-10,
    t_eval: np.ndarray | None = None,
) -> OdeTrajectory:
    """Propagate the master equation from initial_state(theta0) to t_final.

    The generator is a constant 4x4 superoperator probed from
    ``lindblad_rhs``, with no reference to the closed form. It is
    diagonalizable, with eigenvalues 0, -4a and -2a +- i omega, so one
    eigendecomposition L = V diag(lam) V^-1 gives every sample at once:
    rho(t) = V (e^{lam t} * c) with V c = rho(0). The eigenvalue of least
    modulus is set to exactly 0, the value trace preservation gives it;
    ``eig`` returns it as about 4a times machine epsilon, which e^{lam t}
    would turn into a drift growing with t. Samples are
    re-symmetrized, rho <- (rho + rho^dag)/2. ``t_final`` must be
    non-negative and finite, and ``t_eval`` (default: 201 even samples) a
    sorted 1-D array within [0, t_final] of a float, int or unsigned
    dtype: bools and text are a ValueError. ``rtol`` must lie in [1e-13,
    1e-6]; the propagation is accurate to rounding, so it sets no step
    size. Raises NumericsError when the eigendecomposition fails,
    when max(|V| |c|), which bounds the rounding error of the eigen-sum
    because Re lam <= 0, exceeds GROWTH_LIMIT (a near-defective
    generator), or when the propagated states are not finite.
    """
    if not 1e-13 <= rtol <= 1e-6:
        raise ValueError(f"rtol must lie in [1e-13, 1e-6], got {rtol}")
    t_final = _real(t_final, "t_final")
    if not 0.0 <= t_final < math.inf:
        raise ValueError(f"t_final must be non-negative and finite, got {t_final}")
    import numpy as np
    if t_eval is None:
        t_eval = np.linspace(0.0, t_final, 201)
    else:
        times = np.asarray(t_eval)
        if times.dtype.kind not in "fiu":
            raise ValueError(f"t_eval must be a number, got {t_eval!r}")
        t_eval = times.astype(float, copy=False)
        # every comparison with a NaN is False, so NaN samples fail too
        if t_eval.ndim != 1 or (
            t_eval.size
            and not (
                t_eval[0] >= 0.0 and t_eval[-1] <= t_final and (t_eval[1:] >= t_eval[:-1]).all()
            )
        ):
            raise ValueError("t_eval must be a sorted 1-D array within [0, t_final]")

    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values raise below
        try:
            lam, vecs = np.linalg.eig(_superoperator(p))
            # in Python: a first np.argmin call costs about 0.2 MB of peak RSS
            modulus = np.abs(lam).tolist()
            lam[modulus.index(min(modulus))] = 0.0
            coef = np.linalg.solve(vecs, initial_state(p.theta0).reshape(4))
        except np.linalg.LinAlgError as exc:
            raise NumericsError(f"generator eigendecomposition failed: {exc}") from None
        growth = float((np.abs(vecs) @ np.abs(coef)).max())
        if not growth <= GROWTH_LIMIT:
            raise NumericsError(
                f"eigenvector expansion of the initial state grows to {growth:.3e}, "
                f"above {GROWTH_LIMIT:g}: generator too close to defective"
            )
        states = ((np.exp(t_eval[:, None] * lam) * coef) @ vecs.T).reshape(-1, 2, 2)
    if not np.isfinite(states).all():
        raise NumericsError("master-equation propagation produced non-finite states")
    states += states.conj().swapaxes(1, 2)
    states *= 0.5
    return OdeTrajectory(times=t_eval, states=states)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2) tr |rho - sigma| for Hermitian 2x2 inputs."""
    import numpy as np
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(rho - sigma))))
