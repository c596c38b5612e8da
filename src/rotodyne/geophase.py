"""Open-system geometric phase of the precessing, decaying two-level state.

Engines
-------
``gp_tong_closed_form``
    Kinematic mixed-state functional (Tong et al., PRL 93, 080405, 2004)
    of the larger-eigenvalue eigenvector: phase of the endpoint overlap
    minus the accumulated connection, evaluated on the analytic state as
    the endpoint term plus the shared non-unitary kernel, so it samples
    no path and its cost does not grow with the cycle count.

``gp_exact_integral``
    The shared non-unitary kernel alone, valid for any horizon, not just
    integer quasi-cycles: a power series in e = expm1(4 a tau) while e is
    well inside its radius, which covers the quasi-cycle regime, and past
    it checked composite Gauss-Legendre quadrature of the closed-form phase
    integrand. The non-unitary part is integrated directly, not taken as a
    difference, on Python floats alone: one function forms the decaying
    state's geometry at each panel node, at ``tong``'s endpoint and in the
    saturated tail, and ``math.fsum`` adds the panels' shares, so no
    numpy is loaded. The engines are compared on one path, so the kernel
    is memoized per (generator, horizon), for the last KERNEL_CACHE_SIZE
    pairs; a hit is bit-identical to a fresh evaluation. The kernel lives in
    ``rotodyne._kernel``, which the quasi-cycle engines below never load.

``gp_quasi_cycle``
    Leading-order closed form for n quasi-cycles: the pure-precession
    solid-angle term plus a correction linear in the dissipator pair.

``gp_split``
    The quasi-cycle correction of a RateSet, split into inertial and
    non-inertial contributions. ``gp_case1`` / ``gp_case2`` apply it to
    the regime-expanded fast- and slow-rotation rates.

All phases are reported as continuous (unwrapped) accumulations with the
principal value in [-pi, pi] derived from them. The unitary reference of
``tong`` is the pure precession over the same open path, that of
``exact-integral`` its linear part -omega T sin^2(theta/2); the
quasi-cycle engines use the closed-loop solid angle
-pi n (1 - cos theta) = -2 pi n sin^2(theta/2).
"""

from __future__ import annotations

import math

from ._record import Factory, Record
from .errors import NumericsError
from .rates import RateSet, _dissipator_pair, case1_rates, case2_rates

__all__ = [
    "GPResult",
    "gp_tong_closed_form",
    "gp_exact_integral",
    "gp_quasi_cycle",
    "gp_case1",
    "gp_case2",
    "gp_split",
]

DEGENERACY_FLOOR = 1e-14
# below this the endpoint overlap's arg, and with it the phase, is set by rounding
MIN_ENDPOINT_AMPLITUDE = 1e-6

_kernel = None  # rotodyne._kernel, bound by the first numeric engine call


class GPResult(Record):
    """One geometric-phase evaluation.

    ``total`` is the unwrapped phase (rad); the property
    ``principal_value`` its representative in [-pi, pi]. ``unitary_part``
    is the pure-precession reference for the same horizon and initial
    angle, ``nonunitary_part`` the remainder. The inertial/non-inertial
    decomposition is present only for engines that know the rate split.
    ``diagnostics`` carries validity numbers (expansion parameters, sample
    or panel counts, error estimates).
    """

    engine: str
    n_cycles: float
    total: float
    unitary_part: float
    nonunitary_part: float
    inertial_part: float | None = None
    noninertial_part: float | None = None
    warnings: tuple[str, ...] = ()
    diagnostics: dict = Factory(dict)

    @property
    def principal_value(self) -> float:
        return math.remainder(self.total, math.tau)

    @property
    def validity(self) -> str:
        return "ok" if not self.warnings else ";".join(self.warnings)


def _endpoint_warnings(amplitude: float) -> tuple[str, ...]:
    if amplitude < MIN_ENDPOINT_AMPLITUDE:
        return (
            f"endpoint amplitude {amplitude:.3e} below {MIN_ENDPOINT_AMPLITUDE:g}: "
            "the phase is set by rounding",
        )
    return ()


def _require_eigenbasis(length: float) -> None:
    """The eigenbasis is undefined for a Bloch length <= 1e-14."""
    if length <= DEGENERACY_FLOOR:
        raise NumericsError(
            f"degenerate state: Bloch length {length:.2e} <= {DEGENERACY_FLOOR:g}"
        )


def _unitary_open_path(theta0: float, sweep: float) -> float:
    """Path functional of the pure precession at polar angle ``theta0``
    over an azimuth ``sweep``: arg(cos^2(theta0/2) + sin^2(theta0/2)
    e^{i sweep}) - sweep sin^2(theta0/2). For whole cycles this is the
    solid-angle phase -pi n (1 - cos theta0)."""
    c2, s2 = math.cos(theta0 / 2.0) ** 2, math.sin(theta0 / 2.0) ** 2
    return math.atan2(s2 * math.sin(sweep), c2 + s2 * math.cos(sweep)) - sweep * s2


def _load_kernel():
    """Bind ``rotodyne._kernel`` to ``_kernel``: a global read per call, not an import."""
    global _kernel
    from . import _kernel

    return _kernel


def gp_tong_closed_form(p: EvolutionParams, total_time: float) -> GPResult:
    """Evaluate the path functional on the analytic trajectory.

    In the canonical gauge the azimuth advances at exactly omega_eff, so
    against the pure precession over the same open path the terms in
    omega T sin^2(theta0/2) cancel, and nonunitary = arg(overlap conj(c0^2
    + s0^2 e^{i omega T})) - (omega / 2) K with K from ``_phase_kernel``:
    the cost never grows with the cycle count. The endpoint half-angles
    sqrt((R +- g) / 2R) come from ``_decay_geometry``, which also gives
    the kernel its integrand, and the arg from sin((angle - theta0) / 2) =
    (cos theta0 - cos angle) / (2 sin((angle + theta0) / 2)), free of
    cancellation. No path is sampled, and all of it runs on Python floats.
    The diagnostics are ``abserr`` (the kernel's error estimate, in rad),
    ``endpoint_amplitude``, and the kernel's ``series_terms`` or, past the
    series, ``panels``, ``refinements`` (halvings taken) and ``samples``
    (integrand evaluations of the accepted pass, 24 per panel), 0 on the
    path not taken. Every result field is a Python float: omega, theta0
    and T are taken as floats at entry.
    """
    k = _kernel or _load_kernel()
    omega, theta0, total_time = float(p.omega_eff), float(p.theta0), float(total_time)
    sweep = k._sweep(omega, total_time)
    cos_t, sin_t = math.cos(theta0), math.sin(theta0)
    sin2 = sin_t * sin_t
    ratio = float(p.b_coeff) / float(p.a_coeff) if p.a_coeff else 0.0
    # the endpoint state, taken at SATURATION_EXPONENT beyond it as in the kernel
    eps = math.expm1(min(p.relaxation_exponent(total_time), k.SATURATION_EXPONENT))
    u = 1.0 + eps
    try:
        g, big_r, drop = k._decay_geometry(eps, ratio, cos_t, sin2)
    except ZeroDivisionError:  # R = 0: the centre of the Bloch ball
        big_r = 0.0
    _require_eigenbasis(big_r / u)
    # R + |g| and R - |g| = u sin^2 theta0 / (R + |g|), free of cancellation
    wide = big_r + abs(g)
    halves = (wide, u * sin2 / wide) if g >= 0.0 else (u * sin2 / wide, wide)
    cos_h1, sin_h1 = (math.sqrt(h / (2.0 * big_r)) for h in halves)
    kernel, err, panels, halvings, terms = k._phase_kernel(p, total_time)

    c0, s0 = math.cos(theta0 / 2.0), math.sin(theta0 / 2.0)
    cos_s, sin_s = math.cos(sweep), math.sin(sweep)
    across = s0 * cos_h1 + c0 * sin_h1  # sin((angle + theta0) / 2)
    drift = drop / (2.0 * across) if across else 0.0  # sin((angle - theta0) / 2)
    # overlap times conj(c0^2 + s0^2 e^{i sweep}) has imaginary part sin_s s0 c0 drift
    real = c0 ** 3 * cos_h1 + s0 ** 3 * sin_h1 + cos_s * s0 * c0 * across
    endpoint = math.atan2(sin_s * s0 * c0 * drift, real)
    overlap = abs(complex(c0 * cos_h1 + s0 * sin_h1 * cos_s, s0 * sin_h1 * sin_s))
    amplitude = math.sqrt((1.0 + big_r / u) / 2.0) * overlap
    unitary = _unitary_open_path(theta0, sweep)
    nonunitary = endpoint - (omega / 2.0) * kernel
    return GPResult(
        engine="tong",
        n_cycles=sweep / math.tau,
        total=unitary + nonunitary,
        unitary_part=unitary,
        nonunitary_part=nonunitary,
        warnings=_endpoint_warnings(amplitude),
        diagnostics={
            "abserr": (omega / 2.0) * err,
            "endpoint_amplitude": amplitude,
            "panels": panels,
            "refinements": halvings,
            "samples": 24 * panels,
            "series_terms": terms,
        },
    )


def gp_exact_integral(
    p: EvolutionParams, total_time: float, n_cycles: float | None = None
) -> GPResult:
    """Geometric phase from the closed-form integrand, valid for any
    horizon: the unitary part -omega T sin^2(theta0/2), exact down to
    theta0 = 0, plus -(omega / 2) K with the kernel K of ``_phase_kernel``,
    integrated directly in a form free of cancellation. ``abserr`` is the
    series' tail bound or the panels' halving gap, in rad; ``series_terms``
    or ``panels`` counts the path taken, the other is 0, both for the
    closed forms. Every result field but a given ``n_cycles`` is a Python
    float: omega, theta0 and T are taken as floats at entry.
    """
    k = _kernel or _load_kernel()
    omega, theta0, total_time = float(p.omega_eff), float(p.theta0), float(total_time)
    sweep = k._sweep(omega, total_time)
    kernel, err, panels, _, terms = k._phase_kernel(p, total_time)
    if n_cycles is None:
        n_cycles = sweep / math.tau
    unitary = -sweep * math.sin(theta0 / 2.0) ** 2
    nonunitary = 0.0 - (omega / 2.0) * kernel  # 0.0 - keeps a vanishing part at +0.0
    return GPResult(
        engine="exact-integral",
        n_cycles=n_cycles,
        total=unitary + nonunitary,
        unitary_part=unitary,
        nonunitary_part=nonunitary,
        diagnostics={
            "four_a_t": float(p.relaxation_exponent(total_time)),
            "panels": panels,
            "series_terms": terms,
            "abserr": (omega / 2.0) * err,
        },
    )


def _plain_count(n):
    """A cycle count as a Python int when it is integral, numpy integers
    included, and as a Python float when it is another real number: n**2
    then cannot wrap around in a fixed-width type. The type test first
    keeps Python numbers off the slower ABC checks and ``numbers`` unloaded."""
    if type(n) in (int, float):
        return n
    import numbers

    if not isinstance(n, numbers.Real):
        return n
    return int(n) if isinstance(n, numbers.Integral) else float(n)


def _quasi_cycle_result(
    engine: str,
    n: float,
    theta: float,
    omega0: float,
    a_coeff: float,
    pairs: tuple[tuple[float, float], ...],
    warnings: tuple[str, ...] = (),
) -> GPResult:
    """Quasi-cycle phase after n cycles: the pure-precession term -2 pi n
    sin^2(theta/2), exact down to theta = 0 where 1 - cos(theta) rounds to
    0, plus the non-unitary correction linear in each dissipator pair (a,
    b) of ``pairs``, -(2 pi^2 n^2 / omega0) sin^2 theta (2 b + a cos
    theta). ``pairs`` holds one pair, or the inertial and the non-inertial
    pair, whose corrections are reported apart and summed. ``a_coeff`` is
    the whole generator's a, for the expansion parameter pi*n*a/omega0
    (with a warning past 0.1) and the strict relaxation bound 8 times it.
    A cycle count that is not whole is evaluated but warned: the formula
    holds on closed loops only. Raises ValueError unless 0 < n < inf,
    0 < omega0 < inf and 0 <= theta <= pi, and where 2 pi^2 n^2 / omega0 is
    past the float range."""
    n = _plain_count(n)
    if not 0.0 < n < math.inf:
        raise ValueError(f"n must be positive and finite, got {n}")
    if not 0.0 < omega0 < math.inf:
        raise ValueError(f"omega0 must be positive and finite, got {omega0}")
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    try:
        scale = 2.0 * math.pi ** 2 * n ** 2 / omega0
    except OverflowError:  # a float n**2, or an int one converted to float
        scale = math.inf
    if scale == math.inf:
        raise ValueError(f"n = {n!r} is too large: 2 pi^2 n^2 / omega0 is past the float range")
    prefactor = -scale * math.sin(theta) ** 2
    cos_t = math.cos(theta)
    parts = [prefactor * (2.0 * b + a * cos_t) for a, b in pairs]
    inertial, noninertial = parts if len(parts) == 2 else (None, None)
    nonunitary = parts[0] if noninertial is None else inertial + noninertial
    unitary = -(math.tau * n) * math.sin(theta / 2.0) ** 2
    expansion = math.pi * n * a_coeff / omega0
    if expansion >= 0.1:
        warnings = (
            f"quasi-cycle expansion parameter pi*n*a/omega0 = {expansion:.3e} >= 0.1",
        ) + warnings
    if n % 1:
        warnings = (
            f"cycle count n = {n!r} is not whole: "
            "the closed-loop formula does not hold on an open path",
        ) + warnings
    return GPResult(
        engine=engine,
        n_cycles=float(n),
        total=unitary + nonunitary,
        unitary_part=unitary,
        nonunitary_part=nonunitary,
        inertial_part=inertial,
        noninertial_part=noninertial,
        warnings=warnings,
        diagnostics={
            "pi_n_a_over_omega0": expansion,
            "relaxation_bound_8pi_n_a_over_omega0": 8.0 * expansion,
        },
    )


def gp_quasi_cycle(p: EvolutionParams, n: float) -> GPResult:
    """Leading-order phase after n quasi-cycles (T = 2 pi n / omega_eff).

    total = -pi n (1 - cos theta)
            - (2 pi^2 n^2 / omega_eff) (2 b + a cos theta) sin^2 theta.
    Valid while pi n a / omega_eff stays small; the flag is stored in the
    diagnostics and a warning is attached past 0.1.
    """
    return _quasi_cycle_result(
        "quasi-cycle", n, p.theta0, p.omega_eff, p.a_coeff, ((p.a_coeff, p.b_coeff),)
    )


def _split_result(
    engine: str, rates: RateSet, n: float, theta: float, omega0: float
) -> GPResult:
    if rates.gamma_down_inertial is None or rates.gamma_down_ni is None:
        raise ValueError("RateSet carries no inertial/non-inertial decomposition")
    # the upward channel is entirely non-inertial
    pairs = (
        _dissipator_pair(rates.gamma_down_inertial, 0.0),
        _dissipator_pair(rates.gamma_down_ni, rates.gamma_up),
    )
    return _quasi_cycle_result(engine, n, theta, omega0, rates.a_coeff, pairs, rates.warnings)


def gp_split(rates: RateSet, n: float, theta: float, omega0: float) -> GPResult:
    """Quasi-cycle phase with the non-unitary correction decomposed into
    inertial and non-inertial parts (linearity of the correction in the
    rate pair makes the decomposition exact).

    Requires a RateSet whose split fields are populated.
    """
    return _split_result("quasi-cycle", rates, n, theta, omega0)


def gp_case1(
    traj: TrajectoryParams, atom: AtomParams, cavity: CavitySpec, n: float
) -> GPResult:
    """Fast-rotation quasi-cycle phase: ``gp_split`` of ``case1_rates``,
    labelled ``case1``.

    The rates put the carrier at the unshifted gap into the inertial part
    and the dos-derivative carrier correction and both rotational
    sidebands into the non-inertial part.
    """
    rates = case1_rates(traj, atom, cavity)
    return _split_result("case1", rates, n, atom.theta0, atom.omega0)


def gp_case2(
    traj: TrajectoryParams, atom: AtomParams, cavity: CavitySpec, n: float
) -> GPResult:
    """Slow-rotation quasi-cycle phase: ``gp_split`` of ``case2_rates``,
    labelled ``case2``.

    With no upward channel the correction collapses to
    -(pi^2 n^2 / 2 omega0) * gamma_down * (2 + cos theta) sin^2 theta.
    """
    rates = case2_rates(traj, atom, cavity)
    return _split_result("case2", rates, n, atom.theta0, atom.omega0)
