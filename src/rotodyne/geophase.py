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
    pairs; a hit is bit-identical to a fresh evaluation.

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

import functools
import math
import numbers
import sys

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
# e^{4 a tau} saturates the phase integrand long before overflow
SATURATION_EXPONENT = 300.0
# widest Gauss-Legendre panel in x = 4 a tau before relaxation
KERNEL_PANEL = 0.5
# gap allowed between a panel set and its halving, relative to the integral of |integrand|
KERNEL_REL_TOL = 1e-10
# further halvings of the panel set before the kernel gives up
MAX_HALVINGS = 4
# (generator, horizon) pairs whose kernel is kept: engines compared on one path share it
KERNEL_CACHE_SIZE = 8
# the kernel's series in e = expm1(4 a tau): its tail bound's share of the sum at which it
# stops, the terms it may take before the panels take over, and an |e| below which no
# singularity lies for any |b| <= a and theta0
SERIES_REL_TOL, SERIES_TERMS, SERIES_RADIUS = 2.0 ** -56, 40, math.sqrt(2.0) - 1.0


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


# positive nodes of the 16-point Gauss-Legendre rule on [-1, 1] and their weights,
# correctly rounded
_GL_HALF = (
    (0.09501250983763744, 0.1894506104550685),
    (0.2816035507792589, 0.18260341504492358),
    (0.45801677765722737, 0.16915651939500254),
    (0.6178762444026438, 0.14959598881657674),
    (0.755404408355003, 0.12462897125553388),
    (0.8656312023878318, 0.09515851168249279),
    (0.9445750230732326, 0.062253523938647894),
    (0.9894009349916499, 0.027152459411754096),
)
_GL = tuple((-x, w) for x, w in reversed(_GL_HALF)) + _GL_HALF
# (node, weight) of the rule on the unit panel [0, 1], and of the rule on each of its halves
_WHOLE_PANEL = tuple(((1.0 + x) / 2.0, w / 2.0) for x, w in _GL)
_HALF_PANELS = tuple(((mid + 0.5 * x) / 2.0, w / 4.0) for mid in (0.5, 1.5) for x, w in _GL)


def _decay_geometry(e: float, ratio: float, cos_t: float, sin2: float):
    """(g, R, cos theta0 - cos(angle)) at e = expm1(4 a tau): g = cos theta0
    - ratio e, R = sqrt((1 + e) sin^2 + g^2), cos(angle) = g / R. Where c g
    > 0, c = cos theta0, the drop is taken in the cancelled form s^2 e (c (c
    + 2 ratio) - ratio^2 e) / (R (c R + g)), elsewhere c - g / R adds two
    terms of one sign. The sign of c g is read from g's side of 0, so that
    the product cannot underflow. R = 0 raises ZeroDivisionError."""
    g = cos_t - ratio * e
    big_r2 = (1.0 + e) * sin2 + g * g
    big_r = math.sqrt(big_r2)
    if g > 0.0 if cos_t > 0.0 else g < 0.0:
        numer = e * (sin2 * cos_t * (cos_t + 2.0 * ratio) - (sin2 * ratio * ratio) * e)
        return g, big_r, numer / (cos_t * big_r2 + g * big_r)
    return g, big_r, cos_t - g / big_r


def _knee(ratio: float, cos_t: float, sin2: float) -> tuple[tuple[float, float], float]:
    """((x_0, x_k), delta) in x = 4 a tau from the integrand's
    singularities, where R^2 = 0, a quadratic in u = e^x. A complex pair
    lies at |u| = 1 + cos theta0 / ratio, the knee x_k = x_0 where g
    changes sign, a distance delta from the real axis; it nears the axis as
    sin theta0 -> 0. Otherwise the roots are negative reals, at distance
    pi, of log-moduli x_0 <= x_k: past x_0 the integrand relaxes toward cos
    theta0 and turns again only near x_k, which b = 0 puts at infinity."""
    q = ratio * (cos_t + ratio)
    if 4.0 * q > sin2:
        delta = math.atan2(math.sqrt(sin2 * (4.0 * q - sin2)), 2.0 * q - sin2)
        x_k = math.log1p(cos_t / ratio)
        # below a few ulps of x_k no panel edge can follow it
        return (x_k, x_k), max(delta, 1e-14 * max(1.0, x_k))
    if ratio == 0.0:
        return (math.log(cos_t * cos_t / sin2) if cos_t else -math.inf, math.inf), math.pi
    # the larger root: (b + sqrt(b^2 - 4 q^2)) / (2 ratio^2), b = sin^2 - 2 q; the
    # roots' product is (cos theta0 + ratio)^2 / ratio^2
    larger = (sin2 - 2.0 * q + math.sqrt(sin2 * (sin2 - 4.0 * q))) / 2.0
    x_k = math.log(larger) - 2.0 * math.log(abs(ratio))
    alpha = cos_t + ratio
    return (2.0 * math.log(abs(alpha)) - math.log(larger) if alpha else -math.inf, x_k), math.pi


def _kernel_panels(
    x_end: float, turns: tuple[float, float], delta: float
) -> list[tuple[float, float]]:
    """(left end, width) tuples of panels tiling [0, x_end], from ``_knee``'s
    turns (x_0, x_k) and delta: at most KERNEL_PANEL wide, shrinking
    geometrically toward a sharp knee x_k (delta < KERNEL_PANEL, a
    breakpoint) down to about delta; past x_0 or x_k at most as wide as
    the distance from it, and before x_k at most half the distance to it,
    so that they grow geometrically once the integrand has relaxed and
    shrink again toward its next turn. Each panel keeps the singularities
    a panel width away."""
    (x_0, x_k), panels, x = turns, [], 0.0
    while x < x_end:
        d = x - x_k
        if d < 0.0 and delta < KERNEL_PANEL:
            nxt = min(x + min(KERNEL_PANEL, 0.5 * math.hypot(d, delta)), x_k)
        else:
            nxt = x + min(max(KERNEL_PANEL, d, min(x - x_0, -0.5 * d)), math.hypot(d, delta))
        nxt = min(nxt, x_end)
        panels.append((x, nxt - x))
        x = nxt
    return panels


def _nonunitary_kernel(a4: float, x_end: float, ratio: float, cos_t: float, sin2: float):
    """Integral over tau in [0, x_end / a4] of cos theta0 - cos(angle),
    with x = a4 tau, by 16-point Gauss-Legendre on ``_kernel_panels``. The
    panel set and its halving are evaluated together; while their gap
    exceeds KERNEL_REL_TOL times the integral of |integrand| the panels
    are halved again, at most MAX_HALVINGS times, else NumericsError.
    Each estimate is the ``math.fsum`` of its nodes' shares, width times
    weight times integrand. Returns the halved set's integral, the gap,
    the halved set's panel count, the halvings taken and 0 series terms.
    The accepted pass evaluated the integrand 24 times per panel of the
    halved set: its own 16 nodes and half of the 16 of the panel it halves."""
    panels = _kernel_panels(x_end, *_knee(ratio, cos_t, sin2))

    def shares(rule):
        return [
            width * weight * _decay_geometry(math.expm1(left + width * node), ratio, cos_t, sin2)[2]
            for left, width in panels
            for node, weight in rule
        ]

    for halvings in range(1, MAX_HALVINGS + 2):
        # summed in x, where |integrand| <= 2 keeps every sum within 2 x_end, so that
        # math.fsum cannot overflow; only the division by a4 may, to an inf the caller reports
        fine_shares = shares(_HALF_PANELS)
        coarse, fine = math.fsum(shares(_WHOLE_PANEL)), math.fsum(fine_shares)
        gap = abs(fine - coarse)
        # |fine| bounds the integral of |integrand| from below, which is summed
        # only if needed; integrand values below the normal range carry no digits
        floor = max(KERNEL_REL_TOL * abs(fine), x_end * sys.float_info.min)
        if gap <= floor or gap <= KERNEL_REL_TOL * math.fsum(map(abs, fine_shares)):
            return fine / a4, gap / a4, 2 * len(panels), halvings, 0
        halves = [(left, 0.5 * width) for left, width in panels]
        panels = halves + [(left + half, half) for left, half in halves]
    raise NumericsError(
        f"phase quadrature did not converge: the last halving, to {len(panels)} panels, "
        f"moved the integral by {gap / a4:.3e}"
    )


def _kernel_series(a4: float, e_end: float, ratio: float, cos_t: float, sin2: float):
    """``_nonunitary_kernel`` up to e_end = expm1(x_end) as a power series in
    e = expm1(x): f = c - g / R has f(0) = 0 and f' = (s^2 / 2) (c + 2 ratio
    + ratio e) Q^(-3/2), Q = R^2 = 1 + p e + ratio^2 e^2, p = s^2 - 2 ratio
    c, whose factors s^2 and c + 2 ratio keep every coefficient free of
    cancellation. Q^(-3/2) = sum z_n e^n, n z_n = -p (n + 1/2) z_{n-1} -
    ratio^2 (n + 1) z_{n-2}; f / (1 + e) is integrated term by term, as d
    tau = de / (a4 (1 + e)). Returns ``_nonunitary_kernel``'s tuple with no
    panels and the tail bound for the gap: (last term + rho * the one
    before, lest one vanishing coefficient end the sum) * rho / (1 - rho),
    rho = e_end / SERIES_RADIUS; None if SERIES_TERMS terms leave the bound
    above SERIES_REL_TOL of the sum."""
    rho = e_end / SERIES_RADIUS
    if not rho < 1.0:
        return None
    p, q, bound = sin2 - 2.0 * ratio * cos_t, ratio * ratio, rho / (1.0 - rho)
    slope, half = cos_t + 2.0 * ratio, 0.5 * sin2
    z_prev, z, coeff, total, previous = 0.0, 1.0, 0.0, 0.0, math.inf
    power = e_end / a4  # divided first, so that a tiny e_end^2 cannot underflow
    for n in range(1, SERIES_TERMS + 1):
        coeff = half * (slope * z + ratio * z_prev) / n - coeff  # of e^n in f / (1 + e)
        power *= e_end
        term = coeff * power / (n + 1)
        total += term
        tail = (abs(term) + rho * abs(previous)) * bound
        if tail <= SERIES_REL_TOL * abs(total):
            return total, abs(tail), 0, 0, n  # abs: a horizon of -0.0 gives rho = -0.0
        previous = term
        z_prev, z = z, -(p * (n + 0.5) * z + q * (n + 1) * z_prev) / n
    return None


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _phase_kernel(p: EvolutionParams, total_time: float):
    """K = integral over [0, T] of cos theta0 - cos(angle), the non-unitary
    kernel of both numeric engines: ``_kernel_series``, or past it
    ``_nonunitary_kernel``, up to SATURATION_EXPONENT in x = 4 a tau plus
    the integrand there for the rest of the horizon; closed forms for a = 0
    and on-axis states (sin^2 theta0 subnormal); on a, b and T as Python
    floats, so that a memo hit across +-0.0 or numpy scalars returns what a
    fresh call would. Returns K, its error estimate, the panels, the
    halvings and the series terms. Raises NumericsError past the float range."""
    a, total_time = float(p.a_coeff), float(total_time)
    if a == 0.0:
        return 0.0, 0.0, 0, 0, 0  # pure precession: the angle never leaves theta0
    cos_t, sin_t = math.cos(p.theta0), math.sin(p.theta0)
    sin2 = sin_t * sin_t
    ratio, a4 = float(p.b_coeff) / a, 4.0 * a
    if sin2 < sys.float_info.min:
        # cos(angle) = sign(g) leaves cos theta0 = +-1 for -cos theta0 at the knee
        kernel, err, panels, halvings, terms = 0.0, 0.0, 0, 0, 0
        if ratio != 0.0 and cos_t / ratio > 0.0:
            kernel = 2.0 * cos_t * max(0.0, total_time - math.log1p(cos_t / ratio) / a4)
    else:
        four_a_t = float(p.relaxation_exponent(total_time))
        x_end = min(four_a_t, SATURATION_EXPONENT)
        e_end = math.expm1(x_end)
        kernel, err, panels, halvings, terms = _kernel_series(
            a4, e_end, ratio, cos_t, sin2
        ) or _nonunitary_kernel(a4, x_end, ratio, cos_t, sin2)
        if four_a_t > SATURATION_EXPONENT:
            saturated = _decay_geometry(e_end, ratio, cos_t, sin2)[2]
            kernel += saturated * (total_time - x_end / a4)
    if not math.isfinite(kernel):  # the integrand is at most 2: only T near the float range
        raise NumericsError(f"phase kernel over T = {total_time!r} is past the float range")
    return kernel, err, panels, halvings, terms


def _sweep(omega: float, total_time: float) -> float:
    """omega T, the azimuth the numeric engines precess through. Raises
    ValueError for a negative or non-finite horizon and NumericsError where
    omega T is not finite, before any kernel work: no phase survives that
    sweep."""
    if not 0.0 <= total_time < math.inf:
        raise ValueError(f"total_time must be non-negative and finite, got {total_time}")
    sweep = omega * total_time
    if not math.isfinite(sweep):
        raise NumericsError(f"precession angle omega T = {sweep} is not finite")
    return sweep


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
    omega, theta0, total_time = float(p.omega_eff), float(p.theta0), float(total_time)
    sweep = _sweep(omega, total_time)
    cos_t, sin_t = math.cos(theta0), math.sin(theta0)
    sin2 = sin_t * sin_t
    ratio = float(p.b_coeff) / float(p.a_coeff) if p.a_coeff else 0.0
    # the endpoint state, taken at SATURATION_EXPONENT beyond it as in the kernel
    eps = math.expm1(min(p.relaxation_exponent(total_time), SATURATION_EXPONENT))
    u = 1.0 + eps
    try:
        g, big_r, drop = _decay_geometry(eps, ratio, cos_t, sin2)
    except ZeroDivisionError:  # R = 0: the centre of the Bloch ball
        big_r = 0.0
    _require_eigenbasis(big_r / u)
    # R + |g| and R - |g| = u sin^2 theta0 / (R + |g|), free of cancellation
    wide = big_r + abs(g)
    halves = (wide, u * sin2 / wide) if g >= 0.0 else (u * sin2 / wide, wide)
    cos_h1, sin_h1 = (math.sqrt(h / (2.0 * big_r)) for h in halves)
    kernel, err, panels, halvings, terms = _phase_kernel(p, total_time)

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
    omega, theta0, total_time = float(p.omega_eff), float(p.theta0), float(total_time)
    sweep = _sweep(omega, total_time)
    kernel, err, panels, _, terms = _phase_kernel(p, total_time)
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
    keeps Python numbers off the slower ABC checks."""
    if type(n) in (int, float) or not isinstance(n, numbers.Real):
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
